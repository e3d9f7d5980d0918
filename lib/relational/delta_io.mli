(** The delta-file format the CLI's [store commit] reads: an outside
    input format, not a persistence format (the durable store logs
    deltas in its own binary WAL records).

    One change per line: a [+] or [-] sign, the relation name, then the
    tuple's fields, all CSV-encoded (so a field with a comma is quoted):
    {v
      +,Family,13,Calcitonin,C3
      -,FamilyIntro,21,Dopamine intro
      +,Committee,13,"Smith, J."
    v}
    Blank lines and [#] comments are skipped.  Parsing needs the
    schemas to type the fields. *)

val parse :
  schemas:Schema.t list -> string -> (Delta.t, string) result

val load : schemas:Schema.t list -> string -> (Delta.t, string) result
(** {!parse} on a file, with the path prefixed to any error. *)
