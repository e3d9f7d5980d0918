(** The binary primitives behind every durable byte: WAL record
    payloads and snapshot payloads are both built from these.

    Unsigned ints are LEB128 varints, signed ints are zigzag varints
    (every [int], [min_int] and [max_int] included),
    strings are length-prefixed, and a value is a one-byte type tag
    followed by its body, so a decoder needs no schema to restore a
    {!Dc_relational.Value.t} exactly (a float keeps its bits, a [Str
    "42"] stays a string). *)

exception Corrupt of string
(** Raised by every reader on malformed input; {!decode} turns it into
    [Error]. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted reason. *)

(** {2 Writing} *)

val add_varint : Buffer.t -> int -> unit
(** The int's 63 bits as an unsigned LEB128 number (at most nine
    bytes); non-negative ints below [2{^62}] take the usual form. *)

val add_zigzag : Buffer.t -> int -> unit
val add_string : Buffer.t -> string -> unit
val add_value : Buffer.t -> Dc_relational.Value.t -> unit

(** {2 Reading} *)

type reader

val read_byte : reader -> int
val read_varint : reader -> int
val read_zigzag : reader -> int
val read_string : reader -> string
val read_value : reader -> Dc_relational.Value.t

val decode : string -> (reader -> 'a) -> ('a, string) result
(** [decode payload f] runs [f] over the whole payload.  [Error] when
    [f] raises {!Corrupt} or leaves trailing bytes; never raises. *)
