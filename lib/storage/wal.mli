(** The write-ahead log: framed binary records.

    A WAL file is the 8-byte {!magic} followed by {!Frame} records whose
    payloads are built from the {!Codec} primitives the snapshots use:
    a committed delta is its version, timestamp and, per change, the
    sign, relation name and type-tagged values; a registration is the
    query text.  Values are self-describing, so decoding needs no schema
    and every committed value replays as itself.  Scanning keeps the
    longest valid prefix against a torn tail and refuses anything else
    (see {!scan_string}). *)

val magic : string
(** ["DCWAL02\n"].  A log with any other magic — such as the
    text-record ["DCWAL01\n"] — is refused, naming the magic found. *)

type record =
  | Commit of { version : int; at : int; delta : Dc_relational.Delta.t }
  | Register of string

val encode_record : record -> string
(** The record's binary payload (unframed). *)

val decode_record : string -> (record, string) result
(** Inverse of {!encode_record}; total — malformed payloads come back
    as [Error], naming the version of a commit record whose header
    decoded. *)

(** {2 Scanning} *)

type scan = {
  records : record list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;
      (** offset just past the last valid record (includes the magic) *)
  total_bytes : int;
  corrupt : string option;
      (** why the scan stopped before [total_bytes], when it did *)
}

val scan_string : string -> (scan, string) result
(** Scan whole-file contents.  A torn tail — a last frame cut short
    (or with an implausible length), or a CRC-failing or empty frame
    followed only by zero bytes — ends the scan at its byte offset.
    [Error] for a missing, foreign or text-format magic (appends cannot
    damage the first bytes), for a CRC-valid record that does not
    decode, and for a CRC-failing or empty frame with non-zero bytes
    after it, each naming its byte offset and the version it follows:
    none of these is a torn append, and truncating there would drop
    committed versions. *)

val scan_file : string -> (scan, string) result
(** {!scan_string} on a file, with the path prefixed to any error. *)

(** {2 Appending} *)

type fsync =
  | Always
      (** every append is durable before it returns — no committed delta
          is ever lost.  Concurrent appenders {e group commit}: one
          leader fsyncs (lock released, so others keep appending
          meanwhile) and every append its barrier covered returns
          without a disk touch of its own.  Serial load still pays one
          fsync per append; the [wal_group_commits] counter tracks how
          often a barrier covered more than one append. *)
  | Interval of float
      (** fsync when at least this many seconds passed since the last
          one — bounded loss window, near-[Never] throughput *)
  | Never  (** leave flushing to the OS — crash may lose the tail *)

type writer

val create : path:string -> fsync:fsync -> (writer, string) result
(** Create a fresh WAL (magic only).  Fails if the file exists. *)

val open_existing :
  path:string -> fsync:fsync -> valid_bytes:int -> (writer, string) result
(** Reopen a scanned WAL for append, truncating it to [valid_bytes]
    first — the one write that ever shortens a WAL discards exactly the
    corrupt tail the scan rejected. *)

val append : writer -> record -> (unit, string) result
(** Append one framed record and apply the fsync policy (under
    [Always], through the group commit above — [Ok] means the record is
    on disk, however many appends shared the barrier).  Thread-safe.
    [Error] (with path and reason) on any I/O failure — the caller must
    then {e not} consider the record durable. *)

val sync : writer -> (unit, string) result
(** Force an fsync now (snapshot barrier, graceful drain). *)

val close : writer -> unit
(** Flush and close.  Idempotent; later appends return [Error]. *)
