(** Length + CRC record framing shared by the WAL and snapshot files:
    [len:u32le][crc32:u32le][payload]. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, the zlib polynomial) of the whole string. *)

val write : Buffer.t -> string -> unit
(** Append one framed payload to the buffer. *)

val to_string : string -> string
(** The framed bytes of one payload. *)

type read_result =
  | Frame of string * int  (** payload, offset just past the frame *)
  | End  (** clean end of input *)
  | Corrupt of string
      (** truncated header/payload or implausible length: the frame
          runs off the end, so scanning must stop {e at this offset} *)
  | Bad_crc of int
      (** a whole frame whose payload fails its CRC; the offset just
          past it *)

val read : string -> int -> read_result
(** [read s pos] reads the frame starting at [pos].  Total: truncation
    and corruption come back as {!Corrupt} or {!Bad_crc}, never an
    exception. *)
