(* Length + CRC framing shared by the WAL and the snapshot files.

   A frame is [len:u32le][crc:u32le][payload], where [crc] is the
   CRC-32 (IEEE 802.3) of the payload.  The reader never trusts [len]
   beyond the bytes actually present, so a torn tail — the normal state
   of a WAL after a crash mid-append — reads as a clean end of the
   valid prefix, not an exception. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let u32le n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xff);
  Bytes.unsafe_to_string b

let read_u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* A single frame must stay well under any plausible real record; an
   implausible length in the header is corruption, not a big record. *)
let max_payload = 1 lsl 26 (* 64 MiB *)

let write buf payload =
  Buffer.add_string buf (u32le (String.length payload));
  Buffer.add_string buf (u32le (crc32 payload));
  Buffer.add_string buf payload

let to_string payload =
  let buf = Buffer.create (String.length payload + 8) in
  write buf payload;
  Buffer.contents buf

type read_result =
  | Frame of string * int  (** payload, offset just past the frame *)
  | End
  | Corrupt of string
  | Bad_crc of int

let read s pos =
  let n = String.length s in
  if pos = n then End
  else if n - pos < 8 then Corrupt "truncated frame header"
  else
    let len = read_u32le s pos in
    let crc = read_u32le s (pos + 4) in
    if len > max_payload then
      Corrupt (Printf.sprintf "implausible frame length %d" len)
    else if n - pos - 8 < len then Corrupt "truncated frame payload"
    else
      let payload = String.sub s (pos + 8) len in
      if crc32 payload <> crc then Bad_crc (pos + 8 + len)
      else Frame (payload, pos + 8 + len)
