(* Binary primitives shared by the WAL and snapshot codecs.  Unsigned
   LEB128 varints; signed ints zigzag; values carry a type tag. *)

module R = Dc_relational

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* [n]'s 63 bits as an unsigned number, so zigzag covers every int:
   [lsr] brings even a negative word to zero within nine bytes. *)
let add_varint buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let add_zigzag buf n = add_varint buf ((n lsl 1) lxor (n asr 62))

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_value buf (v : R.Value.t) =
  match v with
  | R.Value.Null -> Buffer.add_char buf '\000'
  | R.Value.Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | R.Value.Int n ->
      Buffer.add_char buf '\002';
      add_zigzag buf n
  | R.Value.Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | R.Value.Timestamp n ->
      Buffer.add_char buf '\004';
      add_zigzag buf n
  | R.Value.Str s ->
      Buffer.add_char buf '\005';
      add_string buf s

type reader = { src : string; mutable pos : int }

let read_byte r =
  if r.pos >= String.length r.src then corrupt "unexpected end of payload";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zigzag r =
  let n = read_varint r in
  (n lsr 1) lxor (-(n land 1))

let read_string r =
  let n = read_varint r in
  if n > String.length r.src - r.pos then corrupt "string overruns payload";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_value r : R.Value.t =
  match read_byte r with
  | 0 -> R.Value.Null
  | 1 -> R.Value.Bool (read_byte r <> 0)
  | 2 -> R.Value.Int (read_zigzag r)
  | 3 ->
      if String.length r.src - r.pos < 8 then corrupt "float overruns payload";
      let bits = String.get_int64_le r.src r.pos in
      r.pos <- r.pos + 8;
      R.Value.Float (Int64.float_of_bits bits)
  | 4 -> R.Value.Timestamp (read_zigzag r)
  | 5 -> R.Value.Str (read_string r)
  | t -> corrupt "unknown value tag %d" t

let decode src f =
  let r = { src; pos = 0 } in
  match f r with
  | v ->
      if r.pos <> String.length src then
        Error
          (Printf.sprintf "%d trailing byte(s)" (String.length src - r.pos))
      else Ok v
  | exception Corrupt e -> Error e
