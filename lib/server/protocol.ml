module R = Dc_relational
module C = Dc_citation

type request =
  | Cite of string
  | Cite_batch of string list
  | Cite_param of { view : string; bindings : (string * R.Value.t) list }
  | Cite_at of { version : int; query : string }
  | Commit_delta of R.Delta.t
  | Versions
  | Verify of { version : int; digest : string }
  | Register of string
  | Stats
  | Health
  | Health_v2
  | Quit

let protocol_version = 2
let protocol_versions = [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line i (String.length line - i)) )

(* The same scalar coercion the CLI and REPL apply to NAME=VALUE
   parameters: an integer literal is an Int, everything else a Str. *)
let parse_scalar s =
  match int_of_string_opt s with
  | Some n -> R.Value.Int n
  | None -> R.Value.Str s

let parse_binding s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad binding %S (want NAME=VALUE)" s)
  | Some i ->
      let name = String.sub s 0 i in
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      if name = "" then Error (Printf.sprintf "bad binding %S: empty name" s)
      else Ok (name, parse_scalar value)

let parse_bindings s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_binding p with
        | Ok b -> go (b :: acc) rest
        | Error e -> Error e)
  in
  go [] parts

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* ------------------------------------------------------------------ *)
(* COMMIT_DELTA payloads                                               *)

(* A bare field is trimmed and coerced by [parse_scalar], so a value is
   written bare only when that reads it back as itself.  Anything else
   — empty, padded, carrying a delimiter, a quote or a newline, or a
   string that would read back as an Int — is quoted, with [""] for a
   quote inside; a quoted field always parses as [Str]. *)
let delimiters = ",;()\"\n"

let render_field v =
  let s = R.Value.to_string v in
  let quote =
    s = "" || String.trim s <> s
    || String.exists (fun c -> String.contains delimiters c) s
    || (match v with R.Value.Str _ -> int_of_string_opt s <> None | _ -> false)
  in
  if quote then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_delta d =
  String.concat ";"
    (List.concat_map
       (fun (rel, changes) ->
         List.map
           (fun (c : R.Delta.change) ->
             let sign, tuple =
               match c with Insert t -> ('+', t) | Delete t -> ('-', t)
             in
             Printf.sprintf "%c%s(%s)" sign rel
               (String.concat "," (List.map render_field (R.Tuple.to_list tuple))))
           changes)
       (R.Delta.changes d))

exception Bad_delta of int * string

(* A hand scanner rather than [split_on_char]: delimiters inside quoted
   fields are data.  Errors carry the byte offset within the payload. *)
let parse_delta s =
  let n = String.length s in
  let bad i fmt = Printf.ksprintf (fun m -> raise (Bad_delta (i, m))) fmt in
  let rec skip_ws i =
    if i < n && String.contains " \t\n\r\012" s.[i] then skip_ws (i + 1) else i
  in
  (* One field starting at [i]: its value and the offset just past it. *)
  let field i =
    let i = skip_ws i in
    if i < n && s.[i] = '"' then
      let buf = Buffer.create 16 in
      let rec quoted j =
        if j >= n then bad i "unterminated quoted field";
        match (s.[j], j + 1 < n && s.[j + 1] = '"') with
        | '"', true -> Buffer.add_char buf '"'; quoted (j + 2)
        | '"', false -> (R.Value.Str (Buffer.contents buf), skip_ws (j + 1))
        | c, _ -> Buffer.add_char buf c; quoted (j + 1)
      in
      quoted (i + 1)
    else
      let rec bare j =
        if j < n && not (String.contains delimiters s.[j]) then bare (j + 1)
        else j
      in
      let j = bare i in
      match String.trim (String.sub s i (j - i)) with
      | "" -> bad i "empty field (write \"\" for an empty string)"
      | raw -> (parse_scalar raw, j)
  in
  let rec fields acc i =
    let v, k = field i in
    match if k < n then s.[k] else ' ' with
    | ',' -> fields (v :: acc) (k + 1)
    | ')' -> (R.Tuple.make (List.rev (v :: acc)), k + 1)
    | _ when k >= n -> bad k "unterminated tuple (missing ')')"
    | c -> bad k "unexpected %C in tuple" c
  in
  let rec changes d i =
    let i = skip_ws i in
    if i >= n then d
    else if s.[i] = ';' then changes d (i + 1)
    else
      let open_ = Option.value (String.index_from_opt s i '(') ~default:n in
      if (s.[i] <> '+' && s.[i] <> '-') || open_ = n then
        bad i "bad change (want +Rel(v,...) or -Rel(v,...))";
      let rel = String.trim (String.sub s (i + 1) (open_ - i - 1)) in
      if rel = "" || String.exists (fun c -> String.contains delimiters c) rel
      then bad (i + 1) "bad relation name %S" rel;
      let tuple, k = fields [] (open_ + 1) in
      let k = skip_ws k in
      if k < n && s.[k] <> ';' then bad k "expected ';' between changes";
      let add = if s.[i] = '+' then R.Delta.insert else R.Delta.delete in
      changes (add d rel tuple) k
  in
  match changes R.Delta.empty 0 with
  | d when R.Delta.is_empty d -> Error "COMMIT_DELTA: empty delta"
  | d -> Ok d
  | exception Bad_delta (i, m) ->
      Error (Printf.sprintf "COMMIT_DELTA: %s at offset %d" m i)

(* The command table is shared by both protocol versions: the [V2]
   prefix is what a self-describing v2 client sends, but the commands
   it introduced are also accepted bare, and every v1 command is valid
   under the prefix ([v2] only selects the richer HEALTH report).
   [parse_request] stays total either way. *)
let parse_command ~v2 line =
  let cmd, rest = split_first line in
  match String.uppercase_ascii cmd with
  | "CITE" -> if rest = "" then Error "CITE: missing query" else Ok (Cite rest)
  | "CITE_BATCH" ->
      (* The batch wire form is multi-line ([CITE_BATCH n] then [n] query
         lines); a lone header reaching the single-line parser means the
         caller is not running the incremental {!Decoder}. *)
      Error
        "CITE_BATCH: multi-line request (header then n query lines) — only \
         framed connections accept it"
  | "CITE_PARAM" ->
      let view, kvs = split_first rest in
      if view = "" then Error "CITE_PARAM: missing view name"
      else
        Result.map
          (fun bindings -> Cite_param { view; bindings })
          (parse_bindings kvs)
  | "CITE_AT" -> (
      let v, query = split_first rest in
      if v = "" then Error "CITE_AT: missing version"
      else
        match int_of_string_opt v with
        | None -> Error (Printf.sprintf "CITE_AT: bad version %S" v)
        | Some version ->
            if query = "" then Error "CITE_AT: missing query"
            else Ok (Cite_at { version; query }))
  | "COMMIT_DELTA" ->
      if rest = "" then Error "COMMIT_DELTA: missing delta"
      else Result.map (fun d -> Commit_delta d) (parse_delta rest)
  | "VERSIONS" ->
      if rest = "" then Ok Versions else Error "VERSIONS takes no arguments"
  | "VERIFY" -> (
      let v, digest = split_first rest in
      if v = "" then Error "VERIFY: missing version"
      else
        match int_of_string_opt v with
        | None -> Error (Printf.sprintf "VERIFY: bad version %S" v)
        | Some version ->
            if digest = "" then Error "VERIFY: missing digest"
            else if String.contains digest ' ' then
              Error "VERIFY: digest must be a single token"
            else Ok (Verify { version; digest }))
  | "REGISTER" ->
      if rest = "" then Error "REGISTER: missing query" else Ok (Register rest)
  | "STATS" -> if rest = "" then Ok Stats else Error "STATS takes no arguments"
  | "HEALTH" ->
      if rest = "" then Ok (if v2 then Health_v2 else Health)
      else Error "HEALTH takes no arguments"
  | "QUIT" -> if rest = "" then Ok Quit else Error "QUIT takes no arguments"
  | other ->
      Error
        (Printf.sprintf
           "unknown command %S (want CITE, CITE_BATCH, CITE_PARAM, CITE_AT, \
            COMMIT_DELTA, VERSIONS, VERIFY, REGISTER, STATS, HEALTH or QUIT)"
           other)

let parse_request line =
  let line = String.trim (strip_cr line) in
  if line = "" then Error "empty request"
  else
    let cmd, rest = split_first line in
    if String.uppercase_ascii cmd = "V2" then
      if rest = "" then Error "V2: missing command"
      else parse_command ~v2:true rest
    else parse_command ~v2:false line

let render_request = function
  | Cite q -> "CITE " ^ q
  | Cite_batch qs ->
      (* Multi-line: the header then one query per line.  Only the
         incremental {!Decoder} re-parses this form. *)
      Printf.sprintf "CITE_BATCH %d\n%s" (List.length qs)
        (String.concat "\n" qs)
  | Cite_param { view; bindings } ->
      let kvs =
        String.concat ","
          (List.map (fun (n, v) -> n ^ "=" ^ R.Value.to_string v) bindings)
      in
      if kvs = "" then "CITE_PARAM " ^ view
      else Printf.sprintf "CITE_PARAM %s %s" view kvs
  | Cite_at { version; query } -> Printf.sprintf "V2 CITE_AT %d %s" version query
  | Commit_delta d -> "V2 COMMIT_DELTA " ^ render_delta d
  | Versions -> "V2 VERSIONS"
  | Verify { version; digest } -> Printf.sprintf "V2 VERIFY %d %s" version digest
  | Register q -> "V2 REGISTER " ^ q
  | Stats -> "STATS"
  | Health -> "HEALTH"
  | Health_v2 -> "V2 HEALTH"
  | Quit -> "QUIT"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (json_escape s)

(* Wire invariant: exactly one line per response.  [\n]s introduced by
   embedded renderers would break framing, so squash defensively. *)
let one_line s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let err_prefix = "ERR "

let error_line msg = err_prefix ^ obj [ ("error", jstr (one_line msg)) ]

(* Load shedding: the one ERR payload clients are expected to branch on
   (retry later), so it is a fixed token rather than prose. *)
let busy_line = error_line "BUSY"

let ok_cite ?version ?timestamp ?digest ?from_registration ~query ~expr
    ~citations ~complete ~tuples ~rewritings ~ms () =
  let stamp =
    (match version with
    | None -> []
    | Some v -> [ ("version", string_of_int v) ])
    @ (match timestamp with
      | None -> []
      | Some at -> [ ("timestamp", string_of_int at) ])
    @ (match digest with None -> [] | Some d -> [ ("digest", jstr d) ])
    @
    match from_registration with
    | None -> []
    | Some b -> [ ("from_registration", string_of_bool b) ]
  in
  one_line
    (obj
       ([
          ("ok", "true");
          ("query", jstr query);
          ("expr", jstr expr);
          ("citations", C.Fmt_citation.render C.Fmt_citation.Json citations);
          ("complete", string_of_bool complete);
          ("tuples", string_of_int tuples);
          ("rewritings", string_of_int rewritings);
        ]
       @ stamp
       @ [ ("ms", Printf.sprintf "%.3f" ms) ]))

let ok_commit ~version ~size ~registrations ~ms =
  obj
    [
      ("ok", "true");
      ("version", string_of_int version);
      ("size", string_of_int size);
      ("registrations", string_of_int registrations);
      ("ms", Printf.sprintf "%.3f" ms);
    ]

let ok_versions ~head ~versions =
  let entry (v, at) =
    obj
      ([ ("version", string_of_int v) ]
      @ match at with None -> [] | Some t -> [ ("timestamp", string_of_int t) ])
  in
  obj
    [
      ("ok", "true");
      ("head", string_of_int head);
      ("versions", "[" ^ String.concat "," (List.map entry versions) ^ "]");
    ]

let ok_verify ~version ~valid ~digest ~ms =
  obj
    [
      ("ok", "true");
      ("version", string_of_int version);
      ("valid", string_of_bool valid);
      ("digest", jstr digest);
      ("ms", Printf.sprintf "%.3f" ms);
    ]

let ok_register ~query ~ms =
  one_line
    (obj
       [
         ("ok", "true");
         ("registered", jstr query);
         ("ms", Printf.sprintf "%.3f" ms);
       ])

let ok_citation ~view ~citation ~ms =
  one_line
    (obj
       [
         ("ok", "true");
         ("view", jstr view);
         ( "citation",
           C.Fmt_citation.render_citation C.Fmt_citation.Json citation );
         ("ms", Printf.sprintf "%.3f" ms);
       ])

let ok_stats ~stats_json = obj [ ("ok", "true"); ("stats", stats_json) ]

let ok_health ?version ?data_dir ?wal_enabled ?last_snapshot_version
    ?capabilities ~uptime_s ~views ~relations ~tuples () =
  obj
    ([
       ("ok", "true");
       ("status", jstr "serving");
       (* Protocol handshake: what the server speaks, and every version
          it still accepts. *)
       ("protocol", string_of_int protocol_version);
       ( "protocols",
         "["
         ^ String.concat "," (List.map string_of_int protocol_versions)
         ^ "]" );
       ("uptime_s", Printf.sprintf "%.1f" uptime_s);
       ("views", string_of_int views);
       ("relations", string_of_int relations);
       ("tuples", string_of_int tuples);
     ]
    @ (match version with
      | None -> []
      | Some v -> [ ("head_version", string_of_int v) ])
    (* Durability report (v2 HEALTH only — v1 output must stay
       byte-identical, so every field below is opt-in). *)
    @ (match data_dir with None -> [] | Some d -> [ ("data_dir", jstr d) ])
    @ (match wal_enabled with
      | None -> []
      | Some b -> [ ("wal_enabled", string_of_bool b) ])
    @ (match last_snapshot_version with
      | None -> []
      | Some v -> [ ("last_snapshot_version", string_of_int v) ])
    @
    (* Capability report (v2 HEALTH only, like the durability fields). *)
    match (capabilities : C.Citer.capabilities option) with
    | None -> []
    | Some c ->
        [
          ("backend", jstr c.backend);
          ("shards", string_of_int c.shards);
          ("supports_versions", string_of_bool c.supports_versions);
          ("supports_recursion", string_of_bool c.supports_recursion);
        ])

let ok_bye = obj [ ("ok", "true"); ("bye", "true") ]

let classify_response line =
  let line = strip_cr line in
  let starts_with p =
    String.length line >= String.length p
    && String.sub line 0 (String.length p) = p
  in
  if starts_with err_prefix then
    `Err (String.sub line 4 (String.length line - 4))
  else if starts_with "{" then `Ok line
  else `Malformed

let is_busy_response line =
  match classify_response line with
  | `Err payload -> payload = obj [ ("error", jstr "BUSY") ]
  | `Ok _ | `Malformed -> false

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                 *)

module Decoder = struct
  type item = (request, string) result

  type t = {
    buf : Buffer.t;  (** the partial line not yet terminated by [\n] *)
    max_line_bytes : int;
    max_batch : int;
    mutable skipping : bool;
        (** an oversized line was rejected; discard bytes up to the next
            [\n] so framing resynchronizes on the line after it *)
    mutable batch : (int * string list) option;
        (** a [CITE_BATCH n] header was consumed: queries still missing,
            queries collected so far (reversed) *)
  }

  let create ?(max_line_bytes = 1 lsl 16) ?(max_batch = 1024) () =
    if max_line_bytes < 1 then invalid_arg "Decoder.create: max_line_bytes < 1";
    if max_batch < 1 then invalid_arg "Decoder.create: max_batch < 1";
    {
      buf = Buffer.create 256;
      max_line_bytes;
      max_batch;
      skipping = false;
      batch = None;
    }

  let pending_bytes t = Buffer.length t.buf
  let in_batch t = t.batch <> None

  (* Like {!parse_request}, the header is recognized through an optional
     [V2] prefix. *)
  let batch_header line =
    let line = String.trim (strip_cr line) in
    let cmd, rest = split_first line in
    let cmd, rest =
      if String.uppercase_ascii cmd = "V2" then split_first rest
      else (cmd, rest)
    in
    if String.uppercase_ascii cmd = "CITE_BATCH" then Some (String.trim rest)
    else None

  (* One complete line (no [\n]).  [None] = the line was consumed into
     batch state and produced no item yet. *)
  let on_line t line =
    match t.batch with
    | Some (missing, qs) ->
        let q = String.trim (strip_cr line) in
        if q = "" then begin
          (* An empty query line can only be a client bug; abandoning the
             batch here keeps the next line a fresh command instead of
             silently mis-counting. *)
          t.batch <- None;
          Some (Error "CITE_BATCH: empty query line")
        end
        else if missing = 1 then begin
          t.batch <- None;
          Some (Ok (Cite_batch (List.rev (q :: qs))))
        end
        else begin
          t.batch <- Some (missing - 1, q :: qs);
          None
        end
    | None -> (
        match batch_header line with
        | None -> Some (parse_request line)
        | Some count -> (
            match int_of_string_opt count with
            | None ->
                Some (Error (Printf.sprintf "CITE_BATCH: bad count %S" count))
            | Some n when n < 1 ->
                Some (Error "CITE_BATCH: count must be >= 1")
            | Some n when n > t.max_batch ->
                Some
                  (Error
                     (Printf.sprintf
                        "CITE_BATCH: count %d exceeds the batch limit %d" n
                        t.max_batch))
            | Some n ->
                t.batch <- Some (n, []);
                None))

  let feed_sub t data ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Decoder.feed_sub";
    let acc = ref [] in
    for i = pos to pos + len - 1 do
      match Bytes.get data i with
      | '\n' ->
          if t.skipping then begin
            t.skipping <- false;
            Buffer.clear t.buf
          end
          else begin
            let line = Buffer.contents t.buf in
            Buffer.clear t.buf;
            match on_line t line with
            | Some item -> acc := item :: !acc
            | None -> ()
          end
      | c ->
          if not t.skipping then begin
            Buffer.add_char t.buf c;
            if Buffer.length t.buf > t.max_line_bytes then begin
              (* Reject now rather than buffering an unbounded line; the
                 rest of the line is discarded up to its [\n].  A batch
                 being collected cannot survive losing a line. *)
              t.skipping <- true;
              Buffer.clear t.buf;
              t.batch <- None;
              acc := Error "request line too long" :: !acc
            end
          end
    done;
    List.rev !acc

  let feed t s =
    feed_sub t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
end
