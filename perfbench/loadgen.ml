(* Closed-loop load generator: each connection sends its next request
   only after the previous answer arrived.  One thread drives every
   connection through select(2), so the generator itself stays light on
   the cores the server runs on.

   Everything it learns goes into files under [out]:
   - samples.tsv: class, completion time (s since start), latency (ms),
     finer kind and the server's own time (ms, -1 if the answer has none)
     of every request answered successfully;
   - pairs.tsv:   request, response with its "ms" field removed, count —
     every distinct answer, for the post-run correctness check;
   - failed.tsv:  request and answer of every answer judged a failure;
   - outcome.txt: key value lines (counts of each failure kind, elapsed
     time, acknowledged versions and the digests seen for them). *)

module W = Workload

type outcome = Ok_ | Err | Busy | Malformed | Wrong

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable pending : (string * float) option;  (** request, send time *)
  mutable alive : bool;
}

let busy_line = "ERR {\"error\":\"BUSY\"}"

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let matches_at s i sub =
  let m = String.length sub in
  let rec eq k = k = m || (s.[i + k] = sub.[k] && eq (k + 1)) in
  i >= 0 && i + m <= String.length s && eq 0

let find_sub ?(from = 0) s sub =
  let rec go i =
    if i + String.length sub > String.length s then None
    else if matches_at s i sub then Some i
    else go (i + 1)
  in
  go from

(* The server appends ,"ms":<float> as the last field of every timed
   answer; it is the only field that differs between two correct
   answers. *)
let strip_ms line =
  let rec back i =
    if i < 0 then line
    else if matches_at line i ",\"ms\":" then String.sub line 0 i ^ "}"
    else back (i - 1)
  in
  back (String.length line - 1)

(* The integer after "key": in a one-line JSON answer. *)
let int_field line key =
  match find_sub line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
      let j = i + String.length key + 3 in
      let k = ref j in
      while !k < String.length line && (line.[!k] = '-' || (line.[!k] >= '0' && line.[!k] <= '9')) do incr k done;
      int_of_string_opt (String.sub line j (!k - j))

let str_field line key =
  match find_sub line ("\"" ^ key ^ "\":\"") with
  | None -> None
  | Some i ->
      let j = i + String.length key + 4 in
      Option.map (fun k -> String.sub line j (k - j)) (String.index_from_opt line j '"')

let now = Dc_clock.Monotonic.now_s

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; inbuf = Buffer.create 65536; pending = None; alive = true }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0;
  c.pending <- Some (line, now ())

(* Take the first complete line out of [c.inbuf], if there is one. *)
let take_line c =
  let data = Buffer.contents c.inbuf in
  match String.index_opt data '\n' with
  | None -> None
  | Some j ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf (String.sub data (j + 1) (String.length data - j - 1));
      Some (String.sub data 0 j)

(* One request/response exchange outside the measured loop. *)
let call c line =
  send c line;
  c.pending <- None;
  let chunk = Bytes.create 65536 in
  let rec go () =
    match take_line c with
    | Some l -> l
    | None ->
        let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "server closed the connection";
        Buffer.add_subbytes c.inbuf chunk 0 n;
        go ()
  in
  go ()

type state = {
  samples : Buffer.t;
  failed : Buffer.t;  (** request and answer of each failed request *)
  pairs : (string, (string, int ref) Hashtbl.t) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable t0 : float;  (** start of the timed part of the run *)
}

let count st k = match Hashtbl.find_opt st.counts k with
  | Some r -> incr r | None -> Hashtbl.add st.counts k (ref 1)

let get st k = match Hashtbl.find_opt st.counts k with Some r -> !r | None -> 0

let record_pair st req resp =
  let tbl = match Hashtbl.find_opt st.pairs req with
    | Some t -> t
    | None -> let t = Hashtbl.create 2 in Hashtbl.add st.pairs req t; t in
  match Hashtbl.find_opt tbl resp with
  | Some r -> incr r
  | None -> Hashtbl.add tbl resp (ref 1)

let classify line =
  if line = busy_line then Busy
  else if starts_with "ERR " line then Err
  else if starts_with "{\"ok\":true" line then Ok_
  else Malformed

let outcome_name = function
  | Ok_ -> "ok" | Err -> "err" | Busy -> "busy" | Malformed -> "malformed"
  | Wrong -> "wrong"

let request_class req =
  if starts_with "V2 COMMIT_DELTA" req then "commit"
  else if starts_with "CITE" req || starts_with "V2 CITE_AT" req then "cite"
  else "other"

(* A finer request kind, for the per-kind breakdown run.py prints. *)
let request_kind req line =
  if starts_with "CITE_PARAM" req then "param"
  else if starts_with "V2 CITE_AT" req then
    if find_sub line "\"from_registration\":true" <> None then "cite_at_reg" else "cite_at"
  else if starts_with "CITE" req then
    if find_sub req "Family(" = None then "intro"
    else if find_sub req "FamilyIntro(" <> None then "join"
    else "family"
  else if starts_with "V2 COMMIT_DELTA" req then "commit"
  else if starts_with "V2 VERSIONS" req then "versions"
  else if starts_with "V2 VERIFY" req then "verify"
  else "other"

(* The server's own time for the request: the "ms" field, or -1. *)
let server_ms line =
  match find_sub line ",\"ms\":" with
  | None -> -1.
  | Some i ->
      let j = i + 6 in
      let k = ref j in
      while !k < String.length line && String.contains "0123456789.e-+" line.[!k] do incr k done;
      Option.value ~default:(-1.) (float_of_string_opt (String.sub line j (!k - j)))

type next = Send of string | Wait_until of float | Done

(* Drive [conns] until every connection is [Done] and nothing is in
   flight.  [next i] is connection [i]'s next step; [on_answer i req
   line] judges an answer. *)
let drive st conns ~next ~on_answer ~timeout_s =
  let chunk = Bytes.create 65536 in
  let wake = Array.make (Array.length conns) None in
  let issue i c =
    if c.alive && c.pending = None then
      match next i with
      | Send req -> wake.(i) <- None; send c req
      | Wait_until t -> wake.(i) <- Some t
      | Done -> wake.(i) <- None
  in
  let answered i c line =
    let req, sent = Option.get c.pending in
    let t = now () in
    c.pending <- None;
    let o = on_answer i req line in
    count st (outcome_name o);
    if o = Ok_ then
      Printf.bprintf st.samples "%s\t%.6f\t%.6f\t%s\t%.6f\n" (request_class req)
        (t -. st.t0) ((t -. sent) *. 1000.) (request_kind req line) (server_ms line)
    else Printf.bprintf st.failed "%s\t%s\n" req line
  in
  let rec loop () =
    Array.iteri (fun i c -> if wake.(i) <> None || c.pending = None then issue i c) conns;
    let waiting = List.filter (fun c -> c.alive && c.pending <> None) (Array.to_list conns) in
    let next_wake = Array.fold_left (fun m w -> match w with Some t -> Float.min m t | None -> m) infinity wake in
    if waiting <> [] || next_wake < infinity then begin
      let timeout = Float.max 0. (Float.min 1.0 (next_wake -. now ())) in
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) waiting) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iteri
        (fun i c ->
          if List.mem c.fd ready then begin
            let n = try Unix.read c.fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
            if n = 0 then begin
              c.alive <- false;
              if c.pending <> None then count st "dropped"
            end
            else begin
              Buffer.add_subbytes c.inbuf chunk 0 n;
              (* closed loop: at most one answer is ever outstanding *)
              Option.iter (answered i c) (take_line c)
            end
          end
          else
            match c.pending with
            | Some (_, sent) when now () -. sent > timeout_s ->
                c.alive <- false;
                count st "dropped"
            | _ -> ())
        conns;
      loop ()
    end
  in
  loop ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let finish st ~out ~extra =
  write_file (Filename.concat out "samples.tsv") (Buffer.contents st.samples);
  write_file (Filename.concat out "failed.tsv") (Buffer.contents st.failed);
  let b = Buffer.create 65536 in
  Hashtbl.iter
    (fun req tbl -> Hashtbl.iter (fun resp n -> Printf.bprintf b "%s\t%s\t%d\n" req resp !n) tbl)
    st.pairs;
  write_file (Filename.concat out "pairs.tsv") (Buffer.contents b);
  let b = Buffer.create 256 in
  List.iter (fun k -> Printf.bprintf b "%s %d\n" k (get st k))
    [ "ok"; "err"; "busy"; "malformed"; "wrong"; "dropped"; "sent" ];
  List.iter (fun (k, v) -> Printf.bprintf b "%s %s\n" k v) extra;
  write_file (Filename.concat out "outcome.txt") (Buffer.contents b)

let run kind ~seed ~port ~seconds ~connections ~out =
  let st = { samples = Buffer.create (1 lsl 20); failed = Buffer.create 256; pairs = Hashtbl.create 4096;
             counts = Hashtbl.create 16; t0 = now () } in
  let deadline () = now () -. st.t0 >= seconds in
  let sent () = count st "sent" in
  match kind with
  | W.Landing | W.Lookup ->
      let conns = Array.init connections (fun _ -> connect port) in
      let stream = W.read_stream kind ~seed in
      let on_answer _ req line =
        match classify line with
        | Ok_ -> record_pair st req (strip_ms line); Ok_
        | o -> o
      in
      (* Warm-up: the stream's first requests fill the server's caches
         untimed.  A fixed count, so the timed part starts from the same
         state however fast the machine is; the answers are still
         checked and counted. *)
      let warm = ref (W.warmup_requests kind) in
      let next _ = if !warm = 0 then Done else (decr warm; sent (); Send (stream ())) in
      drive st conns ~next ~on_answer ~timeout_s:60.;
      Buffer.clear st.samples;
      st.t0 <- now ();
      let next _ = if deadline () then Done else (sent (); Send (stream ())) in
      drive st conns ~next ~on_answer ~timeout_s:60.;
      let elapsed = now () -. st.t0 in
      Array.iter (fun c -> Unix.close c.fd) conns;
      finish st ~out ~extra:[ ("elapsed_s", Printf.sprintf "%.6f" elapsed) ]
  | W.Curate ->
      let writer = connect port and reader = connect port in
      let reg = call writer ("V2 REGISTER " ^ W.registered_query) in
      if classify reg <> Ok_ then failwith ("REGISTER refused: " ^ reg);
      let db = W.dataset W.Curate ~seed in
      let deltas = ref (W.curate_deltas db ~seed ~count:W.curate_commits) in
      let acked = ref 0 and writer_done = ref nan and commits = ref 0 in
      let digests = Hashtbl.create 128 in
      let known = ref [||] in
      let ops = W.reader_stream ~seed in
      let head_at_send = ref 0 in
      (* The writer is paced: commit i is due i * seconds / commits after
         the start, so the reader sees the same write pressure throughout
         the run.  It still waits for each acknowledgement (closed loop)
         and falls behind the schedule when commits are slow. *)
      let pace = seconds /. float_of_int W.curate_commits in
      let next i =
        if i = 0 then
          match !deltas with
          | d :: rest ->
              let due = st.t0 +. (float_of_int !commits *. pace) in
              if now () < due then Wait_until due
              else begin
                deltas := rest;
                incr commits;
                sent ();
                Send ("V2 COMMIT_DELTA " ^ Dc_server.Protocol.render_delta d)
              end
          | [] -> Done
        else if deadline () && !deltas = [] then Done
        else begin
          sent ();
          head_at_send := !acked;
          let cite_at v q = Printf.sprintf "V2 CITE_AT %d %s" v q in
          Send
            (match ops () with
            | W.Cite_head -> cite_at !acked W.registered_query
            | W.Cite_history { back; query } -> cite_at (max 0 (!acked - back)) query
            | W.Versions -> "V2 VERSIONS"
            | W.Verify n when Array.length !known > 0 ->
                let v = !known.(n mod Array.length !known) in
                Printf.sprintf "V2 VERIFY %d %s" v (Hashtbl.find digests v)
            | W.Verify _ -> cite_at !acked W.registered_query)
        end
      in
      let on_answer i req line =
        match classify line with
        | Ok_ when i = 0 ->
            if int_field line "version" = Some (!acked + 1) then begin
              incr acked;
              if !deltas = [] then writer_done := now () -. st.t0;
              Ok_
            end
            else Wrong
        | Ok_ when starts_with "V2 CITE_AT" req -> (
            match (int_field line "version", str_field line "digest") with
            | Some v, Some d -> (
                record_pair st req (strip_ms line);
                match Hashtbl.find_opt digests v with
                | Some d' when d' <> d -> Wrong
                | Some _ -> Ok_
                | None ->
                    Hashtbl.add digests v d;
                    known := Array.append !known [| v |];
                    Ok_)
            | _ -> Wrong)
        | Ok_ when req = "V2 VERSIONS" -> (
            (* every version 0..n is listed, n at least the last
               acknowledged one *)
            let n = ref 0 and pos = ref 0 in
            while
              match find_sub ~from:!pos line (Printf.sprintf "{\"version\":%d," !n) with
              | Some k -> incr n; pos := k + 1; true
              | None -> false
            do () done;
            match int_field line "head" with
            | Some h when !n > !head_at_send && h >= !n - 1 ->
                (* The server reads the head and the version list in two
                   steps, so a commit between them leaves the head ahead
                   of the list.  Counted apart; not a wrong answer. *)
                if h > !n - 1 then count st "versions_head_ahead";
                Ok_
            | _ -> Wrong)
        | Ok_ -> if find_sub line "\"valid\":true" <> None then Ok_ else Wrong
        | o -> o
      in
      drive st [| writer; reader |] ~next ~on_answer ~timeout_s:60.;
      let elapsed = now () -. st.t0 in
      Unix.close writer.fd;
      Unix.close reader.fd;
      finish st ~out
        ~extra:
          ([ ("elapsed_s", Printf.sprintf "%.6f" elapsed);
             ("writer_s", Printf.sprintf "%.6f" !writer_done);
             ("acked", string_of_int !acked);
             ("versions_head_ahead", string_of_int (get st "versions_head_ahead")) ]
          @ Hashtbl.fold (fun v d acc -> (Printf.sprintf "digest_%d" v, d) :: acc) digests [])
