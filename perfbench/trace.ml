(* The traced run: the workload's seeded stream replayed in-process on one
   thread, with no server, through the same public calls the server
   makes.  A span is recorded around each call; spans are kept in memory
   and written to spans.tsv at exit, and layers.tsv gets one line per
   per-layer metric (p50, p99, share of the in-process total, count).

   Calls the server makes inside one public function (evaluation and
   citation construction inside Engine.cite; apply_head, WAL append and
   incremental maintenance inside Versioned_engine.commit_delta) cannot
   be timed from outside.  They are re-run beside the parent call on the
   same inputs, under a separate "beside" root span, so they never count
   towards the in-process request total. *)

module C = Dc_citation
module R = Dc_relational
module P = Dc_server.Protocol
module S = Dc_storage.Store
module W = Workload

let now = Dc_clock.Monotonic.now_s

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  name : string;
  req : int;  (** request id; -1 for set-up work *)
  parent : int;  (** span id; -1 for a root *)
  start : float;
  mutable stop : float;
  mutable calls : int;  (** calls an aggregated span stands for *)
}

let spans : span array ref = ref [||]
let n_spans = ref 0
let stack = ref []
let cur_req = ref (-1)

(* Values recorded beside the spans: response bytes, answer tuples... *)
let values : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let value name v =
  match Hashtbl.find_opt values name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add values name (ref [ v ])

let open_span name =
  if !n_spans = Array.length !spans then
    spans :=
      Array.append !spans
        (Array.make (max 1024 !n_spans)
           { name = ""; req = 0; parent = 0; start = 0.; stop = 0.; calls = 0 });
  let id = !n_spans in
  incr n_spans;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  !spans.(id) <- { name; req = !cur_req; parent; start = now (); stop = 0.; calls = 1 };
  id

let span name f =
  let id = open_span name in
  stack := id :: !stack;
  Fun.protect f ~finally:(fun () ->
      !spans.(id).stop <- now ();
      stack := List.tl !stack)

(* A child standing for [calls] calls that took [dur] seconds in all. *)
let aggregate name ~dur ~calls =
  let id = open_span name in
  let s = !spans.(id) in
  s.stop <- s.start +. dur;
  s.calls <- calls

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "id\tname\treq\tparent\tstart_s\tstop_s\tcalls\n";
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\t%d\n" i s.name s.req s.parent
      s.start s.stop s.calls
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Replaying one read                                                   *)

let ok = function Ok x -> x | Error e -> failwith e

(* What Engine.cite does after the plan lookup, re-run beside it: the
   evaluation of the selected rewritings, then per-tuple construction
   with a counting wrapper around the engine's leaf resolver. *)
let beside_cite e query (r : C.Engine.result) ~missed =
  span "beside" @@ fun () ->
  if missed then
    span "rewriting.search" (fun () ->
        ignore
          (Dc_rewriting.Rewrite.search
             (C.Citation_view.Set.view_set (C.Engine.citation_views e))
             (Dc_cq.Query.strip_params query)));
  let selected = if r.selected = [] then [ Dc_cq.Query.strip_params query ] else r.selected in
  let per_tuple =
    span "cq.eval" @@ fun () ->
    let db = C.Engine.merged_database e in
    List.fold_left
      (fun m rw ->
        List.fold_left
          (fun m (tuple, bindings) ->
            let prev = Option.value ~default:[] (R.Tuple.Map.find_opt tuple m) in
            R.Tuple.Map.add tuple ((rw, bindings) :: prev) m)
          m
          (Dc_cq.Eval.run ~cache:(C.Engine.eval_cache e) db rw))
      R.Tuple.Map.empty selected
  in
  value "cq.answer_tuples" (float_of_int (R.Tuple.Map.cardinal per_tuple));
  span "citation.construct" @@ fun () ->
  let leaf_s = ref 0. and leaf_n = ref 0 in
  let resolve l =
    let t0 = now () in
    let c = C.Engine.resolve_leaf e l in
    leaf_s := !leaf_s +. (now () -. t0);
    incr leaf_n;
    c
  in
  let cviews = C.Engine.citation_views e and policy = C.Engine.policy e in
  let exprs =
    R.Tuple.Map.fold
      (fun _ contribs acc ->
        let expr = C.Cite_expr.normalize (C.Compute.tuple_expr cviews (List.rev contribs)) in
        ignore (C.Policy.eval ~resolve policy expr);
        expr :: acc)
      per_tuple []
  in
  let result = C.Cite_expr.normalize (C.Compute.result_expr (List.rev exprs)) in
  ignore (C.Policy.eval ~resolve policy result);
  aggregate "citation.resolve_leaf" ~dur:!leaf_s ~calls:!leaf_n

let encode f =
  span "server.encode" @@ fun () ->
  let line = f () in
  value "server.response_bytes" (float_of_int (String.length line + 1));
  line

let cite_response ?version ?timestamp ?digest ?from_registration q (r : C.Engine.result) =
  encode (fun () -> Expect.cite_line ?version ?timestamp ?digest ?from_registration q r)

let decode line = span "server.decode" (fun () -> ok (P.parse_request line))

let plan_misses e = C.Metrics.count (C.Engine.metrics e) C.Metrics.Key.plan_cache_misses

(* One request of landing or lookup; returns the request span's class. *)
let replay_read e line =
  match decode line with
  | P.Cite q ->
      let query = span "cq.parse" (fun () -> Dc_cq.Parser.parse_query_exn q) in
      let before = plan_misses e in
      let r = span "citation.cite" (fun () -> C.Engine.cite e query) in
      ignore (cite_response q r);
      `Cite (query, r, plan_misses e > before)
  | P.Cite_param { view; bindings } ->
      let c = span "citation.resolve_leaf" (fun () ->
          C.Engine.resolve_leaf e { view; params = bindings }) in
      ignore (encode (fun () -> P.ok_citation ~view ~citation:c ~ms:0.));
      `Other
  | _ -> failwith ("unexpected request " ^ line)

(* Request spans with the line each replays, for the per-class p50. *)
let request_lines = ref []

let request line f =
  request_lines := (!n_spans, line) :: !request_lines;
  span "request" (fun () -> f line)

(* ------------------------------------------------------------------ *)
(* Replaying the write path                                             *)

type curate = {
  ve : C.Versioned_engine.t;
  store : S.t;
  side_store : S.t;  (** the WAL the beside append_commit writes to *)
  mutable side_reg : C.Incremental.t;  (** the beside registration *)
  mutable acked : int;
  digests : (int, string) Hashtbl.t;
  mutable known : int array;
  mutable fsyncs : int;
}

let fresh_dir d =
  if Sys.file_exists d then ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; d ]));
  Sys.mkdir d 0o755

let open_store dir db =
  fresh_dir dir;
  fst (ok (S.open_ ~digest:C.Fixity.digest_db ~fsync:S.Always ~mode:S.Full ~dir ~db ()))

let start_curate ~db ~views ~out =
  let e = C.Engine.create db views in
  let ve = C.Versioned_engine.of_engine ~capacity:4 e in
  let store = open_store (Filename.concat out "trace-store") db in
  C.Versioned_engine.set_durability ve store;
  let reg = Dc_cq.Parser.parse_query_exn W.registered_query in
  ok (C.Versioned_engine.register ve reg);
  let side_engine = C.Engine.create db views in
  {
    ve; store;
    side_store = open_store (Filename.concat out "trace-side-store") db;
    side_reg = C.Incremental.register side_engine reg;
    acked = 0; digests = Hashtbl.create 64; known = [||]; fsyncs = 0;
  }

let fsync_count () = C.Metrics.count C.Metrics.default C.Metrics.Key.wal_fsyncs

let replay_commit c ~shards delta =
  let line = "V2 COMMIT_DELTA " ^ P.render_delta delta in
  let pre = C.Versioned_engine.store c.ve in
  request line (fun line ->
      let delta = match decode line with P.Commit_delta d -> d | _ -> assert false in
      let f0 = fsync_count () in
      let v = span "citation.commit" (fun () -> ok (C.Versioned_engine.commit_delta c.ve delta)) in
      c.fsyncs <- c.fsyncs + fsync_count () - f0;
      span "citation.shard_refresh" (fun () ->
          let head = ok (C.Versioned_engine.engine_at c.ve v) in
          ignore (C.Sharded_engine.of_engine ~shards head));
      ignore (encode (fun () ->
          P.ok_commit ~version:v ~size:(R.Delta.size delta)
            ~registrations:(List.length (C.Versioned_engine.registrations c.ve)) ~ms:0.));
      c.acked <- v);
  span "beside" (fun () ->
      let new_base = span "relational.apply_head" (fun () -> R.Version_store.apply_head pre delta) in
      let at = Option.get (C.Versioned_engine.timestamp c.ve c.acked) in
      span "storage.wal_append" (fun () -> ok (S.append_commit c.side_store ~version:c.acked ~at delta));
      span "citation.incremental" (fun () ->
          c.side_reg <- C.Incremental.apply_delta ~new_base c.side_reg delta))

let replay_reader c op =
  let cite_at v q = Printf.sprintf "V2 CITE_AT %d %s" v q in
  let line =
    match (op : W.reader_op) with
    | W.Cite_head -> cite_at c.acked W.registered_query
    | W.Cite_history { back; query } -> cite_at (max 0 (c.acked - back)) query
    | W.Versions -> "V2 VERSIONS"
    | W.Verify n when Array.length c.known > 0 ->
        let v = c.known.(n mod Array.length c.known) in
        Printf.sprintf "V2 VERIFY %d %s" v (Hashtbl.find c.digests v)
    | W.Verify _ -> cite_at c.acked W.registered_query
  in
  let new_digest = ref None and fresh = ref None in
  request line (fun line ->
      match decode line with
      | P.Cite_at { version; query = q } ->
          let query = span "cq.parse" (fun () -> Dc_cq.Parser.parse_query_exn q) in
          if not (List.mem version (C.Versioned_engine.cached_versions c.ve)) then
            span "citation.version_materialize" (fun () ->
                ignore (ok (C.Versioned_engine.engine_at c.ve version)));
          let e = ok (C.Versioned_engine.engine_at c.ve version) in
          let before = plan_misses e in
          let cited =
            span "citation.cite" (fun () -> ok (C.Versioned_engine.cite_at c.ve version query))
          in
          ignore
            (cite_response ~version ?timestamp:cited.timestamp ~digest:cited.digest
               ~from_registration:cited.from_registration q cited.result);
          if not (Hashtbl.mem c.digests version) then begin
            Hashtbl.add c.digests version cited.digest;
            c.known <- Array.append c.known [| version |];
            new_digest := Some version
          end;
          if not cited.from_registration then
            fresh := Some (e, query, cited.result, plan_misses e > before)
      | P.Versions ->
          let v = c.ve in
          ignore (encode (fun () ->
              P.ok_versions ~head:(C.Versioned_engine.head v)
                ~versions:(List.map (fun x -> (x, C.Versioned_engine.timestamp v x))
                             (C.Versioned_engine.versions v))))
      | P.Verify { version; digest } ->
          let valid = ok (C.Versioned_engine.verify c.ve version digest) in
          ignore (encode (fun () -> P.ok_verify ~version ~valid ~digest ~ms:0.))
      | _ -> failwith ("unexpected request " ^ line));
  Option.iter
    (fun v ->
      span "beside" (fun () ->
          span "citation.fixity_digest" (fun () ->
              ignore (C.Fixity.digest_db
                        (R.Version_store.checkout_exn (C.Versioned_engine.store c.ve) v)))))
    !new_digest;
  Option.iter (fun (e, query, r, missed) -> beside_cite e query r ~missed) !fresh

(* Commits replayed even when the time is already up. *)
let probe_commits = 8

(* Commits with [reads_per_commit] reader ops after each, until the
   commits run out or the time is up (but at least [probe_commits]). *)
let replay_curate c ~db ~seed ~commits ~reads_per_commit ~until ~shards =
  let ops = W.reader_stream ~seed in
  let deltas = W.curate_deltas db ~seed ~count:commits in
  let rec go = function
    | d :: rest when now () < until || c.acked < probe_commits ->
        incr cur_req;
        replay_commit c ~shards d;
        for _ = 1 to reads_per_commit do
          incr cur_req;
          replay_reader c (ops ())
        done;
        go rest
    | _ -> ()
  in
  go deltas

(* The write-path probe of landing and lookup: a few commits, then one
   history cite of every version, so materialization and digests are
   measured too. *)
let probe c ~db ~seed ~shards =
  replay_curate c ~db ~seed ~commits:probe_commits ~reads_per_commit:3 ~until:0. ~shards;
  for v = 0 to c.acked - 1 do
    incr cur_req;
    replay_reader c (W.Cite_history { back = c.acked - v; query = W.history_queries.(v mod 2) })
  done

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)

let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.round ((p /. 100. *. float n) +. 0.5)) - 1)))

let summarize ~out ~extra =
  let children = Array.make !n_spans 0. in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then children.(s.parent) <- children.(s.parent) +. (s.stop -. s.start)
  done;
  let by_name = Hashtbl.create 32 in
  let total = ref 0. in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    let d = s.stop -. s.start in
    if s.name = "request" then total := !total +. d;
    let durs, self, calls =
      match Hashtbl.find_opt by_name s.name with
      | Some x -> x
      | None -> let x = (ref [], ref 0., ref 0) in Hashtbl.add by_name s.name x; x
    in
    durs := (d *. 1000.) :: !durs;
    self := !self +. (d -. children.(i));
    calls := !calls + s.calls
  done;
  let oc = open_out_bin (Filename.concat out "layers.tsv") in
  Printf.fprintf oc "name\tp50\tp99\tshare\tcount\n";
  Hashtbl.iter
    (fun name (durs, self, calls) ->
      let a = Array.of_list !durs in
      Array.sort compare a;
      Printf.fprintf oc "%s\t%.6f\t%.6f\t%.6f\t%d\n" name (pct a 50.) (pct a 99.)
        (if !total > 0. then !self /. !total else nan) !calls)
    by_name;
  Hashtbl.iter
    (fun name l ->
      let a = Array.of_list !l in
      Array.sort compare a;
      Printf.fprintf oc "%s\t%.6f\t%.6f\t%s\t%d\n" name (pct a 50.) (pct a 99.) "nan" (Array.length a))
    values;
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%.6f\tnan\tnan\t1\n" k v) extra;
  close_out oc

(* In-process p50 of the request spans whose line starts with one of
   [prefixes] — compared with the client's p50 for the same class. *)
let request_p50 lines prefixes =
  let a =
    List.filter_map
      (fun (i, line) ->
        if List.exists (fun p -> Loadgen.starts_with p line) prefixes then
          let s = !spans.(i) in Some ((s.stop -. s.start) *. 1000.)
        else None)
      lines
    |> Array.of_list
  in
  Array.sort compare a;
  pct a 50.

(* Enough samples for every layer's p99, few enough that the spans of a
   cheap workload (lookup replays ~20k requests a second) stay small. *)
let max_reads = 20_000

let run kind ~seed ~data ~seconds ~reads_per_commit ~recovery ~out =
  let db = ok (C.Spec.load_database ~dir:data) in
  let views =
    ok (C.Spec.parse_views (ok (R.Csv_io.read_file (Filename.concat data "views.spec"))))
  in
  let shards = Dc_parallel.Domain_pool.available_cores () in
  let e =
    List.hd
      (List.init 3 (fun _ -> span "citation.materialize" (fun () -> C.Engine.create db views)))
  in
  let until = now () +. seconds in
  let c = start_curate ~db ~views ~out in
  (match kind with
  | W.Landing | W.Lookup ->
      let next = W.read_stream kind ~seed in
      let replayed = ref 0 in
      while now () < until && !replayed < max_reads do
        incr replayed;
        incr cur_req;
        match request (next ()) (replay_read e) with
        | `Cite (query, r, missed) -> beside_cite e query r ~missed
        | `Other -> ()
      done;
      (* The write path is not part of these workloads' traffic; a short
         probe over the workload's own dataset still measures every
         layer on every workload. *)
      probe c ~db:(W.dataset kind ~seed) ~seed ~shards
  | W.Curate ->
      replay_curate c ~db:(W.dataset kind ~seed) ~seed ~commits:W.curate_commits
        ~reads_per_commit ~until ~shards);
  S.close c.store;
  S.close c.side_store;
  let m = C.Versioned_engine.metrics c.ve in
  let hits = C.Metrics.count m C.Metrics.Key.version_cache_hits in
  let misses = C.Metrics.count m C.Metrics.Key.version_cache_misses in
  let replayed = ref 0 in
  List.iter
    (fun dir ->
      span "storage.recovery_replay" (fun () ->
          match S.open_ ~digest:C.Fixity.digest_db ~mode:S.Full ~dir ~db () with
          | Ok (st, r) ->
              replayed := Option.fold ~none:0 ~some:(fun r -> r.S.replayed) r;
              S.close st
          | Error e -> failwith e))
    (if recovery = [] then [ Filename.concat out "trace-store" ] else recovery);
  write_spans (Filename.concat out "spans.tsv");
  summarize ~out
    ~extra:
      [
        ("storage.replayed_deltas", float_of_int !replayed);
        ("trace.commits", float_of_int c.acked);
        ("trace.fsyncs_per_commit", float_of_int c.fsyncs /. float_of_int (max 1 c.acked));
        ("trace.version_cache_hit_ratio",
         float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("trace.inproc_cite_p50_ms", request_p50 !request_lines [ "CITE"; "V2 CITE_AT" ]);
        ("trace.inproc_commit_p50_ms", request_p50 !request_lines [ "V2 COMMIT_DELTA" ]);
      ]
