(* The correctness oracle: for every distinct request the load generator
   saw answered, the answer the in-process engine gives on the same
   generated database, encoded as the server encodes it.  Output lines
   (tab-separated):
     E  request  fresh|reg  answer   -- an expected answer
     D  version  digest              -- curate: fixity digest of a version
   A curate CITE_AT answer is either computed fresh on the version's
   engine or served from the head registration; "reg" lines give the
   latter, at the version where it was head. *)

module C = Dc_citation
module P = Dc_server.Protocol
module W = Workload

let cite_line ?version ?timestamp ?digest ?from_registration query
    (r : C.Engine.result) =
  P.ok_cite ?version ?timestamp ?digest ?from_registration ~query
    ~expr:(C.Cite_expr.to_string r.result_expr)
    ~citations:r.result_citations ~complete:r.complete
    ~tuples:(List.length r.tuples)
    ~rewritings:(List.length r.rewritings)
    ~ms:0. ()

let after prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(* The request lines Workload generates, decoded here rather than by the
   server's own parser so the oracle does not share its code path. *)
let read_answer engine req =
  if Loadgen.starts_with "CITE_PARAM V1 FID=" req then
    let fid = int_of_string (after "CITE_PARAM V1 FID=" req) in
    let citation =
      C.Engine.resolve_leaf engine
        { view = "V1"; params = [ ("FID", Dc_relational.Value.Int fid) ] }
    in
    P.ok_citation ~view:"V1" ~citation ~ms:0.
  else
    let q = after "CITE " req in
    cite_line q (C.Engine.cite engine (Dc_cq.Parser.parse_query_exn q))

(* "V2 CITE_AT <v> <query>" -> (v, query) *)
let split_cite_at req =
  let rest = after "V2 CITE_AT " req in
  let i = String.index rest ' ' in
  (int_of_string (String.sub rest 0 i), String.sub rest (i + 1) (String.length rest - i - 1))

let ok = function Ok x -> x | Error e -> failwith e

let run kind ~seed ~data ~requests ~acked ~out =
  let db = ok (C.Spec.load_database ~dir:data) in
  let views = ok (C.Spec.parse_views (Dc_relational.Csv_io.read_file (Filename.concat data "views.spec") |> ok)) in
  let oc = open_out_bin out in
  let emit req kind line = Printf.fprintf oc "E\t%s\t%s\t%s\n" req kind line in
  (match kind with
  | W.Landing | W.Lookup ->
      let base = C.Engine.create db views in
      (* Fresh caches every few hundred queries: the rewriting-plan cache
         scans every cached plan of a predicate multiset on a miss, which
         would make thousands of distinct lookups quadratic here. *)
      let engine = ref base in
      List.iteri
        (fun i req ->
          if i mod 256 = 0 then engine := C.Engine.replicate base;
          emit req "fresh" (read_answer !engine req))
        requests
  | W.Curate ->
      let ve = C.Versioned_engine.create db views in
      let reg = Dc_cq.Parser.parse_query_exn W.registered_query in
      ok (C.Versioned_engine.register ve reg);
      let deltas = W.curate_deltas (W.dataset W.Curate ~seed) ~seed ~count:acked in
      let registered v =
        let c = ok (C.Versioned_engine.cite_at ve v reg) in
        emit (Printf.sprintf "V2 CITE_AT %d %s" v W.registered_query) "reg"
          (cite_line ~version:v ?timestamp:c.timestamp ~digest:c.digest
             ~from_registration:true
             W.registered_query c.result)
      in
      registered 0;
      List.iteri
        (fun i d ->
          let v = ok (C.Versioned_engine.commit_delta ve d) in
          if v <> i + 1 then failwith "unexpected version";
          registered v)
        deltas;
      let by_version =
        List.map split_cite_at
          (List.filter (Loadgen.starts_with "V2 CITE_AT ") requests)
        |> List.sort_uniq compare
      in
      List.iter
        (fun (v, q) ->
          let e = ok (C.Versioned_engine.engine_at ve v) in
          let r = C.Engine.cite e (Dc_cq.Parser.parse_query_exn q) in
          emit (Printf.sprintf "V2 CITE_AT %d %s" v q) "fresh"
            (cite_line ~version:v ?timestamp:(C.Versioned_engine.timestamp ve v)
               ~digest:(ok (C.Versioned_engine.digest_at ve v))
               ~from_registration:false q r))
        by_version;
      for v = 0 to acked do
        Printf.fprintf oc "D\t%d\t%s\n" v (ok (C.Versioned_engine.digest_at ve v))
      done);
  close_out oc
