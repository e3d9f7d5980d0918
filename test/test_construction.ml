(* Citation construction.  The engine builds citations per distinct
   leaf and per distinct tuple shape; these tests hold it byte-for-byte
   to the per-tuple pipeline it replaced (kept here as the oracle),
   check that a warm cite touches the shared leaf cache once per
   distinct leaf, and pin the plan caches to structural query keys. *)

open Testutil
module C = Dc_citation
module E = Dc_citation.Engine
module I = Dc_citation.Incremental
module V = Dc_citation.Versioned_engine
module P = Dc_citation.Policy
module D = Dc_relational.Delta
module G = Dc_gtopdb.Generator

(* ------------------------------------------------------------------ *)
(* The per-tuple oracle *)

(* What the engine evaluated: its selected rewritings, else the
   maximally contained disjuncts of the fallback, else the query. *)
let sources e (r : E.result) =
  if r.selected <> [] then r.selected
  else if not r.complete then
    fst
      (Dc_rewriting.Rewrite.maximally_contained
         (C.Citation_view.Set.view_set (E.citation_views e))
         r.query)
  else [ Cq.Query.strip_params r.query ]

(* Every tuple gets [Compute.tuple_expr] -> [Cite_expr.normalize] ->
   [Policy.eval] with one [resolve_leaf] per leaf occurrence, and the
   result is [Agg] over every tuple. *)
let oracle e sources (r : E.result) =
  let db = E.merged_database e in
  let per_tuple =
    List.fold_left
      (fun m rw ->
        List.fold_left
          (fun m (tuple, bindings) ->
            let existing =
              Option.value ~default:[] (R.Tuple.Map.find_opt tuple m)
            in
            R.Tuple.Map.add tuple ((rw, bindings) :: existing) m)
          m
          (Cq.Eval.run ~cache:(E.eval_cache e) db rw))
      R.Tuple.Map.empty sources
  in
  let cviews = E.citation_views e and policy = E.policy e in
  let resolve = E.resolve_leaf e in
  let tuples =
    List.map
      (fun (tuple, contribs) ->
        let expr =
          C.Cite_expr.normalize (C.Compute.tuple_expr cviews (List.rev contribs))
        in
        { E.tuple; expr; citations = P.eval ~resolve policy expr })
      (R.Tuple.Map.bindings per_tuple)
  in
  let result_expr =
    C.Cite_expr.normalize
      (C.Compute.result_expr
         (List.map (fun (t : E.tuple_citation) -> t.expr) tuples))
  in
  {
    r with
    tuples;
    result_expr;
    result_citations = P.eval ~resolve policy result_expr;
  }

(* The JSON the engine answers with, plus every tuple's expression and
   rendered citations. *)
let fingerprint (r : E.result) =
  E.result_to_json r
  :: List.map
       (fun (tc : E.tuple_citation) ->
         Printf.sprintf "%s = %s => %s" (R.Tuple.to_string tc.tuple)
           (C.Cite_expr.to_string tc.expr)
           (C.Fmt_citation.render C.Fmt_citation.Json tc.citations))
       r.tuples

let check_against_oracle ?sources:src msg e (r : E.result) =
  let expected =
    oracle e (match src with Some s -> s | None -> sources e r) r
  in
  Alcotest.(check (list string)) msg (fingerprint expected) (fingerprint r);
  (* the normalized trees themselves, not only their printed form *)
  Alcotest.(check bool)
    (msg ^ ": expressions structurally equal")
    true
    (C.Cite_expr.compare expected.result_expr r.result_expr = 0
    && List.for_all2
         (fun (a : E.tuple_citation) (b : E.tuple_citation) ->
           C.Cite_expr.compare a.expr b.expr = 0)
         expected.tuples r.tuples)

(* ------------------------------------------------------------------ *)
(* Differential sweeps *)

let generated_db () =
  G.generate ~seed:7 ~config:(G.scale G.default_config ~families:40) ()

let queries =
  List.map parse
    [
      "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)";
      "Q(FID,FName,Text) :- Family(FID,FName,D), FamilyIntro(FID,Text)";
      "Q(FName,Desc) :- Family(FID,FName,Desc)";
      "Q(Text) :- FamilyIntro(FID,Text)";
      (* no rewriting over the views: leafless expressions *)
      "Q(P) :- Committee(F,P)";
    ]

let policies ~agg =
  let combiners = [ P.Union; P.Join ] in
  List.concat_map
    (fun joint ->
      List.concat_map
        (fun alt ->
          List.concat_map
            (fun agg ->
              List.map
                (fun alt_r -> P.make ~joint ~alt ~agg ~alt_r ())
                [ P.Keep_all; P.First; P.Min_size ])
            agg)
        combiners)
    combiners

let selections = [ `All; `Min_estimated_size; `Min_exact_size ]

let sweep db ~agg =
  List.iter
    (fun policy ->
      List.iter
        (fun selection ->
          let e = E.create ~policy ~selection db Dc_gtopdb.Paper_views.all in
          List.iter
            (fun q ->
              (* twice: cold, then with every cache warm *)
              for _ = 1 to 2 do
                check_against_oracle
                  (Printf.sprintf "%s under %s" (Cq.Query.to_string q)
                     (P.to_string policy))
                  e (E.cite e q)
              done)
            queries)
        selections)
    (policies ~agg)

(* Every combination, [Join] for [Agg] included, on the paper's
   database; its answers are small enough for [Join] to stay
   tractable. *)
let test_every_policy_paper_db () =
  sweep (paper_db ()) ~agg:[ P.Union; P.Join ]

(* A generated database: many tuples, several bindings per tuple, and
   under [`All] a distinct [V1(FID)] leaf per binding, so tuples of one
   query have different shapes.  [Agg] stays [Union]: joined across
   every tuple, citation sets grow exponentially. *)
let test_every_policy_generated_db () = sweep (generated_db ()) ~agg:[ P.Union ]

let test_constants_in_query () =
  let e = E.create ~selection:`All (paper_db ()) Dc_gtopdb.Paper_views.all in
  List.iter
    (fun src ->
      let q = parse src in
      check_against_oracle src e (E.cite e q))
    [
      "Q(FName) :- Family(11,FName,D), FamilyIntro(11,T)";
      "Q(FID) :- Family(FID,\"Calcitonin\",D)";
    ]

let test_fallback_contained () =
  let va =
    C.Citation_view.make_exn
      ~view:(parse "lambda FID. VA(FID,FName) :- Family(FID,FName,\"C1\")")
      ~citations:[ parse "lambda FID. CVA(FID,P) :- Committee(FID,P)" ]
      ()
  in
  let vb =
    C.Citation_view.make_exn
      ~view:(parse "VB(FID,FName) :- Family(FID,FName,\"C2\")")
      ~citations:[ parse "CVB(D) :- D=\"slice C2\"" ]
      ()
  in
  let e = E.create ~fallback_contained:true (paper_db ()) [ va; vb ] in
  let r = E.cite e (parse "Q(FID,FName) :- Family(FID,FName,Desc)") in
  Alcotest.(check bool) "answered through the fallback" false r.complete;
  check_against_oracle "fallback" e r

let upstream_program =
  Cq.Program.parse_exn
    {|
  Up(S,D) :- Link(S,D);
  Up(S,D) :- Link(S,M), Up(M,D);
  export lambda D. VUp(D,S) :- Up(S,D);
  cite lambda D. CVUp(D,S) :- Up(S,D)
|}

let link_db edges =
  let schema =
    R.Schema.make "Link"
      [ R.Schema.attr ~ty:R.Value.TInt "S"; R.Schema.attr ~ty:R.Value.TInt "D" ]
  in
  R.Database.insert_list
    (R.Database.create_relation R.Database.empty schema)
    "Link"
    (List.map (fun (a, b) -> int_tuple [ a; b ]) edges)

let test_of_program () =
  let e =
    E.of_program ~selection:`All
      (link_db [ (4, 3); (3, 2); (2, 1); (5, 1); (5, 2) ])
      upstream_program
  in
  List.iter
    (fun src -> check_against_oracle src e (E.cite e (parse src)))
    [ "Q(S) :- Up(S,1)"; "Q(S,D) :- Up(S,D)"; "Q(D) :- Up(5,D)" ]

let delta_orexin () =
  D.empty
  |> (fun d -> D.insert d "Family" (tuple [ int 30; str "Orexin"; str "O1" ]))
  |> fun d -> D.insert d "FamilyIntro" (tuple [ int 30; str "Orexin intro" ])

(* New bindings, a vanished tuple, and a citation-query relation
   (Committee) that stales concrete citations without touching any
   expression. *)
let deltas () =
  [
    delta_orexin ();
    D.empty
    |> (fun d -> D.insert d "Family" (tuple [ int 13; str "Calcitonin"; str "C3" ]))
    |> (fun d -> D.insert d "FamilyIntro" (tuple [ int 13; str "3rd" ]))
    |> (fun d -> D.insert d "Committee" (tuple [ int 11; str "New Member" ]));
    D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ]);
    D.insert D.empty "Committee" (tuple [ int 13; str "Third Chair" ]);
  ]

let test_incremental_recites () =
  List.iter
    (fun selection ->
      let e =
        E.create ~selection ~policy:(P.make ~alt_r:P.Keep_all ()) (paper_db ())
          Dc_gtopdb.Paper_views.all
      in
      let reg = ref (I.register e Dc_gtopdb.Paper_views.query_q) in
      List.iteri
        (fun i delta ->
          reg := I.apply_delta !reg delta;
          let r = I.to_result !reg in
          check_against_oracle ~sources:(I.selected !reg)
            (Printf.sprintf "after delta %d" i)
            (I.engine !reg) r;
          Alcotest.(check string)
            "result_citations"
            (C.Fmt_citation.render C.Fmt_citation.Json r.result_citations)
            (C.Fmt_citation.render C.Fmt_citation.Json (I.result_citations !reg)))
        (deltas ()))
    [ `All; `Min_estimated_size ]

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let test_versioned_cite_at () =
  let ve =
    V.create ~selection:`All ~policy:(P.make ~alt_r:P.Keep_all ())
      (paper_db ()) Dc_gtopdb.Paper_views.all
  in
  let q = Dc_gtopdb.Paper_views.query_q in
  let other = parse "Q(FID,FName,Text) :- Family(FID,FName,D), FamilyIntro(FID,Text)" in
  ok_exn (V.register ve q);
  let versions =
    0 :: List.map (fun d -> ok_exn (V.commit_delta ve d)) (deltas ())
  in
  List.iter
    (fun v ->
      let eng = ok_exn (V.engine_at ve v) in
      List.iter
        (fun q ->
          let c = ok_exn (V.cite_at ve v q) in
          check_against_oracle
            (Printf.sprintf "%s at v%d (registration: %b)" (Cq.Query.to_string q)
               v c.from_registration)
            eng c.result)
        [ q; other ])
    versions;
  Alcotest.(check bool) "head served from the registration" true
    (ok_exn (V.cite ve q)).from_registration

(* ------------------------------------------------------------------ *)
(* Leaf-cache traffic of a warm cite *)

let test_warm_cite_touches_distinct_leaves () =
  (* the E12 database; the default selection cites CV2·CV3 for every
     tuple *)
  let db = G.generate ~seed:4 ~config:(G.scale G.default_config ~families:1000) () in
  let e = E.create db Dc_gtopdb.Paper_views.all in
  let q = parse "Q(FID,FName,Text) :- Family(FID,FName,D), FamilyIntro(FID,Text)" in
  ignore (E.cite e q);
  let m = E.metrics e in
  let touches () =
    C.Metrics.count m C.Metrics.Key.leaf_cache_hits
    + C.Metrics.count m C.Metrics.Key.leaf_cache_misses
  in
  let before = touches () in
  let r = E.cite e q in
  let distinct = List.length (C.Cite_expr.leaves r.result_expr) in
  Alcotest.(check bool) "hundreds of tuples" true (List.length r.tuples > 500);
  Alcotest.(check int) "two distinct leaves" 2 distinct;
  Alcotest.(check bool) "at most one touch per distinct leaf" true
    (touches () - before <= distinct)

(* ------------------------------------------------------------------ *)
(* Plan caches keyed by structure, not by printed form *)

(* [Value.pp] prints floats with %g: each pair below prints alike. *)
let float_db () =
  let schema =
    R.Schema.make "M" [ R.Schema.attr ~ty:R.Value.TInt "K"; R.Schema.attr "X" ]
  in
  R.Database.insert_list
    (R.Database.create_relation R.Database.empty schema)
    "M"
    [
      tuple [ int 1; R.Value.Float 0.1234567 ];
      tuple [ int 2; R.Value.Float 0.1234568 ];
      tuple [ int 3; R.Value.Int 1 ];
      tuple [ int 4; R.Value.Float 1.0 ];
    ]

let colliding_pairs =
  [
    ("Q(K) :- M(K,0.1234567)", "Q(K) :- M(K,0.1234568)", 1, 2);
    ("Q(K) :- M(K,1)", "Q(K) :- M(K,1.0)", 3, 4);
  ]

let keys rows = List.map R.Tuple.to_string rows

let answer_keys (r : E.result) =
  keys (List.map (fun (t : E.tuple_citation) -> t.tuple) r.tuples)

let test_eval_plan_cache_structural () =
  let db = float_db () in
  let cache = Cq.Eval.make_cache () in
  List.iter
    (fun (a, b, ka, kb) ->
      Alcotest.(check string) "printed alike" (Cq.Query.to_string (parse a))
        (Cq.Query.to_string (parse b));
      let run src = keys (List.map fst (Cq.Eval.run ~cache db (parse src))) in
      Alcotest.(check (list string)) a (keys [ int_tuple [ ka ] ]) (run a);
      Alcotest.(check (list string)) b (keys [ int_tuple [ kb ] ]) (run b))
    colliding_pairs

let float_view () =
  C.Citation_view.make_exn
    ~view:(parse "VM(K,X) :- M(K,X)")
    ~citations:[ parse "CVM(D) :- D=\"measurements\"" ]
    ()

let test_engine_plan_cache_structural () =
  let e = E.create (float_db ()) [ float_view () ] in
  List.iter
    (fun (a, b, ka, kb) ->
      let answer src = answer_keys (E.cite e (parse src)) in
      Alcotest.(check (list string)) a (keys [ int_tuple [ ka ] ]) (answer a);
      Alcotest.(check (list string)) b (keys [ int_tuple [ kb ] ]) (answer b))
    colliding_pairs

let test_registration_match_structural () =
  let ve = V.create (float_db ()) [ float_view () ] in
  List.iter
    (fun (a, b, _, kb) ->
      ok_exn (V.register ve (parse a));
      let c = ok_exn (V.cite ve (parse b)) in
      Alcotest.(check bool) (b ^ ": not served by " ^ a) false c.from_registration;
      Alcotest.(check (list string)) b (keys [ int_tuple [ kb ] ])
        (answer_keys c.result))
    colliding_pairs

let suite =
  [
    Alcotest.test_case "differential: every policy, paper db" `Quick
      test_every_policy_paper_db;
    Alcotest.test_case "differential: every policy, generated db" `Quick
      test_every_policy_generated_db;
    Alcotest.test_case "differential: constants in the query" `Quick
      test_constants_in_query;
    Alcotest.test_case "differential: contained fallback" `Quick
      test_fallback_contained;
    Alcotest.test_case "differential: of_program engine" `Quick test_of_program;
    Alcotest.test_case "differential: incremental re-cites" `Quick
      test_incremental_recites;
    Alcotest.test_case "differential: versioned cite_at" `Quick
      test_versioned_cite_at;
    Alcotest.test_case "warm cite: one leaf-cache touch per distinct leaf"
      `Quick test_warm_cite_touches_distinct_leaves;
    Alcotest.test_case "eval plan cache: float/int keys" `Quick
      test_eval_plan_cache_structural;
    Alcotest.test_case "engine plan cache: float/int keys" `Quick
      test_engine_plan_cache_structural;
    Alcotest.test_case "registrations: float/int keys" `Quick
      test_registration_match_structural;
  ]
