(* One rewriting plan and one compiled plan per query shape.  The engine
   lifts a query's constants into parameter variables before its
   rewriting-plan lookup, and [Eval] keys compiled plans by the query
   with its constants masked.  These tests hold every cite of a
   long-lived engine byte-for-byte to a fresh engine's answer and to the
   un-lifted rewriting search, and pin the cache traffic to one miss,
   one search and one compilation per shape, however many constants are
   cited. *)

open Testutil
module C = Dc_citation
module E = Dc_citation.Engine
module M = Dc_citation.Metrics
module Rw = Dc_rewriting
module G = Dc_gtopdb.Generator
module TC = Test_construction

(* ------------------------------------------------------------------ *)
(* Oracles *)

(* A fresh engine answers [q] with no cache history at all. *)
let check_fresh msg fresh (r : E.result) =
  Alcotest.(check (list string))
    (msg ^ ": same as a fresh engine")
    (TC.fingerprint (E.cite (fresh ()) r.query))
    (TC.fingerprint r)

let names qs = List.map Cq.Query.name qs

(* The un-lifted answer, for an engine selecting [`All]: the rewriting
   search run on the query itself (constants inline), every rewriting
   evaluated, citations built tuple by tuple ({!Test_construction}'s
   oracle). *)
let check_unlifted msg e (r : E.result) =
  let views = C.Citation_view.Set.view_set (E.citation_views e) in
  let plain = Rw.Rewrite.search views (Cq.Query.strip_params r.query) in
  Alcotest.(check (list string))
    (msg ^ ": rewriting names") (names plain.queries) (names r.rewritings);
  (* The candidate count may differ: a lifted constant is a variable
     that unifies with a view's constant, and such candidates then fail
     verification. *)
  Alcotest.(check (pair int int))
    (msg ^ ": verified and kept")
    (plain.stats.verified, plain.stats.kept)
    (r.stats.verified, r.stats.kept);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equivalent to %s" msg (Cq.Query.to_string b)
           (Cq.Query.to_string a))
        true
        (Cq.Containment.equivalent a b))
    plain.queries r.rewritings;
  let sources =
    if plain.queries <> [] then plain.queries else TC.sources e r
  in
  TC.check_against_oracle ~sources (msg ^ ": un-lifted") e r

(* ------------------------------------------------------------------ *)
(* Databases and queries *)

(* Strings full of the characters a text codec would trip on. *)
let awkward = "Smith, J.; (ed.)"

let lookup_db () =
  let db = G.generate ~seed:11 ~config:(G.scale G.default_config ~families:40) () in
  let db = R.Database.insert db "Family" (tuple [ int 1001; str awkward; str "a(b)" ]) in
  R.Database.insert db "FamilyIntro" (tuple [ int 1001; str "x; y, (z)" ])

let family_name db k =
  List.find_map
    (fun t ->
      if R.Value.equal (R.Tuple.get t 0) (int k) then
        Some (R.Value.to_string (R.Tuple.get t 1))
      else None)
    (R.Relation.tuples (R.Database.relation_exn db "Family"))
  |> Option.get

(* Every constant-varying shape the differential run cites, for key [k]
   of a family named [name]. *)
let lookup_queries k name =
  List.map parse
    [
      Printf.sprintf "Q(N,T) :- Family(%d,N,T)" k;
      Printf.sprintf "Q(N,X) :- Family(%d,N,T), FamilyIntro(%d,X)" k k;
      (* the constant in the head too *)
      Printf.sprintf "Q(%d,N) :- Family(%d,N,T)" k k;
      (* a repeated constant, and the same shape with two constants *)
      Printf.sprintf "Q(N) :- Family(%d,N,T), FamilyIntro(%d,X)" k k;
      Printf.sprintf "Q(N) :- Family(%d,N,T), FamilyIntro(%d,X)" k (k + 1);
      Printf.sprintf "Q(N) :- Family(%d,N,%d)" k k;
      Printf.sprintf "Q(N) :- Family(%d,N,%d)" k (k + 1);
      (* [1] and [1.0] print alike but are different constants *)
      Printf.sprintf "Q(N,T) :- Family(%d.0,N,T)" k;
      Printf.sprintf "Q(F,T) :- Family(F,\"%s\",T)" name;
      (* names of the citing query, not of whichever query came first *)
      Printf.sprintf "P%d(A,B) :- Family(%d,A,B)" (k mod 3) k;
    ]

(* ------------------------------------------------------------------ *)
(* Tests *)

let test_form_hit_takes_citing_names () =
  let fresh () = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let e = fresh () in
  ignore (E.cite e (parse "P(N,T) :- Family(5,N,T)"));
  let r = E.cite e (parse "Q(A,B) :- Family(5,A,B)") in
  Alcotest.(check bool) "rewritings named after Q" true
    (r.rewritings <> []
    && List.for_all
         (fun rw -> String.starts_with ~prefix:"Q_rw" (Cq.Query.name rw))
         r.rewritings);
  Alcotest.(check bool) "over Q's variables" true
    (List.for_all
       (fun rw -> Cq.Query.head rw = [ Cq.Term.Var "A"; Cq.Term.Var "B" ])
       r.rewritings);
  check_fresh "Q after P" fresh r

(* A form equivalent to a cached plan's but different from it is served
   through the containment scan, then filed under its own form: the
   repeat must map the plan's rewritings the same way. *)
let test_equivalent_form_repeats () =
  let fresh () = E.create (paper_db ()) Dc_gtopdb.Paper_views.all in
  let e = fresh () in
  List.iter
    (fun (first, equivalent) ->
      ignore (E.cite e (parse first));
      let q = parse equivalent in
      let r1 = E.cite e q in
      let r2 = E.cite e q in
      Alcotest.(check (list string))
        (equivalent ^ ": repeat") (TC.fingerprint r1) (TC.fingerprint r2);
      Alcotest.(check (list string))
        (equivalent ^ ": answer")
        (TC.answer_keys (E.cite (fresh ()) q))
        (TC.answer_keys r2);
      TC.check_against_oracle equivalent e r2)
    [
      (* the citing query's head variable is named like one of the
         plan form's join variables *)
      ( "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)",
        "Q(x1) :- Family(F,x1,D), Family(F,x1,D2), FamilyIntro(F,T)" );
      (* lifted constants met in a different order than the plan's *)
      ( "Q(X) :- Family(11,X,D), Family(12,X,D2)",
        "Q(X) :- Family(12,X,D2), Family(12,X,D3), Family(11,X,D)" );
      ( "Q(X) :- Family(11,X,D), Family(21,X,D2)",
        "Q(X) :- Family(21,X,D2), Family(21,X,D3), Family(11,X,D)" );
    ]

let test_long_run_differential () =
  let db = lookup_db () in
  let fresh selection () = E.create ~selection db Dc_gtopdb.Paper_views.all in
  let e = fresh `Min_estimated_size () and e_all = fresh `All () in
  List.iter
    (fun k ->
      List.iter
        (fun q ->
          let msg = Cq.Query.to_string q in
          check_fresh msg (fresh `Min_estimated_size) (E.cite e q);
          let r = E.cite e_all q in
          check_fresh (msg ^ " [All]") (fresh `All) r;
          check_unlifted msg e_all r)
        (lookup_queries k (family_name db k)))
    (List.init 25 (fun i -> i + 1) @ [ 1001 ])

(* A constant some view's definition mentions stays inline, so its
   rewriting through that view is still found — whichever constant of
   the same column was cited first. *)
let test_view_constant_stays_inline () =
  let va =
    C.Citation_view.make_exn
      ~view:(parse "lambda FID. VA(FID,FName) :- Family(FID,FName,\"C1\")")
      ~citations:[ parse "lambda FID. CVA(FID,P) :- Committee(FID,P)" ]
      ()
  in
  let fresh () =
    E.create ~selection:`All (paper_db ()) (Dc_gtopdb.Paper_views.all @ [ va ])
  in
  let e = fresh () in
  let uses_va (r : E.result) =
    List.exists (fun rw -> List.mem "VA" (Cq.Query.predicates rw)) r.rewritings
  in
  List.iter
    (fun (desc, expect_va) ->
      let q = parse (Printf.sprintf "Q(F,N) :- Family(F,N,%S)" desc) in
      let r = E.cite e q in
      Alcotest.(check bool) (desc ^ ": rewriting through VA") expect_va
        (uses_va r);
      check_fresh desc fresh r;
      check_unlifted desc e r)
    [ ("D1", false); ("C1", true); ("C2", false); ("C1", true); ("H1", false) ]

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
  let fresh () = E.create ~fallback_contained:true (paper_db ()) [ va; vb ] in
  let e = fresh () in
  List.iter
    (fun k ->
      let q = parse (Printf.sprintf "Q(FName) :- Family(%d,FName,Desc)" k) in
      let r = E.cite e q in
      Alcotest.(check bool) "answered through the fallback" false r.complete;
      check_fresh (Cq.Query.to_string q) fresh r;
      TC.check_against_oracle (Cq.Query.to_string q) e r)
    [ 11; 12; 21; 22; 99; 11 ];
  let m = E.metrics e in
  Alcotest.(check int) "one contained search for the shape" 2
    (snd (M.timer m "rewrite"))

let test_of_program () =
  let fresh () =
    E.of_program ~selection:`All
      (TC.link_db [ (4, 3); (3, 2); (2, 1); (5, 1); (5, 2) ])
      TC.upstream_program
  in
  let e = fresh () in
  List.iter
    (fun k ->
      List.iter
        (fun src ->
          let q = parse src in
          let r = E.cite e q in
          check_fresh src fresh r;
          check_unlifted src e r)
        [
          Printf.sprintf "Q(S) :- Up(S,%d)" k;
          Printf.sprintf "Q(D) :- Up(%d,D)" k;
          Printf.sprintf "Q(S) :- Up(S,%d), Link(S,%d)" k (k + 1);
        ])
    [ 1; 2; 3; 4; 5; 1 ]

(* The lookup traffic: two cite shapes and one leaf shape, each cited
   for many keys.  After the first key, no key costs a plan miss, a
   rewriting search or a compilation. *)
let test_counts_per_shape () =
  let db = G.generate ~seed:5 ~config:(G.scale G.default_config ~families:200) () in
  let e = E.create db Dc_gtopdb.Paper_views.all in
  let m = E.metrics e in
  let cite k =
    ignore (E.cite e (parse (Printf.sprintf "Q(N,T) :- Family(%d,N,T)" k)));
    ignore
      (E.cite e
         (parse
            (Printf.sprintf "Q(N,X) :- Family(%d,N,T), FamilyIntro(%d,X)" k k)));
    ignore (E.resolve_leaf e { view = "V1"; params = [ ("FID", int k) ] })
  in
  let counts () =
    ( M.count m M.Key.plan_cache_misses,
      snd (M.timer m "rewrite"),
      M.count m M.Key.plan_compiles )
  in
  let start = counts () in
  cite 1;
  let after_one = counts () in
  for k = 2 to 200 do
    cite k
  done;
  let misses0, searches0, compiles0 = start in
  let misses1, searches1, compiles1 = after_one in
  let misses, searches, compiles = counts () in
  Alcotest.(check int) "one plan miss per cite shape" 2 (misses1 - misses0);
  Alcotest.(check int) "one search per cite shape" 2 (searches1 - searches0);
  Alcotest.(check bool) "the first key compiles" true (compiles1 > compiles0);
  Alcotest.(check int) "no further plan miss" misses1 misses;
  Alcotest.(check int) "no further search" searches1 searches;
  Alcotest.(check int) "no further compilation" compiles1 compiles

(* [rewritings_under_deps] deduplicated its candidate entries by their
   printed atoms, so [V(X,1)] and [V(X,1.0)] collided and the only
   rewriting, which needs both, was lost. *)
let test_under_deps_keeps_float_entries () =
  let views = Rw.View.Set.of_list [ Rw.View.of_query (parse "V(A,B) :- R(A,B)") ] in
  let query = parse "Q(X) :- R(X,1), R(X,1.0)" in
  let under, _ = Rw.Rewrite.rewritings_under_deps ~deps:[] views query in
  match under with
  | [ r ] ->
      Alcotest.(check int) "both view atoms" 2 (List.length (Cq.Query.body r))
  | rs -> Alcotest.failf "expected one rewriting, got %d" (List.length rs)

let suite =
  [
    Alcotest.test_case "form hit takes the citing query's names" `Quick
      test_form_hit_takes_citing_names;
    Alcotest.test_case "equivalent form: repeat maps the plan alike" `Quick
      test_equivalent_form_repeats;
    Alcotest.test_case "differential: long constant-varying run" `Quick
      test_long_run_differential;
    Alcotest.test_case "differential: view constants stay inline" `Quick
      test_view_constant_stays_inline;
    Alcotest.test_case "differential: contained fallback" `Quick
      test_fallback_contained;
    Alcotest.test_case "differential: of_program engine" `Quick
      test_of_program;
    Alcotest.test_case "one miss, search and compile per shape" `Quick
      test_counts_per_shape;
    Alcotest.test_case "under-deps entries keyed structurally" `Quick
      test_under_deps_keeps_float_entries;
  ]
