(* The three benchmark workloads: their datasets, request streams and
   commit sequences, all derived from (workload, seed) alone so the load
   generator, the answer checker and the traced replay see identical
   inputs. *)

module R = Dc_relational
module V = Dc_relational.Value

type kind = Landing | Lookup | Curate

let kind_of_string = function
  | "landing" -> Landing
  | "lookup" -> Lookup
  | "curate" -> Curate
  | s -> invalid_arg ("unknown workload " ^ s)

let families = function Landing -> 2000 | Lookup -> 4000 | Curate -> 2000

(* Requests sent untimed before the timed part of a landing or lookup
   run: every landing query text twice; for lookup, enough to cover the
   zipf head and pass the Eval cache's 1,024-plan capacity.  Curate
   starts timed from its fresh data directory. *)
let warmup_requests = function Landing -> 32 | Lookup -> 4000 | Curate -> 0

(* Commits the curate writer sends.  Fixed, so recovery replays the same
   amount of work on both sides of a comparison. *)
let curate_commits = 50

(* The generator's seed is offset per workload so two workloads run with
   the same --seed still get unrelated datasets. *)
let dataset kind ~seed =
  let salt = match kind with Landing -> 0 | Lookup -> 1 | Curate -> 2 in
  Dc_gtopdb.Generator.generate
    ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config
               ~families:(families kind))
    ~seed:((seed * 3) + salt) ()

(* The paper's three views (Dc_gtopdb.Paper_views), in Spec syntax. *)
let views_spec =
  let blurb = Dc_gtopdb.Paper_views.gtopdb_blurb in
  String.concat "\n"
    [
      "view lambda FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc);";
      "cite lambda FID. CV1(FID,PName) :- Committee(FID,PName);";
      "view V2(FID,FName,Desc) :- Family(FID,FName,Desc);";
      Printf.sprintf "cite CV2(D) :- D=\"%s\";" blurb;
      "view V3(FID,Text) :- FamilyIntro(FID,Text);";
      Printf.sprintf "cite CV3(D) :- D=\"%s\";" blurb;
      "";
    ]

(* ------------------------------------------------------------------ *)
(* Sampling                                                             *)

(* Zipf(s) over ranks 0..n-1 by inverse CDF. *)
let zipf_sampler ?(s = 1.) n =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for r = 0 to n - 1 do
    total := !total +. (1. /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !total
  done;
  fun rng ->
    let u = Random.State.float rng !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* landing: broad citations over the paper's views                      *)

(* The E12/E13 query shapes that the paper's views cover (E13's
   Family-Committee join has no rewriting: Committee is only cited, never
   exposed by a view).  [v] holds distinct variable names, one
   alpha-variant's renaming. *)
let landing_shapes =
  [|
    (fun v -> Printf.sprintf "Q(%s) :- Family(%s,%s,%s), FamilyIntro(%s,%s)"
                v.(1) v.(0) v.(1) v.(2) v.(0) v.(3));
    (fun v -> Printf.sprintf "Q(%s,%s,%s) :- Family(%s,%s,%s)"
                v.(0) v.(1) v.(2) v.(0) v.(1) v.(2));
    (fun v -> Printf.sprintf "Q(%s,%s) :- FamilyIntro(%s,%s)"
                v.(0) v.(3) v.(0) v.(3));
    (fun v -> Printf.sprintf "Q(%s,%s,%s) :- Family(%s,%s,%s), FamilyIntro(%s,%s)"
                v.(0) v.(1) v.(3) v.(0) v.(1) v.(2) v.(0) v.(3));
  |]

let variants_per_shape = 4

let var_pool =
  [| "FID"; "FName"; "Desc"; "Text"; "PName"; "I"; "N"; "D"; "T"; "P"; "A";
     "B"; "C"; "E"; "X1"; "X2"; "X3"; "X4"; "X5"; "Fam"; "Nm"; "Ds"; "Tx" |]

let landing_queries ~seed =
  let rng = Random.State.make [| seed; 11 |] in
  Array.map
    (fun render ->
      Array.init variants_per_shape (fun _ ->
          let pool = Array.copy var_pool in
          shuffle rng pool;
          "CITE " ^ render pool))
    landing_shapes

(* ------------------------------------------------------------------ *)
(* lookup: per-entity point citations                                   *)

let lookup_request ~ids ~zipf rng =
  let k = ids.(zipf rng) in
  match Random.State.int rng 10 with
  | 0 | 1 | 2 | 3 -> Printf.sprintf "CITE Q(N,T) :- Family(%d,N,T)" k
  | 4 | 5 | 6 -> Printf.sprintf "CITE Q(N,X) :- Family(%d,N,T), FamilyIntro(%d,X)" k k
  | _ -> Printf.sprintf "CITE_PARAM V1 FID=%d" k

(* An endless request stream for landing or lookup: [next ()] is the
   next request line. *)
let read_stream kind ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  match kind with
  | Landing ->
      let qs = landing_queries ~seed in
      fun () ->
        let shape = qs.(Random.State.int rng (Array.length qs)) in
        shape.(Random.State.int rng (Array.length shape))
  | Lookup ->
      let n = families Lookup in
      let ids = Array.init n (fun i -> i + 1) in
      shuffle rng ids;
      let zipf = zipf_sampler n in
      fun () -> lookup_request ~ids ~zipf rng
  | Curate -> invalid_arg "read_stream: curate has a writer and a reader"

(* ------------------------------------------------------------------ *)
(* curate: durable commits beside versioned reads                       *)

let registered_query = "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)"
let history_queries = [| registered_query; "Q(FID,Text) :- FamilyIntro(FID,Text)" |]

(* Commit i inserts family (n + i), n the dataset's family count, with its
   intro and deletes one committee row of an existing family; rows are
   drawn without repetition, so every delete hits a present tuple. *)
let curate_deltas db ~seed ~count =
  let rng = Random.State.make [| seed; 23 |] in
  let committee =
    Array.copy (R.Relation.scan (R.Database.relation_exn db "Committee"))
  in
  shuffle rng committee;
  let base = R.Relation.cardinality (R.Database.relation_exn db "Family") in
  List.init count (fun i ->
      let fid = base + i + 1 in
      let d = R.Delta.empty in
      let d =
        R.Delta.insert d "Family"
          (R.Tuple.make
             [ V.Int fid; V.Str (Printf.sprintf "Curated receptors %d" fid);
               V.Str (Printf.sprintf "Description of family %d" fid) ])
      in
      let d =
        R.Delta.insert d "FamilyIntro"
          (R.Tuple.make
             [ V.Int fid; V.Str (Printf.sprintf "Introduction to family %d" fid) ])
      in
      R.Delta.delete d "Committee" committee.(i mod Array.length committee))

type reader_op =
  | Cite_head  (** CITE_AT the last acknowledged version, registered query *)
  | Cite_history of { back : int; query : string }
      (** CITE_AT [back] versions before the last acknowledged one
          (clamped at version 0) *)
  | Versions
  | Verify of int  (** VERIFY the [n]-th version that has a known digest *)

(* The reader's ops are drawn independently of timing; they are resolved
   against the versions acknowledged so far when sent.  History cites ask
   the registered query [1 + zipf(s=3)] versions back: 83% ask the version
   before the head, 98% land within the 4-engine version cache, and 2%
   reach past it.  One query and a steep skew keep the cite median inside
   one cost class (a cite on a cached, warm engine) instead of on the edge
   between classes, where the share of misses and cold engines, which
   moves with the reads made per commit, would move it.  Head cites,
   answered from the registration in about a millisecond, are kept to 10%
   for the same reason: at 25% they put the median in the lower tail of
   the history cites. *)
let reader_stream ~seed =
  let rng = Random.State.make [| seed; 29 |] in
  let back = zipf_sampler ~s:3. curate_commits in
  fun () ->
    match Random.State.int rng 20 with
    | n when n < 2 -> Cite_head
    | n when n < 16 -> Cite_history { back = 1 + back rng; query = registered_query }
    | n when n < 18 -> Versions
    | _ -> Verify (Random.State.bits rng)
