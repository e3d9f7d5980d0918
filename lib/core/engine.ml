module Cq = Dc_cq
module R = Dc_relational
module Rw = Dc_rewriting

let log_src = Logs.Src.create "datacite.engine" ~doc:"Citation engine"

module Log = (val Logs.src_log log_src)

type selection = [ `All | `Min_estimated_size | `Min_exact_size ]

(* A memoized rewriting search result, computed for one query shape.
   [plan_form] is the generalized canonical form the search ran on (see
   [generalize]); [canonical] is its minimized core: two shapes share a
   plan iff their cores are equivalent, which holds iff the forms are.
   The rewritings — and the maximally-contained fallback, filled in
   lazily on first use — are over [plan_form]'s variables and named after
   [form_name]; [instantiate] turns them into a citing query's. *)
type plan = {
  plan_form : Cq.Query.t;
  canonical : Cq.Query.t;
  plan_rewritings : Cq.Query.t list;
  plan_stats : Rw.Rewrite.stats;
  mutable plan_contained : (Cq.Query.t list * Rw.Rewrite.stats) option;
}

(* Two-level lookup: a cheap canonical-form key catches repeats of the
   same (or alpha-renamed, or constant-varying) query with zero
   containment work; the sorted-predicate-multiset buckets catch any
   other equivalent form via Chandra-Merlin equivalence of the cores.
   Plans depend only on the view set, never on the data, so the cache
   is shared by every copy of the engine — [refresh], [with_databases]
   and [replicate] — under a lock of its own. *)
type plan_cache = {
  by_form : plan Cq.Query.Tbl.t;
  by_preds : (string, plan list ref) Hashtbl.t;
  plan_lock : Mutex.t;
}

(* Leaf keys are structural — the view name and its params — so no
   parameter value, whatever characters it holds, can spell another
   leaf's key.  The shared leaf cache keys params in name order; a
   construction's local leaf table keys them in view order, as leaves
   carry them. *)
module Leaf_tbl = Hashtbl.Make (struct
  type t = Cite_expr.leaf

  let equal a b = Cite_expr.compare_leaf a b = 0
  let hash = Cite_expr.hash_leaf
end)

type t = {
  base : R.Database.t;  (** EDB relations only *)
  derived : R.Database.t;
      (** IDB extents materialized from [program] by {!Dc_cq.Seminaive};
          empty for program-free engines *)
  full : R.Database.t;  (** [base] + [derived]: what citation queries see *)
  eval_db : R.Database.t;
      (** [full] + [view_db]: what rewritings are evaluated against — a
          partial rewriting's uncovered subgoals reference the base
          schema (or a recursive predicate's extent) directly *)
  program : Cq.Program.t option;
  cviews : Citation_view.Set.t;
  views : Rw.View.Set.t;
  view_constants : R.Value.t list;
      (** constants of the view definitions: kept inline by [generalize] *)
  view_db : R.Database.t;
  policy : Policy.t;
  selection : selection;
  partial : bool;
  fallback_contained : bool;
  leaf_cache : Citation.t Leaf_tbl.t;
  eval_cache : Cq.Eval.cache;
  plans : plan_cache;
  metrics : Metrics.t;
  (* Optional domain pool: when present, the rewriting search inside
     [plan_for] verifies candidates in parallel across its domains. *)
  pool : Dc_parallel.Domain_pool.t option;
  (* Guards the shared mutable data caches (leaf, eval) so one engine
     can serve concurrent threads (the server's worker pool).  [refresh]
     and [with_databases] copies share the caches, hence also the lock;
     [replicate] shards get fresh ones and a fresh lock. *)
  lock : Mutex.t;
}

(* Every [with_lock] call site runs under [with_sink e.metrics], so a
   contended acquisition is charged to the engine's own registry as
   well as the default one.  [try_lock] first: the uncontended path
   costs one atomic attempt, the contended one is counted — that
   counter is exactly what E14 uses to attribute (lack of) scaling. *)
let with_lock m f =
  if not (Mutex.try_lock m) then begin
    Metrics.record Metrics.Key.engine_lock_waits;
    Mutex.lock m
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let locked e f = with_lock e.lock f

let materialize ?cache base cviews =
  List.fold_left
    (fun db cv ->
      let rel = Cq.Eval.result ?cache base (Citation_view.definition cv) in
      R.Database.add_relation db rel)
    R.Database.empty
    (Citation_view.Set.to_list cviews)

let merge_full base derived =
  List.fold_left R.Database.add_relation base (R.Database.relations derived)

let view_constants cviews =
  List.concat_map
    (fun cv ->
      let q = Citation_view.definition cv in
      List.filter_map Cq.Term.value (Cq.Query.head q)
      @ List.concat_map Cq.Atom.constants (Cq.Query.body q))
    cviews

(* Materialize a program's IDB predicates into their own database; the
   semi-naive run validates name collisions and stratification was
   checked at [Program.make] time. *)
let derive ?cache base (program : Cq.Program.t) =
  let out = Cq.Seminaive.run ?cache base program.strat in
  List.fold_left
    (fun d p -> R.Database.add_relation d (R.Database.relation_exn out p))
    R.Database.empty
    (Cq.Program.idb_preds program)

let make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program ~eval_cache base derived cview_list =
  let full = merge_full base derived in
  List.iter
    (fun cv ->
      let n = Citation_view.name cv in
      if R.Database.mem_relation full n then
        invalid_arg
          (Printf.sprintf
             "Engine.create: view %s collides with a base relation" n);
      List.iter
        (fun q ->
          match Cq.Schema_check.check_query_res full q with
          | Ok () -> ()
          | Error e ->
              invalid_arg (Printf.sprintf "Engine.create: view %s: %s" n e))
        (Citation_view.definition cv :: Citation_view.citation_queries cv))
    cview_list;
  let cviews = Citation_view.Set.of_list cview_list in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let view_db =
    Metrics.with_sink metrics (fun () ->
        Metrics.record_time "materialize" (fun () ->
            materialize ~cache:eval_cache full cviews))
  in
  {
    base;
    derived;
    full;
    eval_db = merge_full full view_db;
    program;
    cviews;
    views = Citation_view.Set.view_set cviews;
    view_constants = view_constants cview_list;
    view_db;
    policy;
    selection;
    partial;
    fallback_contained;
    leaf_cache = Leaf_tbl.create 64;
    eval_cache;
    (* the plan cache is keyed by the view set, which is fixed at
       creation: a fresh engine (possibly with different views) always
       starts cold *)
    plans =
      {
        by_form = Cq.Query.Tbl.create 16;
        by_preds = Hashtbl.create 16;
        plan_lock = Mutex.create ();
      };
    metrics;
    pool;
    lock = Mutex.create ();
  }

let create ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?pool ?metrics base
    cview_list =
  make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program:None ~eval_cache:(Cq.Eval.make_cache ()) base R.Database.empty
    cview_list

let of_program ?(policy = Policy.default) ?(selection = `Min_estimated_size)
    ?(partial = false) ?(fallback_contained = false) ?pool ?metrics
    ?(views = []) base program =
  let eval_cache = Cq.Eval.make_cache () in
  let derived = derive ~cache:eval_cache base program in
  let cview_list =
    List.map
      (fun (e : Cq.Program.export) ->
        match Citation_view.make ~view:e.view ~citations:e.citations () with
        | Ok cv -> cv
        | Error err ->
            invalid_arg
              (Printf.sprintf "Engine.of_program: export %s: %s"
                 (Cq.Query.name e.view) err))
      (Cq.Program.unfold_exports program)
    @ views
  in
  make_engine ~policy ~selection ~partial ~fallback_contained ~pool ~metrics
    ~program:(Some program) ~eval_cache base derived cview_list

(* A shard replica: same immutable data (base, materialized views, view
   set, policy, pool), the same metrics registry and the same
   rewriting plans, but private leaf/eval caches and a private lock.
   Replicas therefore contend only for the plan cache's lookup — one
   short critical section per cite — and warm their own data caches. *)
let replicate e =
  {
    e with
    leaf_cache = Leaf_tbl.create 64;
    eval_cache = Cq.Eval.make_cache ();
    lock = Mutex.create ();
  }

let database e = e.base
let derived_database e = e.derived
let program e = e.program

let derived_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.idb_preds p

let recursive_predicates e =
  match e.program with None -> [] | Some p -> Cq.Program.recursive_preds p

let citation_views e = e.cviews
let policy e = e.policy
let selection e = e.selection
let view_database e = e.view_db
let eval_cache e = e.eval_cache
let metrics e = e.metrics

(* [refresh] and [with_databases] change only the data, never the view
   set or rule set, so the plan cache (rewritings depend on views alone)
   and the eval cache (entries self-invalidate on relation identity) are
   kept; only the leaf cache — concrete citations computed from the
   data — must be dropped.  [refresh] re-derives the program's IDB
   extents before rematerializing the views over them. *)
let refresh e base =
  let derived, full, view_db =
    Metrics.with_sink e.metrics (fun () ->
        locked e (fun () ->
            let derived =
              match e.program with
              | None -> R.Database.empty
              | Some p ->
                  Metrics.record_time "derive" (fun () ->
                      derive ~cache:e.eval_cache base p)
            in
            let full = merge_full base derived in
            let view_db =
              Metrics.record_time "materialize" (fun () ->
                  materialize ~cache:e.eval_cache full e.cviews)
            in
            (derived, full, view_db)))
  in
  {
    e with
    base;
    derived;
    full;
    eval_db = merge_full full view_db;
    view_db;
    leaf_cache = Leaf_tbl.create 64;
  }

(* The caller asserts [view_db] matches [base]; derived extents are kept
   as-is.  {!Versioned_engine}'s registration guard refuses queries that
   read derived predicates, so maintained engines never observe them. *)
let with_databases e ~base ~view_db =
  let full = merge_full base e.derived in
  {
    e with
    base;
    full;
    eval_db = merge_full full view_db;
    view_db;
    leaf_cache = Leaf_tbl.create 64;
  }

type tuple_citation = {
  tuple : R.Tuple.t;
  expr : Cite_expr.t;
  citations : Citation.Set.t;
}

type result = {
  query : Cq.Query.t;
  rewritings : Cq.Query.t list;
  selected : Cq.Query.t list;
  tuples : tuple_citation list;
  result_expr : Cite_expr.t;
  result_citations : Citation.Set.t;
  complete : bool;
  stats : Rw.Rewrite.stats;
}

(* Params are sorted by name so two leaves naming the same valuation in
   different construction orders share one cache entry (and one
   resolution). *)
let leaf_key (l : Cite_expr.leaf) =
  {
    l with
    params = List.sort (fun (a, _) (b, _) -> String.compare a b) l.params;
  }

(* Callers hold the lock. *)
let cite_leaf e (l : Cite_expr.leaf) =
  let k = leaf_key l in
  match Leaf_tbl.find_opt e.leaf_cache k with
  | Some c ->
      Metrics.record Metrics.Key.leaf_cache_hits;
      c
  | None ->
      Metrics.record Metrics.Key.leaf_cache_misses;
      let cv = Citation_view.Set.find_exn e.cviews l.view in
      let c = Citation_view.cite ~cache:e.eval_cache cv e.full l.params in
      Leaf_tbl.add e.leaf_cache k c;
      c

let resolve_leaf e l =
  Metrics.with_sink e.metrics @@ fun () -> locked e @@ fun () -> cite_leaf e l

let select e rewritings =
  match (e.selection, rewritings) with
  | `All, _ | _, ([] | [ _ ]) -> rewritings
  | `Min_estimated_size, rs ->
      Option.to_list (Rw.Cost.choose_min_size e.full e.views rs)
  | `Min_exact_size, rs ->
      Option.to_list (Rw.Cost.choose_min_size ~exact:true e.full e.views rs)

let merged_database e = e.eval_db

(* The rewriting-plan cache's key (see engine.mli): each distinct body
   constant no view definition mentions, by [Value.equal], becomes a
   variable appended to the head — it behaves exactly like a
   distinguished variable under containment — then body atoms are
   grouped by predicate (stable: alpha-renamings, not arbitrary
   permutations, share a form) and variables renamed x<i> in order of
   first occurrence.  Other equivalent forms fall through to the
   core-equivalence scan of [plan_for].  [back] maps each form variable
   to the query's own term: its variable, or the lifted constant. *)

let form_name = "q"

type generalized = { form : Cq.Query.t; back : Cq.Subst.t }

let mem_value c = List.exists (R.Value.equal c)

let generalize e q =
  let body =
    List.stable_sort
      (fun a b -> String.compare (Cq.Atom.pred a) (Cq.Atom.pred b))
      (Cq.Query.body q)
  in
  let lifted =
    List.fold_left
      (fun acc c ->
        if mem_value c e.view_constants || mem_value c acc then acc
        else c :: acc)
      []
      (List.concat_map Cq.Atom.constants body)
    |> List.rev
  in
  let names = ref [] in
  let rename t =
    match List.find_opt (fun (t', _) -> Cq.Term.equal t t') !names with
    | Some (_, x) -> Cq.Term.Var x
    | None ->
        let x = Printf.sprintf "x%d" (List.length !names) in
        names := (t, x) :: !names;
        Cq.Term.Var x
  in
  let term = function
    | Cq.Term.Var _ as t -> rename t
    | Cq.Term.Const c as t -> if mem_value c lifted then rename t else t
  in
  let head = List.map term (Cq.Query.head q) in
  let body =
    List.map
      (fun a -> Cq.Atom.make (Cq.Atom.pred a) (List.map term (Cq.Atom.args a)))
      body
  in
  let params = List.map (fun c -> rename (Cq.Term.Const c)) lifted in
  {
    form = Cq.Query.make_exn ~name:form_name ~head:(head @ params) ~body ();
    back = Cq.Subst.of_list (List.map (fun (t, x) -> (x, t)) !names);
  }

(* A plan's rewritings as rewritings of [query]: [theta] maps the plan
   form's variables to [query]'s terms; any other variable of a
   rewriting (one the search introduced) that [query] also uses is
   renamed apart.  The lifted-constant head columns are dropped and the
   [form_name] prefix of each name becomes [query]'s name. *)
let instantiate ~theta query rewritings =
  let taken = Cq.Query.all_vars query in
  let name = Cq.Query.name query and arity = Cq.Query.arity query in
  let prefix = String.length form_name in
  List.map
    (fun r ->
      let used = ref (Cq.Query.all_vars r @ taken) in
      let rec fresh v =
        if List.mem v !used then fresh (v ^ "'")
        else begin
          used := v :: !used;
          v
        end
      in
      let theta =
        List.fold_left
          (fun s w ->
            if Cq.Subst.mem theta w || not (List.mem w taken) then s
            else Cq.Subst.bind s w (Cq.Term.Var (fresh w)))
          theta (Cq.Query.all_vars r)
      in
      let r = Cq.Query.apply_subst theta r in
      let rname = Cq.Query.name r in
      Cq.Query.make_exn
        ~name:(name ^ String.sub rname prefix (String.length rname - prefix))
        ~head:(List.filteri (fun i _ -> i < arity) (Cq.Query.head r))
        ~body:(Cq.Query.body r) ())
    rewritings

(* [theta] for a plan found under an equivalent but different form:
   equivalent queries agree position by position on their heads. *)
let head_theta plan (g : generalized) =
  List.fold_left2
    (fun s p t ->
      match p with
      | Cq.Term.Var x when not (Cq.Subst.mem s x) ->
          Cq.Subst.bind s x (Cq.Subst.apply_term g.back t)
      | _ -> s)
    Cq.Subst.empty (Cq.Query.head plan.plan_form) (Cq.Query.head g.form)

let pred_multiset q =
  String.concat ","
    (List.sort String.compare (List.map Cq.Atom.pred (Cq.Query.body q)))

(* The memoized rewriting search, one plan per query shape.  Equivalent
   queries (same answers on every database) have interchangeable
   rewriting sets, so a hit is keyed up to Chandra-Merlin equivalence:
   first the canonical form, then — because equivalent minimal queries
   are isomorphic, hence share their predicate multiset — an
   equivalence scan within the core's predicate-multiset bucket.
   Returns the plan and the [theta] that instantiates it for [query]. *)
let plan_for e query =
  let g = generalize e (Cq.Query.strip_params query) in
  with_lock e.plans.plan_lock @@ fun () ->
  match Cq.Query.Tbl.find_opt e.plans.by_form g.form with
  | Some plan ->
      Metrics.record Metrics.Key.plan_cache_hits;
      (* the form may have been filed under an equivalent plan's *)
      if Cq.Query.equal_syntactic plan.plan_form g.form then (plan, g.back)
      else (plan, head_theta plan g)
  | None -> (
      let minimized = Cq.Minimize.minimize g.form in
      let pkey = pred_multiset minimized in
      let bucket =
        match Hashtbl.find_opt e.plans.by_preds pkey with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.add e.plans.by_preds pkey b;
            b
      in
      match
        List.find_opt
          (fun p -> Cq.Containment.equivalent p.canonical minimized)
          !bucket
      with
      | Some plan ->
          Metrics.record Metrics.Key.plan_cache_hits;
          Cq.Query.Tbl.replace e.plans.by_form g.form plan;
          (plan, head_theta plan g)
      | None ->
          Metrics.record Metrics.Key.plan_cache_misses;
          let { Rw.Rewrite.queries = rewritings; stats } =
            Metrics.record_time "rewrite" (fun () ->
                Rw.Rewrite.search ~partial:e.partial ?pool:e.pool e.views
                  g.form)
          in
          let plan =
            {
              plan_form = g.form;
              canonical = minimized;
              plan_rewritings = rewritings;
              plan_stats = stats;
              plan_contained = None;
            }
          in
          bucket := plan :: !bucket;
          Cq.Query.Tbl.replace e.plans.by_form g.form plan;
          (plan, g.back))

let contained_for e plan =
  with_lock e.plans.plan_lock @@ fun () ->
  match plan.plan_contained with
  | Some (rs, _) -> rs
  | None ->
      let r =
        Metrics.record_time "rewrite" (fun () ->
            Rw.Rewrite.maximally_contained e.views plan.plan_form)
      in
      plan.plan_contained <- Some r;
      fst r

(* Citation construction, costed per distinct leaf and per distinct
   tuple shape rather than per tuple.

   A tuple's normalized expression is [AltR] over its rewritings, [Alt]
   over their bindings, [Joint] over each binding's view leaves —
   deduplicated and sorted at every level.  It is therefore a function
   of the nested {e sets}: the set, over rewritings, of the set, over
   bindings, of the set of leaves.  Interning every distinct leaf of a
   construction as a dense id turns that nesting into a canonical
   [int list list list] (its {e shape}), and tuples of equal shape share
   one normalized expression and one policy evaluation.  The distinct
   leaves are resolved through the shared leaf cache in one locked
   pass. *)

type leaf_table = {
  ids : int Leaf_tbl.t;
  mutable rev_leaves : Cite_expr.leaf list;  (** newest id first *)
}

let leaf_table () = { ids = Leaf_tbl.create 16; rev_leaves = [] }

let intern tbl l =
  match Leaf_tbl.find_opt tbl.ids l with
  | Some i -> i
  | None ->
      let i = Leaf_tbl.length tbl.ids in
      Leaf_tbl.add tbl.ids l i;
      tbl.rev_leaves <- l :: tbl.rev_leaves;
      i

let leaves_of tbl = Array.of_list (List.rev tbl.rev_leaves)

(* The one critical section of a construction: every distinct leaf
   ([leaves_of tbl]) looked up, or cited, in the shared cache.  The
   returned resolver serves only leaves of [tbl]. *)
let resolver e tbl leaves =
  let cites =
    if leaves = [||] then [||]
    else locked e (fun () -> Array.map (cite_leaf e) leaves)
  in
  fun l -> cites.(Leaf_tbl.find tbl.ids l)

(* A rewriting compiled to its per-binding leaf-id set.  When no view
   atom reads a variable, every binding yields the same set: it is
   interned once, on first use. *)
let compile_joint cviews tbl rw =
  let templates =
    List.filter_map (Compute.template cviews) (Cq.Query.body rw)
  in
  let ids binding =
    List.sort_uniq Int.compare
      (List.map
         (fun (t : Compute.template) ->
           intern tbl { view = t.view; params = Compute.instantiate t binding })
         templates)
  in
  if List.for_all Compute.is_constant templates then
    let ids = lazy (ids Cq.Eval.Binding.empty) in
    fun _ -> Lazy.force ids
  else ids

module Shape_tbl = Hashtbl.Make (struct
  type t = int list list list

  let equal = List.equal (List.equal (List.equal Int.equal))

  let hash shape =
    let list f h l = List.fold_left f ((h * 31) + List.length l) l in
    list (list (list (fun h i -> (h * 31) + i))) 0 shape
end)

type shape = {
  key : int list list list;
  mutable expr : Cite_expr.t;
  mutable citations : Citation.Set.t;
}

type contribution = Cq.Query.t * Cq.Eval.Binding.t list

(* Shared by [cite] and [construct]: the per-tuple citations, the
   distinct tuple expressions, and the resolver for their leaves. *)
let build e (answers : (R.Tuple.t * contribution list) list) =
  let tbl = leaf_table () in
  let joints = ref [] in
  let joint rw =
    match List.assq_opt rw !joints with
    | Some f -> f
    | None ->
        let f = compile_joint e.cviews tbl rw in
        joints := (rw, f) :: !joints;
        f
  in
  let shapes = Shape_tbl.create 8 in
  let shape_of key =
    match Shape_tbl.find_opt shapes key with
    | Some s -> s
    | None ->
        let s = { key; expr = Cite_expr.agg []; citations = [] } in
        Shape_tbl.add shapes key s;
        s
  in
  let shaped =
    List.map
      (fun (tuple, contribs) ->
        let per_rewriting (rw, bindings) =
          List.sort_uniq (List.compare Int.compare)
            (List.map (joint rw) bindings)
        in
        let key =
          List.sort_uniq
            (List.compare (List.compare Int.compare))
            (List.map per_rewriting contribs)
        in
        (tuple, shape_of key))
      answers
  in
  let leaves = leaves_of tbl in
  let resolve = resolver e tbl leaves in
  let distinct =
    Shape_tbl.fold
      (fun _ s acc ->
        let leaf i = Cite_expr.Leaf leaves.(i) in
        s.expr <-
          Cite_expr.normalize
            (Cite_expr.alt_r
               (List.map
                  (fun alt ->
                    Cite_expr.alt
                      (List.map
                         (fun j -> Cite_expr.joint (List.map leaf j))
                         alt))
                  s.key));
        s.citations <- Policy.eval_normalized ~resolve e.policy s.expr;
        s.expr :: acc)
      shapes []
  in
  let tuples =
    List.map
      (fun (tuple, s) -> { tuple; expr = s.expr; citations = s.citations })
      shaped
  in
  (tuples, distinct, resolve)

let construct e answers =
  Metrics.with_sink e.metrics @@ fun () ->
  let tuples, _, _ = build e answers in
  tuples

module Expr_tbl = Hashtbl.Make (struct
  type t = Cite_expr.t

  let equal a b = a == b || Cite_expr.compare a b = 0
  let hash = Cite_expr.hash
end)

let evaluate e exprs =
  Metrics.with_sink e.metrics @@ fun () ->
  let tbl = leaf_table () in
  let memo = Expr_tbl.create 16 in
  List.iter
    (fun x ->
      if not (Expr_tbl.mem memo x) then begin
        List.iter (fun l -> ignore (intern tbl l)) (Cite_expr.leaves x);
        Expr_tbl.add memo x []
      end)
    exprs;
  let resolve = resolver e tbl (leaves_of tbl) in
  (* every distinct expression was entered above with a placeholder *)
  Expr_tbl.filter_map_inplace
    (fun x _ -> Some (Policy.eval_normalized ~resolve e.policy x))
    memo;
  List.map (Expr_tbl.find memo) exprs

let cite e query =
  Metrics.with_sink e.metrics @@ fun () ->
  let plan, theta = plan_for e query in
  let rewritings = instantiate ~theta query plan.plan_rewritings in
  let stats = plan.plan_stats in
  let selected = select e rewritings in
  Log.debug (fun m ->
      m "cite %s: %d candidates, %d rewritings, %d selected"
        (Cq.Query.name query) stats.candidates (List.length rewritings)
        (List.length selected));
  let db = e.eval_db in
  (* An uncovered query still gets its answer — with no citation by
     default, or best-effort through the maximally contained rewriting
     when the engine was created with [fallback_contained]. *)
  let selected_or_self, complete =
    if selected <> [] then (selected, true)
    else if e.fallback_contained then
      match contained_for e plan with
      | [] -> ([ Cq.Query.strip_params query ], true)
      | disjuncts -> (instantiate ~theta query disjuncts, false)
    else ([ Cq.Query.strip_params query ], true)
  in
  let answers =
    Metrics.record_time "eval" @@ fun () ->
    (* the shared eval cache (index memoization) is mutated during the
       run, so the evaluation itself is the critical section *)
    let runs =
      locked e @@ fun () ->
      List.map
        (fun rw -> (rw, Cq.Eval.run ~cache:e.eval_cache db rw))
        selected_or_self
    in
    (* [Eval.run] is already grouped and sorted by tuple *)
    match runs with
    | [ (rw, rows) ] ->
        List.map (fun (tuple, bindings) -> (tuple, [ (rw, bindings) ])) rows
    | runs ->
        List.fold_left
          (fun m (rw, rows) ->
            List.fold_left
              (fun m (tuple, bindings) ->
                let existing =
                  Option.value ~default:[] (R.Tuple.Map.find_opt tuple m)
                in
                R.Tuple.Map.add tuple ((rw, bindings) :: existing) m)
              m rows)
          R.Tuple.Map.empty runs
        |> R.Tuple.Map.bindings
  in
  Metrics.record_time "construct" @@ fun () ->
  let tuples, distinct, resolve = build e answers in
  let result_expr = Cite_expr.normalize (Compute.result_expr distinct) in
  let result_citations =
    Policy.eval_normalized ~resolve e.policy result_expr
  in
  {
    query;
    rewritings;
    selected;
    tuples;
    result_expr;
    result_citations;
    complete;
    stats;
  }

let cite_string e src =
  Result.map (cite e) (Cq.Parser.parse_query src)

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>query     : %s@,rewritings: %d@,selected  : [%s]@,tuples    : \
     %d@,citations : %d@,complete  : %b@,stats     : %a@]"
    (Cq.Query.to_string r.query)
    (List.length r.rewritings)
    (String.concat "; " (List.map Cq.Query.name r.selected))
    (List.length r.tuples)
    (List.length r.result_citations)
    r.complete Rw.Rewrite.pp_stats r.stats

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let result_to_json (r : result) =
  let jstr s = Printf.sprintf "\"%s\"" (json_escape s) in
  let names qs = String.concat "," (List.map (fun q -> jstr (Cq.Query.name q)) qs) in
  Printf.sprintf
    "{\"query\":%s,\"rewritings\":[%s],\"selected\":[%s],\"tuples\":%d,\"expr\":%s,\"citations\":%s,\"complete\":%b,\"stats\":%s}"
    (jstr (Cq.Query.to_string r.query))
    (names r.rewritings) (names r.selected)
    (List.length r.tuples)
    (jstr (Cite_expr.to_string r.result_expr))
    (Fmt_citation.render Fmt_citation.Json r.result_citations)
    r.complete
    (Rw.Rewrite.stats_to_json r.stats)
