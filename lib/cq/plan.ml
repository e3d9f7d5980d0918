module R = Dc_relational
module Sset = Set.Make (String)

(* One register op per atom position, resolved at compile time:
   - [Skip]: the position is part of the index key — the probe already
     guaranteed equality, nothing to do at run time;
   - [Bind s]: first occurrence of a free variable — write the tuple's
     value into register [s];
   - [Check s]: a repeated free variable within the same atom — the
     value must agree with what [Bind] just wrote. *)
type op = Skip | Bind of int | Check of int

type step = {
  pred : string;
  rel : R.Relation.t;
  (* [None] = full scan over [Relation.scan rel] (the atom had no bound
     position); [Some idx] = probe [idx] with [key_buf], filled from the
     registers [key_slots]. *)
  index : R.Index.t option;
  key_slots : int array;
  key_buf : R.Value.t array;
  ops : op array;
}

(* The register file holds the variable slots, then one parameter
   register per constant occurrence ([params] order), loaded by
   [execute]: nothing in a plan depends on a constant's value. *)
type t = {
  slots : string array;
  nparams : int;
  steps : step array;
  head : int array;
  deps : (string * R.Relation.t) list;
}

(* Constant occurrences in body order, then head order: the order
   [compile] numbers parameter registers in. *)
let params q =
  let consts acc terms =
    List.fold_left
      (fun acc -> function Term.Const c -> c :: acc | Term.Var _ -> acc)
      acc terms
  in
  let acc =
    List.fold_left (fun acc a -> consts acc (Atom.args a)) [] (Query.body q)
  in
  Array.of_list (List.rev (consts acc (Query.head q)))

let slots t = t.slots
let atom_order t = List.map (fun s -> s.pred) (Array.to_list t.steps)

let is_truth atom = Atom.pred atom = "True" && Atom.args atom = []

(* Estimated candidate count for [atom] given the compile-time bound
   variable set: full cardinality for a scan, cardinality scaled by the
   textbook per-column selectivities (1/distinct) for an index probe.
   Cardinalities and distinct counts come from [stats], which memoizes
   them per relation value. *)
let atom_cost ~stats db bound atom =
  let pred = Atom.pred atom in
  let card = float_of_int (R.Stats.cardinality stats db pred) in
  let arity_known =
    match R.Database.relation db pred with
    | Some rel -> R.Schema.arity (R.Relation.schema rel)
    | None -> 0
  in
  let rec go i sel any_bound = function
    | [] -> (sel, any_bound)
    | term :: rest ->
        let bound_here =
          match term with
          | Term.Const _ -> true
          | Term.Var v -> Sset.mem v bound
        in
        if bound_here then
          let sel =
            if i < arity_known then sel *. R.Stats.selectivity stats db pred i
            else sel
          in
          go (i + 1) sel true rest
        else go (i + 1) sel any_bound rest
  in
  let sel, any_bound = go 0 1.0 false (Atom.args atom) in
  if any_bound then card *. sel else card

(* Greedy cost-based join order over [(atom, registers)] pairs: repeatedly
   pick the cheapest atom under the variables bound so far.  Ties keep
   body order (fold keeps the first minimum), so plans are deterministic.
   Pairs are removed by identity, so an atom repeated in the body keeps
   each occurrence (and its own parameter registers). *)
let order_atoms ~stats db body =
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let best, _ =
          List.fold_left
            (fun (best, best_cost) ((atom, _) as p) ->
              let c = atom_cost ~stats db bound atom in
              match best with
              | None -> (Some p, c)
              | Some _ -> if c < best_cost then (Some p, c) else (best, best_cost))
            (None, infinity) remaining
        in
        let best = Option.get best in
        let remaining = List.filter (fun p -> not (p == best)) remaining in
        let bound =
          List.fold_left (fun s v -> Sset.add v s) bound (Atom.var_list (fst best))
        in
        go bound remaining (best :: acc)
  in
  go Sset.empty body []

let compile ~stats ~relation ~index db q =
  let body = List.filter (fun a -> not (is_truth a)) (Query.body q) in
  (* slot numbering: one register per body variable, in order of first
     occurrence in the original body (the order is irrelevant to the
     kernel; fixing it keeps plans reproducible) *)
  let slot_tbl = Hashtbl.create 16 in
  let rev_slots = ref [] in
  let slot_of v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slot_tbl in
        Hashtbl.add slot_tbl v s;
        rev_slots := v :: !rev_slots;
        s
  in
  List.iter
    (fun atom ->
      List.iter
        (function Term.Var v -> ignore (slot_of v) | Term.Const _ -> ())
        (Atom.args atom))
    body;
  let nslots = Hashtbl.length slot_tbl in
  (* each constant occurrence reads the next parameter register; atoms
     are numbered in body order, before the join order is chosen *)
  let nparams = ref 0 in
  let register = function
    | Term.Var v -> slot_of v
    | Term.Const _ ->
        let r = nslots + !nparams in
        incr nparams;
        r
  in
  let body_regs =
    List.map
      (fun atom -> (atom, Array.of_list (List.map register (Atom.args atom))))
      body
  in
  let ordered = order_atoms ~stats db body_regs in
  let bound = ref Sset.empty in
  let deps = ref [] in
  let steps =
    List.map
      (fun (atom, regs) ->
        let pred = Atom.pred atom in
        let rel = relation pred in
        if not (List.mem_assoc pred !deps) then deps := (pred, rel) :: !deps;
        let args = Array.of_list (Atom.args atom) in
        (* bound positions (constants, or variables bound by earlier
           atoms in plan order) become the index key *)
        let keyed = Array.map
            (fun term ->
              match term with
              | Term.Const _ -> true
              | Term.Var v -> Sset.mem v !bound)
            args
        in
        let key_positions = ref [] and key_slots = ref [] in
        Array.iteri
          (fun i _ ->
            if keyed.(i) then begin
              key_positions := i :: !key_positions;
              key_slots := regs.(i) :: !key_slots
            end)
          args;
        let key_positions = List.rev !key_positions in
        let key_slots = Array.of_list (List.rev !key_slots) in
        let seen_in_atom = Hashtbl.create 4 in
        let ops =
          Array.mapi
            (fun i term ->
              if keyed.(i) then Skip
              else
                match term with
                | Term.Const _ -> assert false (* constants are keyed *)
                | Term.Var v ->
                    let s = slot_of v in
                    if Hashtbl.mem seen_in_atom v then Check s
                    else begin
                      Hashtbl.add seen_in_atom v ();
                      Bind s
                    end)
            args
        in
        bound :=
          List.fold_left (fun s v -> Sset.add v s) !bound (Atom.var_list atom);
        {
          pred;
          rel;
          index =
            (if key_positions = [] then None
             else Some (index pred key_positions));
          key_slots;
          key_buf = Array.make (Array.length key_slots) R.Value.Null;
          ops;
        })
      ordered
  in
  (* safety: every head variable occurs in the body, so it already has
     a slot *)
  let head = Array.of_list (List.map register (Query.head q)) in
  {
    slots = Array.of_list (List.rev !rev_slots);
    nparams = !nparams;
    steps = Array.of_list steps;
    head;
    deps = !deps;
  }

let valid t db =
  List.for_all
    (fun (pred, rel) ->
      match R.Database.relation db pred with
      | Some rel' -> rel' == rel
      | None -> false)
    t.deps

let head_tuple t regs = R.Tuple.of_array (Array.map (fun s -> regs.(s)) t.head)

let execute t ~params emit =
  if Array.length params <> t.nparams then
    invalid_arg "Plan.execute: parameter count differs from the plan's";
  let nslots = Array.length t.slots in
  let regs = Array.make (max 1 (nslots + t.nparams)) R.Value.Null in
  Array.blit params 0 regs nslots t.nparams;
  let nsteps = Array.length t.steps in
  (* [match_tuple] applies the register ops left to right; a failed
     [Check] abandons the candidate.  Partial [Bind]s of an abandoned
     candidate are harmless: deeper steps only run after a full match,
     and the next candidate re-binds the same slots. *)
  let rec match_tuple ops tuple regs p n =
    p = n
    ||
    match ops.(p) with
    | Skip -> match_tuple ops tuple regs (p + 1) n
    | Bind s ->
        regs.(s) <- R.Tuple.get tuple p;
        match_tuple ops tuple regs (p + 1) n
    | Check s ->
        R.Value.equal (R.Tuple.get tuple p) regs.(s)
        && match_tuple ops tuple regs (p + 1) n
  in
  let rec go i =
    if i = nsteps then emit regs
    else begin
      let st = t.steps.(i) in
      let ops = st.ops in
      let n = Array.length ops in
      match st.index with
      | Some idx ->
          let kb = st.key_buf and srcs = st.key_slots in
          for j = 0 to Array.length srcs - 1 do
            kb.(j) <- regs.(srcs.(j))
          done;
          List.iter
            (fun tuple -> if match_tuple ops tuple regs 0 n then go (i + 1))
            (R.Index.lookup_key idx kb)
      | None ->
          let arr = R.Relation.scan st.rel in
          for k = 0 to Array.length arr - 1 do
            if match_tuple ops arr.(k) regs 0 n then go (i + 1)
          done
    end
  in
  go 0

let pp ppf t =
  let pp_step ppf st =
    let nslots = Array.length t.slots in
    let keyed =
      Array.to_list st.key_slots
      |> List.map (fun s ->
             if s < nslots then t.slots.(s)
             else Printf.sprintf "$%d" (s - nslots))
    in
    if keyed = [] then Format.fprintf ppf "%s[scan]" st.pred
    else Format.fprintf ppf "%s[%s]" st.pred (String.concat "," keyed)
  in
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ⋈ ")
       pp_step)
    (Array.to_list t.steps)
