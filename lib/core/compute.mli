(** Literal implementation of the paper's Definitions 2.1 and 2.2: from
    rewritings and bindings to formal citation expressions.

    Given a rewriting [Q'] of [Q] over citation views and a binding [B]
    yielding tuple [t]:

    - Definition 2.1: [cite(t,Q,Q',V,B) = F_V1(CV1(B1)) · … · F_Vn(CVn(Bn))]
      — {!binding_expr} builds the [Joint] of one leaf per view atom,
      each leaf fixing the parameter valuation [Bi];
    - Definition 2.2: [cite(t,Q,Q',V) = Σ_{B∈β_t} cite(t,Q,Q',V,B)] —
      {!tuple_expr_for_rewriting} wraps the per-binding expressions in
      [Alt];
    - multiple rewritings combine under [+R] ({!tuple_expr});
    - the query answer aggregates per-tuple citations under [Agg]
      ({!result_expr}).

    Base (non-view) atoms in a partial rewriting contribute no leaf. *)

(** A view atom compiled once per rewriting: the view name and, for
    each parameter in the view's parameter order, the atom argument that
    supplies it.  Instantiating a template under a binding is the
    per-binding half of {!leaf_of_atom}. *)
type template = {
  view : string;
  slots : (string * Dc_cq.Term.t) list;
      (** parameter name, and the constant or variable filling it *)
}

val template : Citation_view.Set.t -> Dc_cq.Atom.t -> template option
(** [None] when the atom's predicate is not a citation view. *)

val is_constant : template -> bool
(** Every parameter is filled by a constant (in particular, the view is
    unparameterized): the leaf is the same under every binding. *)

val instantiate :
  template -> Dc_cq.Eval.Binding.t -> (string * Dc_relational.Value.t) list
(** The leaf's parameter valuation under a binding. *)

val leaf_of_atom :
  Citation_view.Set.t ->
  Dc_cq.Atom.t ->
  Dc_cq.Eval.Binding.t ->
  Cite_expr.t option
(** [None] when the atom's predicate is not a citation view. *)

val binding_expr :
  Citation_view.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Eval.Binding.t ->
  Cite_expr.t

val tuple_expr_for_rewriting :
  Citation_view.Set.t ->
  Dc_cq.Query.t ->
  Dc_cq.Eval.Binding.t list ->
  Cite_expr.t

val tuple_expr :
  Citation_view.Set.t ->
  (Dc_cq.Query.t * Dc_cq.Eval.Binding.t list) list ->
  Cite_expr.t

val result_expr : Cite_expr.t list -> Cite_expr.t
