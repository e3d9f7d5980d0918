module Cq = Dc_cq

type template = { view : string; slots : (string * Cq.Term.t) list }

let template cviews atom =
  match Citation_view.Set.find cviews (Cq.Atom.pred atom) with
  | None -> None
  | Some cv ->
      let args = Array.of_list (Cq.Atom.args atom) in
      let slots =
        List.map2
          (fun p pos -> (p, args.(pos)))
          (Citation_view.params cv)
          (Cq.Query.param_positions (Citation_view.definition cv))
      in
      Some { view = Citation_view.name cv; slots }

let is_constant t = List.for_all (fun (_, src) -> Cq.Term.is_const src) t.slots

let instantiate t binding =
  List.map
    (fun (p, src) ->
      match src with
      | Cq.Term.Const c -> (p, c)
      | Cq.Term.Var v -> (p, Cq.Eval.Binding.find_exn binding v))
    t.slots

let leaf_of_atom cviews atom binding =
  Option.map
    (fun t -> Cite_expr.leaf ~view:t.view ~params:(instantiate t binding))
    (template cviews atom)

let binding_expr cviews rewriting binding =
  Cite_expr.joint
    (List.filter_map
       (fun atom -> leaf_of_atom cviews atom binding)
       (Cq.Query.body rewriting))

let tuple_expr_for_rewriting cviews rewriting bindings =
  Cite_expr.alt (List.map (binding_expr cviews rewriting) bindings)

let tuple_expr cviews per_rewriting =
  Cite_expr.alt_r
    (List.map
       (fun (rw, bindings) -> tuple_expr_for_rewriting cviews rw bindings)
       per_rewriting)

let result_expr exprs = Cite_expr.agg exprs
