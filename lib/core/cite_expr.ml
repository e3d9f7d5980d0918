module Value = Dc_relational.Value

type leaf = { view : string; params : (string * Value.t) list }

type t =
  | Leaf of leaf
  | Joint of t list
  | Alt of t list
  | AltR of t list
  | Agg of t list

let leaf ~view ~params = Leaf { view; params }
let joint es = Joint es
let alt es = Alt es
let alt_r es = AltR es
let agg es = Agg es

let compare_leaf a b =
  match String.compare a.view b.view with
  | 0 ->
      List.compare
        (fun (n1, v1) (n2, v2) ->
          match String.compare n1 n2 with
          | 0 -> Value.compare v1 v2
          | c -> c)
        a.params b.params
  | c -> c

let rec compare a b =
  let tag = function
    | Leaf _ -> 0
    | Joint _ -> 1
    | Alt _ -> 2
    | AltR _ -> 3
    | Agg _ -> 4
  in
  match (a, b) with
  | Leaf la, Leaf lb -> compare_leaf la lb
  | Joint xs, Joint ys
  | Alt xs, Alt ys
  | AltR xs, AltR ys
  | Agg xs, Agg ys ->
      List.compare compare xs ys
  | a, b -> Int.compare (tag a) (tag b)

let rec normalize e =
  let flatten same children =
    List.concat_map
      (fun c ->
        match (same, normalize c) with
        | `Joint, Joint xs | `Alt, Alt xs | `AltR, AltR xs | `Agg, Agg xs ->
            xs
        | _, c -> [ c ])
      children
  in
  let clean same mk children =
    let xs = flatten same children in
    let xs = List.sort_uniq compare xs in
    match xs with [ x ] -> x | xs -> mk xs
  in
  match e with
  | Leaf _ -> e
  | Joint xs -> clean `Joint (fun xs -> Joint xs) xs
  | Alt xs -> clean `Alt (fun xs -> Alt xs) xs
  | AltR xs -> clean `AltR (fun xs -> AltR xs) xs
  | Agg xs -> clean `Agg (fun xs -> Agg xs) xs

let hash_leaf l =
  List.fold_left
    (fun h (n, v) -> (((h * 31) + Hashtbl.hash n) * 31) + Value.hash v)
    (Hashtbl.hash l.view) l.params

let rec hash e =
  let node tag xs = List.fold_left (fun h x -> (h * 31) + hash x) tag xs in
  match e with
  | Leaf l -> hash_leaf l
  | Joint xs -> node 1 xs
  | Alt xs -> node 2 xs
  | AltR xs -> node 3 xs
  | Agg xs -> node 4 xs

let rec collect_leaves acc = function
  | Leaf l -> l :: acc
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      List.fold_left collect_leaves acc xs

let leaves e =
  collect_leaves [] e |> List.sort_uniq compare_leaf

let size e = List.length (leaves e)

let rec node_count = function
  | Leaf _ -> 1
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      1 + List.fold_left (fun acc x -> acc + node_count x) 0 xs

let equal a b = compare (normalize a) (normalize b) = 0

let pp_leaf ppf l =
  if l.params = [] then Format.fprintf ppf "C%s" l.view
  else
    Format.fprintf ppf "C%s(%a)" l.view
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf (_, v) -> Value.pp ppf v))
      l.params

(* Precedence: Agg < AltR < Alt < Joint < Leaf.  A compound child is
   parenthesized when its operator binds no tighter than its parent's,
   and always under +R / Agg — matching the paper's
   "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)". *)
let level = function
  | Leaf _ -> 4
  | Joint _ -> 3
  | Alt _ -> 2
  | AltR _ -> 1
  | Agg _ -> 0

let is_compound = function
  | Leaf _ -> false
  | Joint xs | Alt xs | AltR xs | Agg xs -> List.length xs > 1

let rec pp_node ppf node =
  let sep = function
    | Joint _ -> "·"
    | Alt _ -> " + "
    | AltR _ -> " +R "
    | Agg _ -> " ⊕ "
    | Leaf _ -> ""
  in
  match node with
  | Leaf l -> pp_leaf ppf l
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      let pp_child ppf child =
        let wrap =
          is_compound child
          && (level child <= level node || level node <= 1)
        in
        if wrap then Format.fprintf ppf "(%a)" pp_node child
        else pp_node ppf child
      in
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf (sep node))
        pp_child ppf xs

let pp ppf e = pp_node ppf (normalize e)
let to_string e = Format.asprintf "%a" pp e

let leaf_token l =
  Format.asprintf "%a" pp_leaf l

let to_polynomial e =
  let module P = Dc_provenance.Polynomial in
  let rec go = function
    | Leaf l -> P.var (leaf_token l)
    | Joint xs -> List.fold_left (fun acc x -> P.times acc (go x)) P.one xs
    | Alt xs | AltR xs | Agg xs ->
        List.fold_left (fun acc x -> P.plus acc (go x)) P.zero xs
  in
  go (normalize e)
