(* N engine replicas over one immutable database/view set: shard 0 is
   the engine passed in (or freshly created), the rest are
   [Engine.replicate]s with private data caches and locks, so domains
   working different shards contend only for the shared plan cache.  Dispatch is round-robin
   over an atomic counter. *)

type t = {
  shards : Engine.t array;
  next : int Atomic.t;
}

let of_engine ?(clamp = true) ~shards engine =
  if shards < 1 then invalid_arg "Sharded_engine.of_engine: shards < 1";
  (* Shards exist to give each core a contention-free replica; replicas
     beyond the core count only multiply cold caches, so clamp by
     default (a 1-core box gets exactly one shard — sequential, no
     replica cost).  [clamp:false] keeps the requested width for tests
     of the dispatch machinery itself. *)
  let shards =
    if clamp then Dc_parallel.Domain_pool.effective ~requested:shards
    else shards
  in
  {
    shards =
      Array.init shards (fun i ->
          if i = 0 then engine else Engine.replicate engine);
    next = Atomic.make 0;
  }

let create ?clamp ?policy ?selection ?partial ?fallback_contained ?pool ~shards
    base cviews =
  of_engine ?clamp ~shards
    (Engine.create ?policy ?selection ?partial ?fallback_contained ?pool base
       cviews)

let shard_count t = Array.length t.shards
let primary t = t.shards.(0)

let shard t i =
  let n = Array.length t.shards in
  t.shards.(((i mod n) + n) mod n)

let seed_round_robin t i = Atomic.set t.next i

let pick t =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    (* OCaml's [mod] keeps the dividend's sign, so once the counter
       wraps past [max_int] a plain [i mod n] would index negatively;
       normalize to the canonical non-negative residue instead of
       trusting the counter to stay positive. *)
    let i = Atomic.fetch_and_add t.next 1 in
    t.shards.(((i mod n) + n) mod n)

let cite t q = Engine.cite (pick t) q
let cite_string t src = Engine.cite_string (pick t) src
let metrics t = Engine.metrics (primary t)

let cite_batch t pool queries =
  let chunks =
    Dc_parallel.Domain_pool.chunk
      ~chunks:(Dc_parallel.Domain_pool.size pool)
      queries
  in
  Dc_parallel.Domain_pool.run_all pool
    (List.mapi
       (fun i qs () -> List.map (Engine.cite (shard t i)) qs)
       chunks)
  |> List.concat
