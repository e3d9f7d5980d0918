(* pb: the benchmark tool perfbench/run.py drives.

     pb prepare --workload W --seed N --out DIR
         write the generated dataset (CSV + schema.spec) and views.spec
     pb stream --workload W --seed N --count K
         print the first K requests of the workload's stream (curate: its
         commits, then K reader ops with versions left symbolic)
     pb load --workload W --seed N --port P --seconds S --connections C --out DIR
         drive a running server in a closed loop (see Loadgen)
     pb expect --workload W --seed N --data DIR --pairs FILE --acked K --out FILE
         in-process answers for every request in FILE (see Expect)
     pb trace --workload W --seed N --data DIR --seconds S --reads-per-commit R
              --out DIR [--recovery D1,D2]
         the traced single-thread replay (see Trace); curate replays R reader
         ops after each commit; recovery is timed by opening each D
         (default: the replay's own store) *)

module W = Workload

let () =
  let args = Array.to_list Sys.argv in
  let cmd, opts = match args with _ :: c :: rest -> (c, rest) | _ -> ("", []) in
  let rec pairs = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | k :: _ -> failwith ("pb: bad argument " ^ k)
  in
  let opts = pairs opts in
  let get k = match List.assoc_opt k opts with
    | Some v -> v | None -> failwith ("pb: missing --" ^ k) in
  let int k = int_of_string (get k) in
  let kind () = W.kind_of_string (get "workload") in
  match cmd with
  | "prepare" ->
      let out = get "out" in
      Dc_citation.Spec.save_database (W.dataset (kind ()) ~seed:(int "seed")) ~dir:out;
      Loadgen.write_file (Filename.concat out "views.spec") W.views_spec
  | "stream" -> (
      let seed = int "seed" and count = int "count" in
      match kind () with
      | W.Curate ->
          W.curate_deltas (W.dataset W.Curate ~seed) ~seed ~count:W.curate_commits
          |> List.iter (fun d -> print_endline (Dc_server.Protocol.render_delta d));
          let ops = W.reader_stream ~seed in
          for _ = 1 to count do
            print_endline
              (match ops () with
              | W.Cite_head -> "CITE_AT head"
              | W.Cite_history { back; query } -> Printf.sprintf "CITE_AT head-%d %s" back query
              | W.Versions -> "VERSIONS"
              | W.Verify n -> Printf.sprintf "VERIFY known[%d]" n)
          done
      | k ->
          let next = W.read_stream k ~seed in
          for _ = 1 to count do print_endline (next ()) done)
  | "load" ->
      Loadgen.run (kind ()) ~seed:(int "seed") ~port:(int "port")
        ~seconds:(float_of_string (get "seconds"))
        ~connections:(int "connections") ~out:(get "out")
  | "expect" ->
      let requests =
        In_channel.with_open_bin (get "pairs") In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               match String.index_opt l '\t' with
               | Some i -> Some (String.sub l 0 i)
               | None -> None)
        |> List.sort_uniq compare
      in
      Expect.run (kind ()) ~seed:(int "seed") ~data:(get "data") ~requests
        ~acked:(int "acked") ~out:(get "out")
  | "trace" ->
      let recovery =
        match List.assoc_opt "recovery" opts with
        | Some dirs -> String.split_on_char ',' dirs
        | None -> []
      in
      Trace.run (kind ()) ~seed:(int "seed") ~data:(get "data")
        ~seconds:(float_of_string (get "seconds"))
        ~reads_per_commit:(int "reads-per-commit") ~recovery ~out:(get "out")
  | _ ->
      prerr_endline "usage: pb (prepare|stream|load|expect|trace) --workload W --seed N ...";
      exit 2
