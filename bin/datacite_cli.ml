(* datacite: command-line front end.

   Subcommands:
     cite      load a CSV database + view spec, cite a query
     coverage  analyze view coverage of a workload file
     demo      run the paper's worked example
     rewrite   show the minimal equivalent rewritings of a query *)

module C = Dc_citation
module Cq = Dc_cq
module R = Dc_relational
open Cmdliner

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_views path =
  match C.Spec.parse_views (read_file path) with
  | Ok vs -> vs
  | Error e ->
      prerr_endline ("view spec error: " ^ e);
      exit 1

let load_db dir =
  match C.Spec.load_database ~dir with
  | Ok db -> db
  | Error e ->
      prerr_endline ("database error: " ^ e);
      exit 1

(* Common arguments *)

let data_arg =
  let doc = "Directory with schema.spec and <Relation>.csv files." in
  Arg.(required & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let views_arg =
  let doc = "Citation view specification file." in
  Arg.(required & opt (some file) None & info [ "views" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "Conjunctive query, e.g. 'Q(X) :- R(X,Y)'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let format_arg =
  let doc = "Output format: human, bibtex, ris, xml or json." in
  Arg.(value & opt string "human" & info [ "format"; "f" ] ~docv:"FMT" ~doc)

let policy_arg =
  let doc =
    "Rewriting policy (+R): min-size (default), keep-all or first."
  in
  Arg.(value & opt string "min-size" & info [ "rewriting-policy" ] ~doc)

let combiner_arg name doc =
  Arg.(value & opt string "union" & info [ name ] ~doc)

let partial_arg =
  let doc = "Allow partial rewritings (uncovered subgoals stay uncited)." in
  Arg.(value & opt bool false & info [ "partial" ] ~doc)

let parse_combiner name = function
  | "union" -> C.Policy.Union
  | "join" -> C.Policy.Join
  | other ->
      prerr_endline
        (Printf.sprintf "unknown %s combiner %S (use union or join)" name other);
      exit 1

let build_policy joint alt agg rpolicy =
  let alt_r =
    match rpolicy with
    | "min-size" -> C.Policy.Min_size
    | "keep-all" -> C.Policy.Keep_all
    | "first" -> C.Policy.First
    | other ->
        prerr_endline (Printf.sprintf "unknown rewriting policy %S" other);
        exit 1
  in
  C.Policy.make ~joint:(parse_combiner "joint" joint)
    ~alt:(parse_combiner "alt" alt) ~agg:(parse_combiner "agg" agg) ~alt_r ()

let parse_format f =
  match C.Fmt_citation.format_of_string f with
  | Ok fmt -> fmt
  | Error e ->
      prerr_endline e;
      exit 1

(* cite *)

let stats_arg =
  let doc =
    "Dump engine metrics (cache hit rates, rewriting counters, timers) to \
     stderr after the result."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cite_cmd =
  let run data views query format joint alt agg rpolicy partial sql stats =
    let db = load_db data in
    let cvs = load_views views in
    let policy = build_policy joint alt agg rpolicy in
    let selection =
      if rpolicy = "min-size" then `Min_estimated_size else `All
    in
    let engine = C.Engine.create ~policy ~selection ~partial db cvs in
    let parsed =
      if sql then
        let schemas =
          List.map R.Relation.schema (R.Database.relations db)
        in
        Result.map (C.Engine.cite engine) (Cq.Sql.compile ~schemas query)
      else C.Engine.cite_string engine query
    in
    match parsed with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok result ->
        Format.printf "rewritings: %d (evaluated %d)@."
          (List.length result.rewritings)
          (List.length result.selected);
        List.iter
          (fun (tc : C.Engine.tuple_citation) ->
            Format.printf "%a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp
              tc.expr)
          result.tuples;
        print_endline
          (C.Fmt_citation.render_result (parse_format format) ~query
             result.result_citations);
        if stats then
          Format.eprintf "%a@?" C.Metrics.pp (C.Engine.metrics engine)
  in
  let term =
    Term.(
      const run $ data_arg $ views_arg $ query_arg $ format_arg
      $ combiner_arg "joint" "Interpretation of · (union or join)."
      $ combiner_arg "alt" "Interpretation of + (union or join)."
      $ combiner_arg "agg" "Interpretation of Agg (union or join)."
      $ policy_arg $ partial_arg
      $ Arg.(
          value & flag
          & info [ "sql" ]
              ~doc:"Interpret QUERY as SQL (SELECT-FROM-WHERE) instead of Datalog.")
      $ stats_arg)
  in
  Cmd.v (Cmd.info "cite" ~doc:"Generate the citation for a query.") term

(* rewrite *)

let rewrite_cmd =
  let run views query partial under_keys data =
    let cvs = load_views views in
    let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list cvs) in
    match Cq.Parser.parse_query query with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok q ->
        let rewritings, stats =
          if under_keys then begin
            match data with
            | None ->
                prerr_endline "--under-keys requires --data for the schema keys";
                exit 1
            | Some dir ->
                let db = load_db dir in
                let deps =
                  List.concat_map
                    (fun rel ->
                      Cq.Dependency.key_of_schema (R.Relation.schema rel))
                    (R.Database.relations db)
                in
                Dc_rewriting.Rewrite.rewritings_under_deps ~deps vset q
          end
          else
            let o = Dc_rewriting.Rewrite.search ~partial vset q in
            (o.Dc_rewriting.Rewrite.queries, o.Dc_rewriting.Rewrite.stats)
        in
        Format.printf "candidates: %d, verified: %d, kept: %d@."
          stats.candidates stats.verified stats.kept;
        List.iter (fun r -> Format.printf "%a@." Cq.Query.pp r) rewritings
  in
  let under_keys_arg =
    let doc = "Rewrite modulo the key dependencies declared in schema.spec." in
    Arg.(value & flag & info [ "under-keys" ] ~doc)
  in
  let opt_data_arg =
    let doc = "Data directory (for --under-keys)." in
    Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)
  in
  let term =
    Term.(
      const run $ views_arg $ query_arg $ partial_arg $ under_keys_arg
      $ opt_data_arg)
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Show the minimal equivalent rewritings.")
    term

(* page *)

let page_cmd =
  let run data views view params version =
    let db = load_db data in
    let cvs = load_views views in
    let engine = C.Engine.create db cvs in
    let parse_param s =
      match String.index_opt s '=' with
      | None ->
          prerr_endline (Printf.sprintf "bad parameter %S (want NAME=VALUE)" s);
          exit 1
      | Some i ->
          let name = String.sub s 0 i in
          let value = String.sub s (i + 1) (String.length s - i - 1) in
          let v =
            match int_of_string_opt value with
            | Some n -> R.Value.Int n
            | None -> R.Value.Str value
          in
          (name, v)
    in
    let params = List.map parse_param params in
    match C.Page.render ?version engine ~view ~params with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok page -> print_endline (C.Page.to_text page)
  in
  let view_arg =
    let doc = "View name (the web page to render)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VIEW" ~doc)
  in
  let params_arg =
    let doc = "View parameter, NAME=VALUE; repeatable." in
    Arg.(value & opt_all string [] & info [ "param"; "p" ] ~doc)
  in
  let version_arg =
    let doc = "Version stamp to print on the page." in
    Arg.(value & opt (some int) None & info [ "at-version" ] ~doc)
  in
  let term =
    Term.(const run $ data_arg $ views_arg $ view_arg $ params_arg $ version_arg)
  in
  Cmd.v
    (Cmd.info "page" ~doc:"Render a web-page view with its citation.")
    term

(* coverage *)

let coverage_cmd =
  let run data views workload_file =
    let db = load_db data in
    let cvs = load_views views in
    let vset = C.Citation_view.Set.view_set (C.Citation_view.Set.of_list cvs) in
    match Cq.Parser.parse_program (read_file workload_file) with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok workload ->
        let report = C.Coverage.analyze ~db vset workload in
        Format.printf "%a@." C.Coverage.pp_report report
  in
  let workload_arg =
    let doc = "File of ';'-separated conjunctive queries." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let term = Term.(const run $ data_arg $ views_arg $ workload_arg) in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Coverage of a workload by the citation views.")
    term

(* store: durable fixity, on the same WAL + snapshot store that
   datacite_server --data-dir serves *)

module Store = Dc_storage.Store
module VS = R.Version_store

let fail msg =
  prerr_endline msg;
  exit 1

let store_dir_arg =
  let doc = "Store directory (write-ahead log + snapshots)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)

(* The retired CSV store layout ([base/] + [deltas/NNNNNN.delta]) is
   refused by name: read as "no store", it would invite an [init] that
   hides its versions. *)
let refuse_csv_layout dir =
  if Sys.file_exists (Filename.concat dir "base") then
    fail (dir ^ ": holds a store in the retired CSV layout (base/ + deltas/)")

(* Recover an existing store and hand [f] the handle and every
   committed version.  The directory must already hold a store:
   [Store.open_] would otherwise initialize it. *)
let with_store store_dir f =
  refuse_csv_layout store_dir;
  if not (Store.exists ~dir:store_dir) then
    fail (Printf.sprintf "%s: no store here (run `store init` first)" store_dir);
  match
    Store.open_ ~digest:C.Fixity.digest_db ~dir:store_dir ~db:R.Database.empty
      ()
  with
  | Error e -> fail e
  | Ok (_, None) -> fail (Printf.sprintf "%s: store vanished" store_dir)
  | Ok (st, Some r) ->
      Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st r.Store.store)

let store_init_cmd =
  let run data store_dir =
    let db = load_db data in
    refuse_csv_layout store_dir;
    if Store.exists ~dir:store_dir then
      fail (Printf.sprintf "%s already holds a store" store_dir);
    match Store.open_ ~digest:C.Fixity.digest_db ~dir:store_dir ~db () with
    | Error e -> fail e
    | Ok (st, _) ->
        Store.close st;
        Format.printf "initialized %s at version 0@." store_dir
  in
  let term = Term.(const run $ data_arg $ store_dir_arg) in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a versioned store from a CSV database.")
    term

let store_commit_cmd =
  let run store_dir delta_file =
    with_store store_dir @@ fun st store ->
    let schemas =
      List.map R.Relation.schema (R.Database.relations (VS.head_db store))
    in
    match R.Delta_io.load ~schemas delta_file with
    | Error e -> fail e
    | Ok delta -> (
        (* the server's commit path: apply, log to the WAL, then publish *)
        let ve =
          C.Versioned_engine.of_engine ~store (C.Engine.create (VS.head_db store) [])
        in
        C.Versioned_engine.set_durability ve st;
        match C.Versioned_engine.commit_delta ve delta with
        | Error e -> fail e
        | Ok v -> Format.printf "committed version %d@." v)
  in
  let delta_arg =
    let doc = "Delta file (CSV lines: +|-,Relation,field,...)." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DELTA" ~doc)
  in
  let term = Term.(const run $ store_dir_arg $ delta_arg) in
  Cmd.v (Cmd.info "commit" ~doc:"Apply a delta file as a new version.") term

let store_log_cmd =
  let run store_dir =
    with_store store_dir @@ fun _ store ->
    List.iter
      (fun v ->
        let db = VS.checkout_exn store v in
        Format.printf "v%d: %d tuples, digest %s@." v
          (R.Database.total_tuples db) (C.Fixity.digest_db db))
      (VS.versions store)
  in
  let term = Term.(const run $ store_dir_arg) in
  let doc = "List the store's versions with their fixity digests." in
  Cmd.v (Cmd.info "log" ~doc) term

let store_query_arg =
  let doc = "Conjunctive query." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)

let store_cite_cmd =
  let run store_dir views query format =
    with_store store_dir @@ fun _ store ->
    let cvs = load_views views in
    match Cq.Parser.parse_query query with
    | Error e -> fail e
    | Ok q ->
        let vc = C.Fixity.cite ~store ~views:cvs q in
        Format.printf "cited at version %d@." vc.version;
        List.iter (fun t -> Format.printf "%a@." R.Tuple.pp t) vc.tuples;
        Format.printf "formal: %a@." C.Cite_expr.pp vc.expr;
        print_endline (C.Fmt_citation.render (parse_format format) vc.citations)
  in
  let term =
    Term.(const run $ store_dir_arg $ views_arg $ store_query_arg $ format_arg)
  in
  Cmd.v
    (Cmd.info "cite" ~doc:"Cite a query against the store's head version.")
    term

let store_resolve_cmd =
  let run store_dir views version query =
    with_store store_dir @@ fun _ store ->
    let cvs = load_views views in
    match Cq.Parser.parse_query query with
    | Error e -> fail e
    | Ok q -> (
        match VS.checkout store version with
        | None -> fail (Printf.sprintf "no version %d" version)
        | Some db ->
            let result = C.Engine.cite (C.Engine.create db cvs) q in
            Format.printf "answer as of version %d:@." version;
            List.iter
              (fun (tc : C.Engine.tuple_citation) ->
                Format.printf "%a@." R.Tuple.pp tc.tuple)
              result.tuples)
  in
  let version_arg =
    let doc = "Version to resolve at (--at N)." in
    Arg.(required & opt (some int) None & info [ "at" ] ~docv:"VERSION" ~doc)
  in
  let term =
    Term.(const run $ store_dir_arg $ views_arg $ version_arg $ store_query_arg)
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:"Re-execute a cited query at a historical version (fixity).")
    term

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Durable versioned store (fixity).")
    [ store_init_cmd; store_commit_cmd; store_log_cmd; store_cite_cmd;
      store_resolve_cmd ]

(* demo *)

let demo_cmd =
  let run format =
    let db = Dc_gtopdb.Paper_views.example_database () in
    let engine = C.Engine.create db Dc_gtopdb.Paper_views.all in
    let result = C.Engine.cite engine Dc_gtopdb.Paper_views.query_q in
    Format.printf "query: %a@." Cq.Query.pp result.query;
    List.iter
      (fun (tc : C.Engine.tuple_citation) ->
        Format.printf "%a : %a@." R.Tuple.pp tc.tuple C.Cite_expr.pp tc.expr)
      result.tuples;
    print_endline
      (C.Fmt_citation.render (parse_format format) result.result_citations)
  in
  let term = Term.(const run $ format_arg) in
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's worked example.") term

let () =
  let info =
    Cmd.info "datacite" ~version:"1.0.0"
      ~doc:"Fine-grained data citation via citation views"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cite_cmd; rewrite_cmd; coverage_cmd; page_cmd; store_cmd; demo_cmd ]))
