open Testutil
module R = Dc_relational
module C = Dc_citation
module D = Dc_relational.Delta
module Dio = Dc_relational.Delta_io

let schemas = Dc_gtopdb.Schema_def.all_schemas

let sample_delta () =
  D.empty
  |> (fun d ->
       D.insert d "Family" (tuple [ int 31; str "Orexin"; str "O1" ]))
  |> (fun d -> D.delete d "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ]))
  |> fun d -> D.insert d "Committee" (tuple [ int 31; str "Some, One" ])

let test_delta_parse_errors () =
  Alcotest.(check bool) "unknown relation" true
    (Result.is_error (Dio.parse ~schemas "+,Nope,1\n"));
  Alcotest.(check bool) "bad arity" true
    (Result.is_error (Dio.parse ~schemas "+,Family,1\n"));
  Alcotest.(check bool) "bad sign" true
    (Result.is_error (Dio.parse ~schemas "!,Family,1,a,b\n"));
  Alcotest.(check bool) "bad type" true
    (Result.is_error (Dio.parse ~schemas "+,Family,xx,a,b\n"));
  (* comments and blanks fine *)
  Alcotest.(check bool) "comments ok" true
    (Result.is_ok (Dio.parse ~schemas "# nothing\n\n"))

(* The CLI's delta files are CSV: a field with a comma or semicolon is
   quoted, and comes back as exactly that string. *)
let test_delta_file_quoted_fields () =
  match
    Dio.parse ~schemas
      "+,Committee,31,\"Smith, J.; Doe, A.\"\n-,FamilyIntro,21,Dopamine intro\n"
  with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check (list tuple_t)) "quoted field kept whole"
        [ tuple [ int 31; str "Smith, J.; Doe, A." ] ]
        (D.inserted d "Committee");
      Alcotest.(check (list tuple_t)) "bare field"
        [ tuple [ int 21; str "Dopamine intro" ] ]
        (D.deleted d "FamilyIntro")

let with_temp_dir f =
  let dir = Filename.temp_file "datacite" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let test_save_load_database () =
  with_temp_dir (fun dir ->
      let db = paper_db () in
      C.Spec.save_database db ~dir;
      match C.Spec.load_database ~dir with
      | Error e -> Alcotest.fail e
      | Ok db' ->
          Alcotest.(check bool) "roundtrip" true (R.Database.equal db db'))

let test_schema_render_roundtrip () =
  let text = C.Spec.render_schemas schemas in
  match C.Spec.parse_schemas text with
  | Error e -> Alcotest.fail e
  | Ok schemas' ->
      Alcotest.(check int) "same count" (List.length schemas)
        (List.length schemas');
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (R.Schema.name a) true (R.Schema.equal a b))
        schemas schemas'

(* The durable store the CLI and the server share ([Dc_storage.Store]),
   committed to through a versioned engine with durability armed — the
   server's commit path — and reopened the way a new process would. *)
let open_store dir db =
  match Dc_storage.Store.open_ ~digest:C.Fixity.digest_db ~dir ~db () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let durable_engine dir db =
  let st, _ = open_store dir db in
  let ve = C.Versioned_engine.create db Dc_gtopdb.Paper_views.all in
  C.Versioned_engine.set_durability ve st;
  (st, ve)

let reopen dir =
  match open_store dir R.Database.empty with
  | st, Some r -> (st, r)
  | _, None -> Alcotest.fail "a populated store must recover, not reinitialize"

let test_store_lifecycle () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let db = paper_db () in
      let st, ve = durable_engine store_dir db in
      Alcotest.(check bool) "initialized" true
        (Dc_storage.Store.exists ~dir:store_dir);
      Alcotest.(check (result int string)) "v1" (Ok 1)
        (C.Versioned_engine.commit_delta ve (sample_delta ()));
      Alcotest.(check (result int string)) "v2" (Ok 2)
        (C.Versioned_engine.commit_delta ve
           (D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])));
      Dc_storage.Store.close st;
      (* reopening recovers; the database passed in is not a new v0 *)
      let st, r = reopen store_dir in
      let store = r.Dc_storage.Store.store in
      Alcotest.(check (list int)) "versions" [ 0; 1; 2 ]
        (R.Version_store.versions store);
      let v0 = R.Version_store.checkout_exn store 0 in
      Alcotest.(check bool) "v0 = original" true (R.Database.equal v0 db);
      let v2 = R.Version_store.checkout_exn store 2 in
      Alcotest.(check bool) "v2 has orexin" true
        (R.Relation.mem
           (R.Database.relation_exn v2 "Family")
           (tuple [ int 31; str "Orexin"; str "O1" ]));
      Alcotest.(check bool) "v2 keeps the comma value" true
        (R.Relation.mem
           (R.Database.relation_exn v2 "Committee")
           (tuple [ int 31; str "Some, One" ]));
      Alcotest.(check bool) "v2 lost dopamine intro" false
        (R.Relation.mem
           (R.Database.relation_exn v2 "FamilyIntro")
           (tuple [ int 21; str "Dopamine intro" ]));
      Dc_storage.Store.close st)

let test_store_fixity_after_reload () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let st, ve = durable_engine store_dir (paper_db ()) in
      let vc =
        C.Fixity.cite
          ~store:(C.Versioned_engine.store ve)
          ~views:Dc_gtopdb.Paper_views.all Dc_gtopdb.Paper_views.query_q
      in
      (* evolve on disk, recover in a separate "process" *)
      ignore
        (C.Versioned_engine.commit_delta ve
           (D.delete D.empty "FamilyIntro" (tuple [ int 21; str "Dopamine intro" ])));
      Dc_storage.Store.close st;
      let st, r = reopen store_dir in
      Alcotest.(check bool) "old citation verifies after reload" true
        (C.Fixity.verify ~store:r.Dc_storage.Store.store
           ~views:Dc_gtopdb.Paper_views.all vc);
      Dc_storage.Store.close st)

let test_bad_delta_rejected_by_commit () =
  with_temp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let st, ve = durable_engine store_dir (paper_db ()) in
      let bad = D.insert D.empty "Nope" (tuple [ int 1 ]) in
      Alcotest.(check bool) "rejected" true
        (Result.is_error (C.Versioned_engine.commit_delta ve bad));
      Dc_storage.Store.close st;
      (* a rejected commit never reaches the log *)
      let st, r = reopen store_dir in
      Alcotest.(check int) "nothing replayed" 0 r.Dc_storage.Store.replayed;
      Alcotest.(check (list int)) "only v0" [ 0 ]
        (R.Version_store.versions r.Dc_storage.Store.store);
      Dc_storage.Store.close st)

let suite =
  [
    Alcotest.test_case "delta parse errors" `Quick test_delta_parse_errors;
    Alcotest.test_case "delta file quoted fields" `Quick
      test_delta_file_quoted_fields;
    Alcotest.test_case "save/load database" `Quick test_save_load_database;
    Alcotest.test_case "schema render roundtrip" `Quick test_schema_render_roundtrip;
    Alcotest.test_case "store lifecycle" `Quick test_store_lifecycle;
    Alcotest.test_case "fixity across reload" `Quick test_store_fixity_after_reload;
    Alcotest.test_case "bad delta rejected" `Quick test_bad_delta_rejected_by_commit;
  ]
