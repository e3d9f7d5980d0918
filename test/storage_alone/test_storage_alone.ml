(* A program linking only dc_storage, dc_clock and dc_relational: every
   [Always] append to a WAL must show up in the metrics registry. *)

module M = Dc_clock.Metrics
module Wal = Dc_storage.Wal

let appends = 3

let () =
  let path = Filename.temp_file "dc-storage-alone" ".wal" in
  Sys.remove path;
  let w =
    match Wal.create ~path ~fsync:Wal.Always with
    | Ok w -> w
    | Error e -> failwith e
  in
  for i = 1 to appends do
    match Wal.append w (Wal.Register (Printf.sprintf "Q%d(X) :- R(X)" i)) with
    | Ok () -> ()
    | Error e -> failwith e
  done;
  Wal.close w;
  Sys.remove path;
  let check name expected got =
    if got <> expected then begin
      Printf.eprintf "%s: expected %d, got %d\n" name expected got;
      exit 1
    end
  in
  let count k = M.count M.default k in
  check M.Key.wal_appends appends (count M.Key.wal_appends);
  check M.Key.wal_fsyncs appends (count M.Key.wal_fsyncs);
  check "wal_fsync timer calls" appends (snd (M.timer M.default "wal_fsync"));
  print_endline "storage alone: wal metrics recorded"
