(* The write-ahead log: an append-only file of framed records.

   Layout: an 8-byte magic, then {!Frame} records.  Each record payload
   is binary, built from the same {!Codec} primitives as a snapshot, so
   every value is type-tagged and replays as exactly the value that was
   committed — no text grammar sits between a commit and its recovery:

   {v
     'C' version:varint at:zigzag count:varint change*   a committed delta
         change ::= ('+' | '-') relation:string arity:varint value*
     'R' query:string                                    a registered query
   v}

   Scanning stops at a torn tail — a last frame cut short, or a bad
   frame followed only by zeros (the tail a crash mid-append leaves;
   reopening truncates it).  It refuses a CRC-valid frame that does not
   decode, and a whole CRC-failing frame with live bytes after it: both
   were written whole, and truncating there would drop committed
   versions.  Appends never rewrite earlier bytes, so an fsynced prefix
   stays valid whatever happens to the tail. *)

module R = Dc_relational
module Metrics = Dc_clock.Metrics

let magic = "DCWAL02\n"

type record =
  | Commit of { version : int; at : int; delta : R.Delta.t }
  | Register of string

let encode_record record =
  let buf = Buffer.create 64 in
  (match record with
  | Commit { version; at; delta } ->
      Buffer.add_char buf 'C';
      Codec.add_varint buf version;
      Codec.add_zigzag buf at;
      Codec.add_varint buf (R.Delta.size delta);
      List.iter
        (fun (rel, changes) ->
          List.iter
            (fun (c : R.Delta.change) ->
              let sign, tuple =
                match c with Insert t -> ('+', t) | Delete t -> ('-', t)
              in
              Buffer.add_char buf sign;
              Codec.add_string buf rel;
              Codec.add_varint buf (Array.length tuple);
              Array.iter (Codec.add_value buf) tuple)
            changes)
        (R.Delta.changes delta)
  | Register q ->
      Buffer.add_char buf 'R';
      Codec.add_string buf q);
  Buffer.contents buf

let read_change r delta =
  let sign = Codec.read_byte r in
  let rel = Codec.read_string r in
  let arity = Codec.read_varint r in
  let tuple = Array.init arity (fun _ -> Codec.read_value r) in
  match Char.chr sign with
  | '+' -> R.Delta.insert delta rel tuple
  | '-' -> R.Delta.delete delta rel tuple
  | _ -> Codec.corrupt "bad change sign %d" sign

let decode_record payload =
  Codec.decode payload @@ fun r ->
  match Char.chr (Codec.read_byte r) with
  | 'R' -> Register (Codec.read_string r)
  | 'C' -> (
      let version = Codec.read_varint r in
      try
        let at = Codec.read_zigzag r in
        let n = Codec.read_varint r in
        let rec changes delta k =
          if k = 0 then delta else changes (read_change r delta) (k - 1)
        in
        Commit { version; at; delta = changes R.Delta.empty n }
      with Codec.Corrupt e ->
        Codec.corrupt "commit record for version %d: %s" version e)
  | c -> Codec.corrupt "unknown record tag %C" c

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

type scan = {
  records : record list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;
      (** offset just past the last valid record (includes the magic);
          reopening truncates the file here *)
  total_bytes : int;
  corrupt : string option;
      (** why the scan stopped before [total_bytes], when it did *)
}

let scan_string contents =
  let n = String.length contents in
  let m = String.length magic in
  let head = String.sub contents 0 (min n m) in
  if head <> magic then
    (* A foreign file or another format version (the text-record
       "DCWAL01\n") is not a torn tail — appends cannot damage the first
       8 bytes — so refuse rather than "recover" to empty. *)
    Error (Printf.sprintf "bad WAL magic (got %S, want %S)" head magic)
  else
    let rec zeros_from i =
      i >= n || (contents.[i] = '\000' && zeros_from (i + 1))
    in
    let rec go acc last_version pos =
      let stop corrupt =
        Ok { records = List.rev acc; valid_bytes = pos; total_bytes = n;
             corrupt }
      in
      (* A whole bad frame with live bytes after it was not torn (appends
         never rewrite earlier bytes); only zeros after it — a file grown
         before its data blocks reached the disk — make it a torn tail. *)
      let bad next reason =
        if zeros_from next then stop (Some reason)
        else
          Error
            (Printf.sprintf
               "corrupt record at byte offset %d (after version %d) with %d \
                byte(s) after it: %s"
               pos last_version (n - next) reason)
      in
      match Frame.read contents pos with
      | Frame.End -> stop None
      | Frame.Corrupt reason -> stop (Some reason)
      | Frame.Bad_crc next -> bad next "frame CRC mismatch"
      | Frame.Frame ("", next) -> bad next "empty frame" (* no record is "" *)
      | Frame.Frame (payload, next) -> (
          match decode_record payload with
          | Ok (Commit { version; _ } as r) -> go (r :: acc) version next
          | Ok r -> go (r :: acc) last_version next
          | Error reason ->
              Error
                (Printf.sprintf
                   "CRC-valid record at byte offset %d (after version %d) \
                    does not decode: %s"
                   pos last_version reason))
    in
    go [] 0 m

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let scan_file path =
  match read_file path with
  | Error e -> Error e (* Sys_error / Unix errors already carry the path *)
  | Ok contents ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (scan_string contents)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type fsync = Always | Interval of float | Never

(* Group commit ([Always] policy): every append gets a generation
   number; one appender at a time becomes the {e leader} and fsyncs
   with the writer lock {e released}, so concurrent committers keep
   appending frames meanwhile.  When the leader returns, everything
   written before its fsync started ([synced_gen]) is durable in one
   barrier; followers parked on [cond] wake, see their generation
   covered, and return without ever touching the disk.  Under serial
   load the leader is alone and the behaviour (and fsync count) is
   exactly the old one-fsync-per-append. *)
type writer = {
  fd : Unix.file_descr;
  path : string;
  fsync : fsync;
  mu : Mutex.t;
  cond : Condition.t;  (* group-commit handoff: synced_gen advanced *)
  mutable write_gen : int;  (* appends written (frame on the fd) *)
  mutable synced_gen : int;  (* appends covered by some fsync *)
  mutable sync_inflight : bool;  (* a leader is fsyncing, lock released *)
  mutable last_sync : float;  (* monotonic; Interval bookkeeping *)
  mutable dirty : bool;
  mutable closed : bool;
}

let wrap_unix path what f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s: %s" path what (Unix.error_message e))

let writer_of_fd ~path ~fsync fd =
  {
    fd;
    path;
    fsync;
    mu = Mutex.create ();
    cond = Condition.create ();
    write_gen = 0;
    synced_gen = 0;
    sync_inflight = false;
    last_sync = Dc_clock.Monotonic.now_s ();
    dirty = false;
    closed = false;
  }

let create ~path ~fsync =
  wrap_unix path "create" (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
      in
      (try
         let n = Unix.write_substring fd magic 0 (String.length magic) in
         assert (n = String.length magic);
         Unix.fsync fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      writer_of_fd ~path ~fsync fd)

(* Reopen after a scan: the file is truncated to the scanned valid
   prefix — the one write that ever shortens a WAL — so the next append
   lands where the last valid record ended. *)
let open_existing ~path ~fsync ~valid_bytes =
  wrap_unix path "open" (fun () ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (try
         (if (Unix.fstat fd).Unix.st_size <> valid_bytes then begin
            Unix.ftruncate fd valid_bytes;
            Unix.fsync fd
          end);
         ignore (Unix.lseek fd 0 Unix.SEEK_END)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      writer_of_fd ~path ~fsync fd)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Direct fsync with the lock held throughout (Interval policy, explicit
   [sync], [close]): no appender can interleave, so the barrier covers
   everything written so far. *)
let sync_locked w =
  if w.dirty then begin
    Metrics.record_time "wal_fsync" (fun () -> Unix.fsync w.fd);
    Metrics.record Metrics.Key.wal_fsyncs;
    w.dirty <- false;
    if w.write_gen > w.synced_gen then w.synced_gen <- w.write_gen
  end;
  w.last_sync <- Dc_clock.Monotonic.now_s ()

(* Called with [w.mu] held; returns (still holding it) once generation
   [my_gen] is covered by a completed fsync.  A failed leader fsync
   wakes the followers to retry as leaders themselves — each append
   either ends durable or returns its own error, never a false Ok. *)
let group_sync_locked w my_gen =
  let rec wait () =
    if w.synced_gen >= my_gen then ()
    else if w.closed then
      (* closed under a waiting follower: durability unknowable *)
      raise (Unix.Unix_error (Unix.EBADF, "fsync", w.path))
    else if w.sync_inflight then begin
      Condition.wait w.cond w.mu;
      wait ()
    end
    else begin
      w.sync_inflight <- true;
      let target = w.write_gen in
      Mutex.unlock w.mu;
      let res =
        try
          Metrics.record_time "wal_fsync" (fun () -> Unix.fsync w.fd);
          None
        with Unix.Unix_error (e, fn, arg) -> Some (e, fn, arg)
      in
      Mutex.lock w.mu;
      w.sync_inflight <- false;
      (match res with
      | None ->
          Metrics.record Metrics.Key.wal_fsyncs;
          let covered = target - w.synced_gen in
          if covered >= 2 then Metrics.record Metrics.Key.wal_group_commits;
          if target > w.synced_gen then w.synced_gen <- target;
          w.dirty <- w.write_gen > w.synced_gen;
          w.last_sync <- Dc_clock.Monotonic.now_s ()
      | Some _ -> ());
      Condition.broadcast w.cond;
      match res with
      | None -> () (* target >= my_gen: we are covered *)
      | Some (e, fn, arg) -> raise (Unix.Unix_error (e, fn, arg))
    end
  in
  wait ()

let append w record =
  Mutex.protect w.mu (fun () ->
      if w.closed then Error (w.path ^ ": WAL is closed")
      else
        wrap_unix w.path "append" (fun () ->
            Metrics.record_time "wal_append" (fun () ->
                write_all w.fd (Frame.to_string (encode_record record)));
            Metrics.record Metrics.Key.wal_appends;
            w.write_gen <- w.write_gen + 1;
            w.dirty <- true;
            match w.fsync with
            | Always -> group_sync_locked w w.write_gen
            | Never -> ()
            | Interval s ->
                if Dc_clock.Monotonic.now_s () -. w.last_sync >= s then
                  sync_locked w))

let sync w =
  Mutex.protect w.mu (fun () ->
      if w.closed then Ok ()
      else wrap_unix w.path "fsync" (fun () -> sync_locked w))

let close w =
  Mutex.protect w.mu (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (try if w.dirty then Unix.fsync w.fd with Unix.Unix_error _ -> ());
        (try Unix.close w.fd with Unix.Unix_error _ -> ());
        (* group-commit followers parked on the condition must not hang *)
        Condition.broadcast w.cond
      end)
