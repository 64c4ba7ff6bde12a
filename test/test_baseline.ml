module Twopl = Afs_baseline.Twopl
module Tsorder = Afs_baseline.Tsorder

let quick = Helpers.quick
let bytes = Helpers.bytes

(* {2 Two-phase locking (XDFS-style)} *)

let fresh_2pl ?(vulnerable_after_ms = 50.0) () =
  let clock_value = ref 0.0 in
  let t = Twopl.create ~vulnerable_after_ms ~clock:(fun () -> !clock_value) () in
  (t, clock_value)

let ok_2pl = function
  | Ok v -> v
  | Error (d : Twopl.denial) -> Alcotest.failf "denied by txn %d" d.Twopl.holder

let test_2pl_simple_txn () =
  let t, _ = fresh_2pl () in
  let txn = Twopl.begin_ t in
  let v = ok_2pl (Twopl.read t txn ~obj:1) in
  Alcotest.(check int) "fresh object empty" 0 (Bytes.length v);
  ignore (ok_2pl (Twopl.write t txn ~obj:1 (bytes "hello")));
  ignore (ok_2pl (Twopl.commit t txn));
  Helpers.check_bytes "committed" "hello" (Twopl.value t ~obj:1)

let test_2pl_writes_buffered_until_commit () =
  let t, _ = fresh_2pl () in
  let txn = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t txn ~obj:1 (bytes "draft")));
  Alcotest.(check int) "not visible" 0 (Bytes.length (Twopl.value t ~obj:1));
  ignore (ok_2pl (Twopl.commit t txn));
  Helpers.check_bytes "visible" "draft" (Twopl.value t ~obj:1)

let test_2pl_readers_share () =
  let t, _ = fresh_2pl () in
  let a = Twopl.begin_ t and b = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.read t a ~obj:1));
  ignore (ok_2pl (Twopl.read t b ~obj:1));
  ignore (ok_2pl (Twopl.commit t a));
  ignore (ok_2pl (Twopl.commit t b))

let test_2pl_iwrite_excludes_iwrite () =
  let t, _ = fresh_2pl () in
  let a = Twopl.begin_ t and b = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t a ~obj:1 (bytes "a")));
  (match Twopl.write t b ~obj:1 (bytes "b") with
  | Error d -> Alcotest.(check int) "held by a" (Twopl.txn_id a) d.Twopl.holder
  | Ok () -> Alcotest.fail "second intention-write granted");
  Twopl.abort t a;
  ignore (ok_2pl (Twopl.write t b ~obj:1 (bytes "b")));
  ignore (ok_2pl (Twopl.commit t b));
  Helpers.check_bytes "b's write" "b" (Twopl.value t ~obj:1)

let test_2pl_iwrite_compatible_with_readers_until_commit () =
  let t, _ = fresh_2pl () in
  let writer = Twopl.begin_ t and reader = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.read t reader ~obj:1));
  (* Intention-write coexists with the reader... *)
  ignore (ok_2pl (Twopl.write t writer ~obj:1 (bytes "w")));
  (* ...but the commit upgrade is denied while the reader holds on. *)
  (match Twopl.commit t writer with
  | Error d -> Alcotest.(check int) "reader in the way" (Twopl.txn_id reader) d.Twopl.holder
  | Ok () -> Alcotest.fail "commit lock granted over a reader");
  ignore (ok_2pl (Twopl.commit t reader));
  ignore (ok_2pl (Twopl.commit t writer));
  Helpers.check_bytes "landed after reader left" "w" (Twopl.value t ~obj:1)

let test_2pl_reader_blocked_by_commit_lock () =
  (* Can't easily hold a commit lock open (commit is atomic here), but a
     reader arriving against an intention-write still succeeds, which is
     the XDFS compatibility matrix. *)
  let t, _ = fresh_2pl () in
  let writer = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t writer ~obj:1 (bytes "w")));
  let reader = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.read t reader ~obj:1));
  Twopl.abort t writer;
  ignore (ok_2pl (Twopl.commit t reader))

let test_2pl_vulnerable_lock_prodded () =
  let t, clock = fresh_2pl ~vulnerable_after_ms:10.0 () in
  let hoarder = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t hoarder ~obj:1 (bytes "hoard")));
  clock := 5.0;
  (* Too early: the holder is busy. *)
  Alcotest.(check bool) "prod refused early" false (Twopl.prod t ~victim:(Twopl.txn_id hoarder));
  clock := 20.0;
  (match Twopl.write t (Twopl.begin_ t) ~obj:1 (bytes "want it") with
  | Error d -> Alcotest.(check bool) "vulnerable now" true d.Twopl.vulnerable
  | Ok () -> Alcotest.fail "lock vanished");
  Alcotest.(check bool) "prod succeeds" true (Twopl.prod t ~victim:(Twopl.txn_id hoarder));
  Alcotest.(check bool) "hoarder aborted" false (Twopl.is_active t hoarder)

let test_2pl_abort_releases () =
  let t, _ = fresh_2pl () in
  let a = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t a ~obj:1 (bytes "a")));
  Twopl.abort t a;
  let b = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t b ~obj:1 (bytes "b")));
  ignore (ok_2pl (Twopl.commit t b));
  Helpers.check_bytes "no effect from aborted" "b" (Twopl.value t ~obj:1)

let test_2pl_crash_recovery_work () =
  let t, _ = fresh_2pl () in
  let a = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.read t a ~obj:1));
  ignore (ok_2pl (Twopl.write t a ~obj:2 (bytes "a")));
  let b = Twopl.begin_ t in
  ignore (ok_2pl (Twopl.write t b ~obj:3 (bytes "b")));
  Twopl.crash t;
  Alcotest.(check bool) "down" false (Twopl.is_up t);
  let stats = Twopl.recover t in
  Alcotest.(check bool) "locks cleared" true (stats.Twopl.locks_cleared >= 3);
  Alcotest.(check int) "both rolled back" 2 stats.Twopl.txns_rolled_back;
  Alcotest.(check bool) "up again" true (Twopl.is_up t);
  (* In-flight writes were lost with their transactions. *)
  Alcotest.(check int) "obj 2 clean" 0 (Bytes.length (Twopl.value t ~obj:2))

let test_2pl_crash_mid_commit_replayed () =
  let t, _ = fresh_2pl () in
  let a = Twopl.begin_ t in
  for obj = 1 to 6 do
    ignore (ok_2pl (Twopl.write t a ~obj (bytes (Printf.sprintf "v%d" obj))))
  done;
  (match Twopl.crash_mid_commit t a with Ok () -> () | Error _ -> Alcotest.fail "denied");
  Alcotest.(check bool) "down" false (Twopl.is_up t);
  (* Atomicity is violated until recovery replays the intentions list. *)
  let stats = Twopl.recover t in
  Alcotest.(check int) "six entries replayed" 6 stats.Twopl.intentions_replayed;
  for obj = 1 to 6 do
    Helpers.check_bytes (Printf.sprintf "obj %d" obj) (Printf.sprintf "v%d" obj)
      (Twopl.value t ~obj)
  done

(* {2 Timestamp ordering (SWALLOW-style)} *)

let ok_ts_w = function
  | Ok v -> v
  | Error (`Late_write rts) -> Alcotest.failf "late write (rts %d)" rts

let test_ts_simple_txn () =
  let t = Tsorder.create () in
  let txn = Tsorder.begin_ t in
  ignore (Tsorder.read t txn ~obj:1);
  ok_ts_w (Tsorder.write t txn ~obj:1 (bytes "hello"));
  ok_ts_w (Tsorder.commit t txn);
  Helpers.check_bytes "committed" "hello" (Tsorder.value t ~obj:1)

let test_ts_timestamps_monotonic () =
  let t = Tsorder.create () in
  let a = Tsorder.begin_ t and b = Tsorder.begin_ t in
  Alcotest.(check bool) "ordered" true (Tsorder.timestamp_of a < Tsorder.timestamp_of b)

let test_ts_late_write_aborts () =
  let t = Tsorder.create () in
  let old_txn = Tsorder.begin_ t in
  let new_txn = Tsorder.begin_ t in
  (* The newer transaction reads first; the older one's write is late. *)
  ignore (Tsorder.read t new_txn ~obj:1);
  (match Tsorder.write t old_txn ~obj:1 (bytes "too late") with
  | Error (`Late_write rts) -> Alcotest.(check int) "killer rts" (Tsorder.timestamp_of new_txn) rts
  | Ok () -> Alcotest.fail "late write accepted");
  Tsorder.abort t old_txn;
  ok_ts_w (Tsorder.commit t new_txn)

let test_ts_read_your_own_writes () =
  let t = Tsorder.create () in
  let txn = Tsorder.begin_ t in
  ok_ts_w (Tsorder.write t txn ~obj:1 (bytes "mine"));
  Helpers.check_bytes "buffered read" "mine" (Tsorder.read t txn ~obj:1);
  Tsorder.abort t txn;
  Alcotest.(check int) "abort leaves nothing" 0 (Bytes.length (Tsorder.value t ~obj:1))

let test_ts_old_reader_sees_old_version () =
  let t = Tsorder.create () in
  let old_reader = Tsorder.begin_ t in
  let writer = Tsorder.begin_ t in
  ok_ts_w (Tsorder.write t writer ~obj:1 (bytes "new value"));
  ok_ts_w (Tsorder.commit t writer);
  (* The old reader's timestamp predates the write: multiversion order
     serves it the old (empty) state instead of aborting. *)
  Alcotest.(check int) "old state" 0 (Bytes.length (Tsorder.read t old_reader ~obj:1))

let test_ts_commit_revalidates () =
  let t = Tsorder.create () in
  let w = Tsorder.begin_ t in
  ok_ts_w (Tsorder.write t w ~obj:1 (bytes "draft"));
  (* A later transaction reads the state the buffered write would
     supersede, after our write but before our commit. *)
  let r = Tsorder.begin_ t in
  ignore (Tsorder.read t r ~obj:1);
  (match Tsorder.commit t w with
  | Error (`Late_write _) -> ()
  | Ok () -> Alcotest.fail "commit must revalidate");
  Alcotest.(check bool) "writer dead" false (Tsorder.is_active w)

let test_ts_serial_equivalence_of_committed () =
  (* Random mix; committed transactions must be equivalent to timestamp
     order. With single-object writes, the final value must be the one
     written by the highest committed timestamp. *)
  let t = Tsorder.create () in
  let rng = Afs_util.Xrng.create 5 in
  let highest = ref 0 in
  for _ = 1 to 50 do
    let txn = Tsorder.begin_ t in
    let ts = Tsorder.timestamp_of txn in
    let obj = Afs_util.Xrng.int rng 3 in
    let outcome =
      ignore (Tsorder.read t txn ~obj);
      match Tsorder.write t txn ~obj (bytes (string_of_int ts)) with
      | Error (`Late_write _) -> Error ()
      | Ok () -> ( match Tsorder.commit t txn with Ok () -> Ok () | Error _ -> Error ())
    in
    (match outcome with
    | Ok () when obj = 0 -> if ts > !highest then highest := ts
    | _ -> Tsorder.abort t txn)
  done;
  if !highest > 0 then
    Helpers.check_bytes "highest committed ts wins" (string_of_int !highest)
      (Tsorder.value t ~obj:0)

let () =
  Alcotest.run "baselines"
    [
      ( "twopl",
        [
          quick "simple txn" test_2pl_simple_txn;
          quick "writes buffered" test_2pl_writes_buffered_until_commit;
          quick "readers share" test_2pl_readers_share;
          quick "iwrite excludes iwrite" test_2pl_iwrite_excludes_iwrite;
          quick "iwrite compatible with readers" test_2pl_iwrite_compatible_with_readers_until_commit;
          quick "reader vs intention-write" test_2pl_reader_blocked_by_commit_lock;
          quick "vulnerable locks prodded" test_2pl_vulnerable_lock_prodded;
          quick "abort releases" test_2pl_abort_releases;
          quick "crash recovery work" test_2pl_crash_recovery_work;
          quick "mid-commit crash replayed" test_2pl_crash_mid_commit_replayed;
        ] );
      ( "tsorder",
        [
          quick "simple txn" test_ts_simple_txn;
          quick "timestamps monotonic" test_ts_timestamps_monotonic;
          quick "late write aborts" test_ts_late_write_aborts;
          quick "read your own writes" test_ts_read_your_own_writes;
          quick "old reader served old version" test_ts_old_reader_sees_old_version;
          quick "commit revalidates" test_ts_commit_revalidates;
          quick "serial equivalence" test_ts_serial_equivalence_of_committed;
        ] );
    ]
