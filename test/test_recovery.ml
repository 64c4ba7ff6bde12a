(* End-to-end crash recovery: the paper's headline operational claim.

   "With optimistic concurrency control, the file system is always in a
   consistent state. After a crash, there is no necessity for recovery: no
   rollback is required, no locks have to be cleared, no intentions lists
   have to be carried out." (§6)

   These tests crash servers at adversarial points and verify that the
   committed state is always intact, that a fresh server rebuilds its file
   table from raw blocks alone, and that clients only ever need to redo
   their unfinished update. *)

open Afs_core
module Block_server = Afs_block.Block_server
module Stable_pair = Afs_stable.Stable_pair
module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let commit_write srv f p s =
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path p) (bytes s));
  ok (Server.commit srv v)

(* {2 Crash points around commit} *)

let test_crash_before_commit_loses_only_the_update () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "unfinished"));
  Server.crash srv;
  (* Same store, fresh server process. *)
  let srv2 = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv2 (Helpers.ok_str (store.Store.list_blocks ()))));
  (match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "committed state intact" "p0"
        (ok (Server.read_page srv2 cur (path [ 0 ])));
      (* The client redoes; no rollback was ever run. *)
      commit_write srv2 fc [ 0 ] "redone";
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "redo lands" "redone" (ok (Server.read_page srv2 cur (path [ 0 ])))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l))

let test_crash_after_commit_preserves_update () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  commit_write srv f [ 1 ] "durable";
  Server.crash srv;
  let srv2 = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv2 (Helpers.ok_str (store.Store.list_blocks ()))));
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "committed update survived" "durable"
        (ok (Server.read_page srv2 cur (path [ 1 ])))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

let test_recovery_finds_many_files_and_chains () =
  let store, srv = Helpers.fresh_server () in
  let files = Array.init 5 (fun i -> ok (Server.create_file srv ~data:(bytes (Printf.sprintf "f%d" i)) ())) in
  Array.iteri (fun i f -> for r = 1 to i + 1 do commit_write srv f [] (Printf.sprintf "f%d-r%d" i r) done) files;
  Server.crash srv;
  let srv2 = Server.create ~seed:7 store in
  Alcotest.(check int) "five files" 5
    (ok (Server.recover_from_blocks srv2 (Helpers.ok_str (store.Store.list_blocks ()))));
  Array.iteri
    (fun i f ->
      let chain = ok (Server.committed_chain srv2 f) in
      Alcotest.(check int) (Printf.sprintf "file %d chain" i) (i + 2) (List.length chain);
      let cur = ok (Server.current_version srv2 f) in
      Helpers.check_bytes "current content" (Printf.sprintf "f%d-r%d" i (i + 1))
        (ok (Server.read_page srv2 cur P.root)))
    files

let test_no_recovery_needed_for_reads () =
  (* A second server can serve reads over the same store immediately,
     without any recovery pass at all — capabilities name everything. *)
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  Server.crash srv;
  let srv2 = Server.create ~seed:7 store in
  let cur = ok (Server.current_version srv2 f) in
  Helpers.check_bytes "instant service" "p1" (ok (Server.read_page srv2 cur (path [ 1 ])))

(* {2 Over a real block server} *)

let test_recovery_via_block_server_account_listing () =
  let disk = Disk.create ~media:Media.electronic ~blocks:256 ~block_size:32768 () in
  let bs = Block_server.create ~disk () in
  let account = 42 in
  let store = Store.of_block_server bs ~account in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 3 in
  commit_write srv f [ 2 ] "on real blocks";
  ok (Pagestore.flush (Server.pagestore srv));
  (* The crash frees every block lock the server held. *)
  Server.crash srv;
  (* §4: the block server's recovery operation lists the account's blocks;
     the file server rebuilds from them. *)
  let srv2 = Server.create ~seed:7 store in
  let owned = Block_server.owned_blocks bs account in
  Alcotest.(check int) "one file" 1 (ok (Server.recover_from_blocks srv2 owned));
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "content back" "on real blocks"
        (ok (Server.read_page srv2 cur (path [ 2 ])))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

(* {2 Over stable storage} *)

let test_file_service_survives_stable_disk_loss () =
  let pair = Stable_pair.create ~media:Media.electronic ~blocks:512 ~block_size:32768 () in
  let store = Store.of_stable_pair pair in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 3 in
  commit_write srv f [ 0 ] "replicated";
  ok (Pagestore.flush (Server.pagestore srv));
  (* Lose one entire disk. *)
  Stable_pair.wipe_and_crash pair 0;
  Pagestore.drop_volatile (Server.pagestore srv);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "served from companion" "replicated"
    (ok (Server.read_page srv cur (path [ 0 ])));
  (* Repair the lost disk and lose the OTHER one: data still there. *)
  (match Stable_pair.restart pair 0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restart: %s" (Fmt.str "%a" Stable_pair.pp_error e));
  Stable_pair.crash pair 1;
  Pagestore.drop_volatile (Server.pagestore srv);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "served from repaired disk" "replicated"
    (ok (Server.read_page srv cur (path [ 0 ])))

let test_update_through_single_surviving_server () =
  let pair = Stable_pair.create ~media:Media.electronic ~blocks:512 ~block_size:32768 () in
  let store = Store.of_stable_pair pair in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 2 in
  Stable_pair.crash pair 1;
  (* Updates continue against the surviving server, intentions pending. *)
  commit_write srv f [ 1 ] "written during outage";
  ok (Pagestore.flush (Server.pagestore srv));
  (match Stable_pair.restart pair 1 with
  | Ok repaired -> Alcotest.(check bool) "catch-up repairs" true (repaired > 0)
  | Error e -> Alcotest.failf "restart: %s" (Fmt.str "%a" Stable_pair.pp_error e));
  (* Now serve everything from the previously-dead server. *)
  Stable_pair.crash pair 0;
  Pagestore.drop_volatile (Server.pagestore srv);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "outage write present on companion" "written during outage"
    (ok (Server.read_page srv cur (path [ 1 ])))

let stable_store ~blocks =
  let pair = Stable_pair.create ~media:Media.electronic ~blocks ~block_size:32768 () in
  (pair, Store.of_stable_pair pair)

let disk_writes pair i = (Disk.stats (Stable_pair.disk pair i)).Disk.writes

(* An update's fresh blocks are only reserved at the serving stable server
   until its publish. That server crashes first: the publish through the
   survivor fails and writes nothing, and the client's redo commits. The
   store is small, so the redo's reservations would land on the lost
   ones if the adapter handed out numbers it still lists. *)
let test_stable_crash_between_allocate_and_publish () =
  let pair, store = stable_store ~blocks:8 in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "lost reservation"));
  let reserved =
    List.filter
      (fun b -> not (Disk.is_written (Stable_pair.disk pair 0) b))
      (Helpers.ok_str (store.Store.list_blocks ()))
  in
  Alcotest.(check int) "version page and copy reserved, unwritten" 2 (List.length reserved);
  Stable_pair.crash pair 0;
  let before = disk_writes pair 1 in
  (match Server.commit srv v with
  | Error (Errors.Store_failure _) -> ()
  | Ok () -> Alcotest.fail "publish through the survivor succeeded"
  | Error e -> Alcotest.failf "expected a store failure, got %s" (Errors.to_string e));
  Alcotest.(check int) "the survivor wrote nothing" before (disk_writes pair 1);
  (* The redo reserves through the survivor and commits. *)
  let redo = ok (Server.create_version srv f) in
  ok (Server.write_page srv redo (path [ 0 ]) (bytes "redone"));
  ok (Server.commit srv redo);
  ok (Server.abort_version srv v);
  (match Stable_pair.restart pair 0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restart: %s" (Fmt.str "%a" Stable_pair.pp_error e));
  Stable_pair.crash pair 1;
  Pagestore.drop_volatile (Server.pagestore srv);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "the redo is on the restarted disk" "redone"
    (ok (Server.read_page srv cur (path [ 0 ])))

(* Lets through the first [allow] writes of what follows, then fails: a
   crash in the middle of a publish batch, whose landed prefix still
   rides the stable pair's batch write. *)
let cut_after store allow =
  let write_batch entries =
    let n = min !allow (List.length entries) in
    allow := !allow - n;
    match store.Store.write_batch (List.filteri (fun i _ -> i < n) entries) with
    | Error _ as e -> e
    | Ok () -> if n < List.length entries then Error "injected: crash mid-publish" else Ok ()
  in
  { store with Store.write = (fun b data -> write_batch [ (b, data) ]); write_batch }

(* Every block the committed chain of [fc] reaches must read back. *)
let check_tree_readable srv fc =
  let rec walk block =
    match Pagestore.read (Server.pagestore srv) block with
    | Error e ->
        Alcotest.failf "recovered reference to unreadable block %d: %s" block
          (Errors.to_string e)
    | Ok page -> Array.iter (fun (e : Page.ref_entry) -> walk e.Page.block) page.Page.refs
  in
  List.iter walk (ok (Server.committed_chain srv fc))

(* Two members publish fresh pages (version page, copy) and then their
   references in one batch, and the batch is cut after [k] writes. After
   recovery each member is committed whole or absent; the blocks the
   adapter reserved but never wrote break neither the recovery nor the
   sweep, which frees them. *)
let test_stable_crash_mid_publish () =
  for k = 0 to 5 do
    let _, inner = stable_store ~blocks:512 in
    let allow = ref max_int in
    let store = cut_after inner allow in
    let srv = Server.create ~seed:7 store in
    let files = List.init 2 (fun _ -> Helpers.file_with_pages srv 2) in
    let caps =
      List.mapi
        (fun i f ->
          let v = ok (Server.create_version srv f) in
          ok (Server.write_page srv v (path [ 0 ]) (bytes (Printf.sprintf "update%d" i)));
          v)
        files
    in
    allow := k;
    List.iter
      (function
        | Error (Errors.Store_failure _) -> ()
        | _ -> Alcotest.fail "expected every member to report the cut")
      (Server.commit_batch srv caps);
    allow := max_int;
    Server.crash srv;
    let srv2 = Server.create ~seed:7 store in
    let listed = Helpers.ok_str (store.Store.list_blocks ()) in
    Alcotest.(check int) "both files recovered" 2 (ok (Server.recover_from_blocks srv2 listed));
    let state fc =
      check_tree_readable srv2 fc;
      let cur = ok (Server.current_version srv2 fc) in
      ( List.length (ok (Server.committed_chain srv2 fc)),
        Helpers.str (ok (Server.read_page srv2 cur (path [ 0 ]))) )
    in
    let states () = List.sort compare (List.map state files) in
    let expected = if k > 4 then [ (2, "p0"); (3, "update0") ] else [ (2, "p0"); (2, "p0") ] in
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "cut after %d of 6 publish writes" k)
      expected (states ());
    ignore (ok (Gc.collect srv2));
    Alcotest.(check (list (pair int string))) "unchanged by the sweep" expected (states ());
    List.iter
      (fun b ->
        match store.Store.read b with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "block %d still listed after the sweep: %s" b msg)
      (Helpers.ok_str (store.Store.list_blocks ()))
  done

(* {2 The C2 contrast: recovery work is zero} *)

let test_afs_recovery_work_is_zero () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  (* Plenty of in-flight work at crash time. *)
  let versions = List.init 6 (fun _ -> ok (Server.create_version srv f)) in
  List.iteri (fun i v -> ok (Server.write_page srv v (path [ i mod 4 ]) (bytes "wip"))) versions;
  Server.crash srv;
  (* A fresh server serves the committed state with NO recovery actions:
     no locks cleared, no rollback, no intentions lists. Count the work. *)
  let srv2 = Server.create ~seed:7 store in
  let cur = ok (Server.current_version srv2 f) in
  Helpers.check_bytes "immediate consistent read" "p0"
    (ok (Server.read_page srv2 cur (path [ 0 ])));
  (* The only optional work is the table rebuild, and even that is lazy. *)
  Alcotest.(check int) "no rollback counter exists" 0
    (Afs_util.Stats.Counter.get (Server.counters srv2) "rollbacks")

let test_2pl_recovery_work_is_nonzero () =
  (* The same scenario against the locking baseline requires real work. *)
  let clock = ref 0.0 in
  let t = Afs_baseline.Twopl.create ~clock:(fun () -> !clock) () in
  let txns = List.init 6 (fun i -> (i, Afs_baseline.Twopl.begin_ t)) in
  List.iter
    (fun (i, txn) ->
      (match Afs_baseline.Twopl.read t txn ~obj:i with Ok _ -> () | Error _ -> ());
      match Afs_baseline.Twopl.write t txn ~obj:(i + 10) (bytes "wip") with
      | Ok () -> ()
      | Error _ -> ())
    txns;
  Afs_baseline.Twopl.crash t;
  let stats = Afs_baseline.Twopl.recover t in
  Alcotest.(check bool) "locks to clear" true (stats.Afs_baseline.Twopl.locks_cleared > 0);
  Alcotest.(check int) "transactions to roll back" 6 stats.Afs_baseline.Twopl.txns_rolled_back

let () =
  Alcotest.run "recovery"
    [
      ( "crash points",
        [
          quick "before commit: only update lost" test_crash_before_commit_loses_only_the_update;
          quick "after commit: update preserved" test_crash_after_commit_preserves_update;
          quick "many files and chains" test_recovery_finds_many_files_and_chains;
          quick "reads need no recovery" test_no_recovery_needed_for_reads;
        ] );
      ( "block server",
        [ quick "account listing rebuild" test_recovery_via_block_server_account_listing ] );
      ( "stable storage",
        [
          quick "survives disk loss" test_file_service_survives_stable_disk_loss;
          quick "update through survivor" test_update_through_single_surviving_server;
          quick "crash between allocate and publish" test_stable_crash_between_allocate_and_publish;
          quick "crash mid-publish, fresh blocks" test_stable_crash_mid_publish;
        ] );
      ( "recovery work",
        [
          quick "afs: zero" test_afs_recovery_work_is_zero;
          quick "2pl: nonzero" test_2pl_recovery_work_is_nonzero;
        ] );
    ]
