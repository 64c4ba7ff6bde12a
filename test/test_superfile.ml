open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let setup () =
  let _, srv = Helpers.fresh_server () in
  let fa = ok (Server.create_file srv ~data:(bytes "A0") ()) in
  let fb = ok (Server.create_file srv ~data:(bytes "B0") ()) in
  let fc = ok (Server.create_file srv ~data:(bytes "C0") ()) in
  let sf = ok (Superfile.make srv ~subfiles:[ fa; fb; fc ] ~data:(bytes "super") ()) in
  (srv, fa, fb, fc, sf)

let current_root srv f =
  let cur = ok (Server.current_version srv f) in
  Helpers.str (ok (Server.read_page srv cur P.root))

(* {2 Construction} *)

let test_make_and_subfiles () =
  let srv, fa, fb, fc, sf = setup () in
  let subs = ok (Superfile.subfiles srv sf) in
  Alcotest.(check int) "three sub-files" 3 (List.length subs);
  List.iter2
    (fun expected got ->
      Alcotest.(check bool) "sub-file cap matches" true (Afs_util.Capability.equal expected got))
    [ fa; fb; fc ] subs;
  Alcotest.(check bool) "is superfile" true (Superfile.is_superfile srv sf)

let test_plain_file_is_not_superfile () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  Alcotest.(check bool) "no sub-files" false (Superfile.is_superfile srv f)

(* {2 The locking rules (§5.3)} *)

let test_touched_subfile_locked_out () =
  let srv, fa, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let _ = ok (Superfile.touch_subfile u ~index:0) in
  (match Server.create_version srv fa with
  | Error (Errors.Locked_out { port }) ->
      Alcotest.(check int) "lock holds updater's port" (Superfile.port_of u) port
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "inner lock ignored");
  ok (Superfile.abort u)

let test_untouched_subfile_remains_updatable () =
  let srv, _, fb, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let _ = ok (Superfile.touch_subfile u ~index:0) in
  (* fb (index 1) was not visited: full concurrency remains. *)
  let v = ok (Server.create_version srv fb) in
  ok (Server.write_page srv v P.root (bytes "B1"));
  ok (Server.commit srv v);
  Alcotest.(check string) "committed during super update" "B1" (current_root srv fb);
  ok (Superfile.abort u)

let test_second_super_update_locked_out () =
  let srv, _, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  (match Superfile.begin_update srv sf with
  | Error (Errors.Locked_out _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "top lock ignored");
  ok (Superfile.abort u);
  (* After abort the super-file is free again. *)
  let u2 = ok (Superfile.begin_update srv sf) in
  ok (Superfile.abort u2)

let test_commit_applies_to_all_touched () =
  let srv, fa, _, fc, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  let vc = ok (Superfile.touch_subfile u ~index:2) in
  ok (Server.write_page srv va P.root (bytes "A1"));
  ok (Server.write_page srv vc P.root (bytes "C1"));
  ok (Superfile.commit u);
  Alcotest.(check string) "A updated" "A1" (current_root srv fa);
  Alcotest.(check string) "C updated" "C1" (current_root srv fc);
  (* Locks are gone: both sub-files and the super-file accept updates. *)
  let v = ok (Server.create_version srv fa) in
  ok (Server.abort_version srv v);
  let u2 = ok (Superfile.begin_update srv sf) in
  ok (Superfile.abort u2)

let test_atomicity_across_subfiles () =
  (* Until the super commit, neither sub-file shows the new state; after
     it, both do. *)
  let srv, fa, _, fc, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  let vc = ok (Superfile.touch_subfile u ~index:2) in
  ok (Server.write_page srv va P.root (bytes "A1"));
  ok (Server.write_page srv vc P.root (bytes "C1"));
  Alcotest.(check string) "A still old" "A0" (current_root srv fa);
  Alcotest.(check string) "C still old" "C0" (current_root srv fc);
  ok (Superfile.commit u);
  Alcotest.(check string) "A new" "A1" (current_root srv fa);
  Alcotest.(check string) "C new" "C1" (current_root srv fc)

let test_touch_same_index_idempotent () =
  let srv, _, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let v1 = ok (Superfile.touch_subfile u ~index:1) in
  let v2 = ok (Superfile.touch_subfile u ~index:1) in
  Alcotest.(check bool) "same version" true (Afs_util.Capability.equal v1 v2);
  ok (Superfile.abort u)

let test_abort_releases_everything () =
  let srv, fa, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  ok (Server.write_page srv va P.root (bytes "discarded"));
  ok (Superfile.abort u);
  Alcotest.(check string) "A unchanged" "A0" (current_root srv fa);
  let v = ok (Server.create_version srv fa) in
  ok (Server.write_page srv v P.root (bytes "A-after"));
  ok (Server.commit srv v);
  Alcotest.(check string) "A updatable" "A-after" (current_root srv fa)

let test_sequential_super_updates () =
  let srv, fa, _, _, sf = setup () in
  for i = 1 to 3 do
    let u = ok (Superfile.begin_update srv sf) in
    let va = ok (Superfile.touch_subfile u ~index:0) in
    ok (Server.write_page srv va P.root (bytes (Printf.sprintf "A%d" i)));
    ok (Superfile.commit u)
  done;
  Alcotest.(check string) "last update visible" "A3" (current_root srv fa)

(* {2 Crash recovery (§5.3)} *)

let test_crash_before_commit_cleared () =
  let srv, fa, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  ok (Server.write_page srv va P.root (bytes "lost")) ;
  Superfile.crash_holder u;
  (match ok (Superfile.recover_abandoned srv sf) with
  | Superfile.Cleared -> ()
  | r ->
      Alcotest.failf "expected Cleared, got %s"
        (match r with
        | Superfile.No_lock -> "No_lock"
        | Superfile.Holder_alive _ -> "Holder_alive"
        | Superfile.Finished _ -> "Finished"
        | Superfile.Cleared -> "Cleared"));
  Alcotest.(check string) "A unchanged" "A0" (current_root srv fa);
  (* Everything is unlocked again. *)
  let u2 = ok (Superfile.begin_update srv sf) in
  let _ = ok (Superfile.touch_subfile u2 ~index:0) in
  ok (Superfile.abort u2)

let test_crash_after_commit_finished_by_waiter () =
  let srv, fa, _, fc, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  let vc = ok (Superfile.touch_subfile u ~index:2) in
  ok (Server.write_page srv va P.root (bytes "A1"));
  ok (Server.write_page srv vc P.root (bytes "C1"));
  (* Commit the super version only — the crash happens before the descent
     that commits the sub-files. *)
  ok (Server.commit srv (Superfile.super_version u));
  Superfile.crash_holder u;
  (* The sub-files still show old state and fa is still inner-locked. *)
  Alcotest.(check string) "A old pre-recovery" "A0" (current_root srv fa);
  (match ok (Superfile.recover_abandoned srv sf) with
  | Superfile.Finished n -> Alcotest.(check int) "two sub-commits finished" 2 n
  | Superfile.Cleared -> Alcotest.fail "expected Finished, got Cleared"
  | Superfile.No_lock -> Alcotest.fail "expected Finished, got No_lock"
  | Superfile.Holder_alive _ -> Alcotest.fail "holder should be dead");
  Alcotest.(check string) "A finished" "A1" (current_root srv fa);
  Alcotest.(check string) "C finished" "C1" (current_root srv fc)

(* The server itself crashes after the super version's commit reference
   lands but before the descent commits any sub-file: the store dies
   right after that write, and comes back with the server. A waiter on a
   fresh server finishes the descent from disk alone, so the
   sub-versions' pages must already be there. *)
let test_server_crash_after_super_commit () =
  let inner = Store.memory () in
  let last_write = ref None and dead = ref false in
  let write b data =
    if !dead then Error "injected: disk gone"
    else begin
      if !last_write = Some b then dead := true;
      inner.Store.write b data
    end
  in
  let rec write_batch = function
    | [] -> Ok ()
    | (b, data) :: rest -> ( match write b data with Ok () -> write_batch rest | e -> e)
  in
  let store = { inner with Store.write; write_batch } in
  let srv = Server.create ~seed:7 store in
  let fa = ok (Server.create_file srv ~data:(bytes "A0") ()) in
  let fc = ok (Server.create_file srv ~data:(bytes "C0") ()) in
  let sf = ok (Superfile.make srv ~subfiles:[ fa; fc ] ()) in
  let u = ok (Superfile.begin_update srv sf) in
  let va = ok (Superfile.touch_subfile u ~index:0) in
  let vc = ok (Superfile.touch_subfile u ~index:1) in
  ok (Server.write_page srv va P.root (bytes "A1"));
  ok (Server.write_page srv vc P.root (bytes "C1"));
  last_write := Some (ok (Server.current_block_of_file srv sf));
  (match Superfile.commit u with
  | Error (Errors.Store_failure _) -> ()
  | _ -> Alcotest.fail "expected the descent to meet the dead store");
  Server.crash srv;
  last_write := None;
  dead := false;
  let srv2 = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv2 (Helpers.ok_str (store.Store.list_blocks ()))));
  (match ok (Superfile.recover_abandoned srv2 sf) with
  | Superfile.Finished n -> Alcotest.(check int) "two sub-commits finished" 2 n
  | _ -> Alcotest.fail "expected Finished");
  Alcotest.(check string) "A finished from disk" "A1" (current_root srv2 fa);
  Alcotest.(check string) "C finished from disk" "C1" (current_root srv2 fc)

let test_recover_live_holder_untouched () =
  let srv, _, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  (match ok (Superfile.recover_abandoned srv sf) with
  | Superfile.Holder_alive port -> Alcotest.(check int) "port" (Superfile.port_of u) port
  | _ -> Alcotest.fail "live holder must not be recovered");
  ok (Superfile.abort u)

let test_recover_no_lock () =
  let srv, _, _, _, sf = setup () in
  match ok (Superfile.recover_abandoned srv sf) with
  | Superfile.No_lock -> ()
  | _ -> Alcotest.fail "expected No_lock"

let test_inner_waiter_ascends () =
  let srv, fa, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let _ = ok (Superfile.touch_subfile u ~index:0) in
  Superfile.crash_holder u;
  (* A client blocked on fa's inner lock ascends to the super-file and
     recovers there. *)
  (match ok (Superfile.recover_inner_waiter srv fa) with
  | Superfile.Cleared -> ()
  | _ -> Alcotest.fail "expected Cleared via ascent");
  let v = ok (Server.create_version srv fa) in
  ok (Server.abort_version srv v)

let test_dead_inner_lock_cleared_by_create_version () =
  (* Even without explicit recovery, a dead inner lock does not block
     version creation (§5.3: locks of crashed transactions are void). *)
  let srv, fa, _, _, sf = setup () in
  let u = ok (Superfile.begin_update srv sf) in
  let _ = ok (Superfile.touch_subfile u ~index:0) in
  Superfile.crash_holder u;
  match Server.create_version srv fa with
  | Ok v -> ok (Server.abort_version srv v)
  | Error e -> Alcotest.failf "dead lock blocked update: %s" (Errors.to_string e)

(* {2 Soft locks on small files (§5.3 hints)} *)

let test_top_lock_hint_respected () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let ports = Server.ports srv in
  let hint_port = Ports.fresh ports in
  let v = ok (Server.create_version ~updater_port:hint_port srv f) in
  (* A cautious large update honours the hint... *)
  (match Server.create_version ~respect_hints:true srv f with
  | Error (Errors.Locked_out { port }) -> Alcotest.(check int) "hint port" hint_port port
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "hint ignored despite respect_hints");
  (* ...but an ordinary optimistic update proceeds regardless. *)
  let v2 = ok (Server.create_version srv f) in
  ok (Server.abort_version srv v2);
  ok (Server.abort_version srv v)

let test_dead_hint_ignored () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let ports = Server.ports srv in
  let hint_port = Ports.fresh ports in
  let v = ok (Server.create_version ~updater_port:hint_port srv f) in
  ok (Server.abort_version srv v);
  Ports.kill ports hint_port;
  match Server.create_version ~respect_hints:true srv f with
  | Ok v2 -> ok (Server.abort_version srv v2)
  | Error e -> Alcotest.failf "dead hint blocked update: %s" (Errors.to_string e)

let test_nested_superfiles () =
  (* A super-file whose sub-files are themselves super-files: Figure 2's
     arbitrary nesting, with inner-lock recovery ascending two levels. *)
  let _, srv = Helpers.fresh_server () in
  let leaves = List.init 4 (fun i -> ok (Server.create_file srv ~data:(bytes (Printf.sprintf "leaf%d" i)) ())) in
  let mid_a =
    ok (Superfile.make srv ~subfiles:[ List.nth leaves 0; List.nth leaves 1 ] ())
  in
  let mid_b =
    ok (Superfile.make srv ~subfiles:[ List.nth leaves 2; List.nth leaves 3 ] ())
  in
  let top = ok (Superfile.make srv ~subfiles:[ mid_a; mid_b ] ~data:(bytes "top") ()) in
  Alcotest.(check int) "top has two subs" 2 (List.length (ok (Superfile.subfiles srv top)));
  (* Update through the top: touch mid_a, then within it touch leaf 0. *)
  let u = ok (Superfile.begin_update srv top) in
  let _mid_a_version = ok (Superfile.touch_subfile u ~index:0) in
  (* mid_a is now inner-locked; a direct update of mid_a as a super-file
     is refused. *)
  (match Superfile.begin_update srv mid_a with
  | Error (Errors.Locked_out _) -> ()
  | Ok _ -> Alcotest.fail "nested super-file not locked"
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
  (* mid_b and its leaves are untouched: fully updatable. *)
  let v = ok (Server.create_version srv (List.nth leaves 2)) in
  ok (Server.abort_version srv v);
  ok (Superfile.commit u);
  (* After the top commit, everything is unlocked again. *)
  let u2 = ok (Superfile.begin_update srv mid_a) in
  ok (Superfile.abort u2)

let test_nested_crash_recovery_ascends_two_levels () =
  let _, srv = Helpers.fresh_server () in
  let leafs = List.init 2 (fun i -> ok (Server.create_file srv ~data:(bytes (Printf.sprintf "L%d" i)) ())) in
  let mid = ok (Superfile.make srv ~subfiles:leafs ()) in
  let top = ok (Superfile.make srv ~subfiles:[ mid ] ()) in
  let u = ok (Superfile.begin_update srv top) in
  let _ = ok (Superfile.touch_subfile u ~index:0) in
  Superfile.crash_holder u;
  (* A waiter blocked on mid's inner lock ascends to the TOP super-file
     and recovers there. *)
  (match ok (Superfile.recover_inner_waiter srv mid) with
  | Superfile.Cleared -> ()
  | _ -> Alcotest.fail "expected Cleared via two-level ascent");
  let u2 = ok (Superfile.begin_update srv mid) in
  ok (Superfile.abort u2)

let test_path_reads_through_superfile () =
  (* The super-file's page tree can be read like any version: its refs
     lead to sub-file version pages (Figure 2's tree of trees). *)
  let srv, _, _, _, sf = setup () in
  let cur = ok (Server.current_version srv sf) in
  let info = ok (Server.page_info srv cur P.root) in
  Alcotest.(check int) "three refs" 3 info.Server.nrefs;
  (* Reading through ref 1 lands on sub-file B's version page data. *)
  Helpers.check_bytes "B's root data" "B0" (ok (Server.read_page srv cur (path [ 1 ])))

let () =
  Alcotest.run "superfile"
    [
      ( "construction",
        [
          quick "make and subfiles" test_make_and_subfiles;
          quick "plain file is not superfile" test_plain_file_is_not_superfile;
          quick "tree of trees readable" test_path_reads_through_superfile;
          quick "nested super-files" test_nested_superfiles;
          quick "nested crash recovery" test_nested_crash_recovery_ascends_two_levels;
        ] );
      ( "locking",
        [
          quick "touched sub-file locked out" test_touched_subfile_locked_out;
          quick "untouched sub-file updatable" test_untouched_subfile_remains_updatable;
          quick "second super update locked out" test_second_super_update_locked_out;
          quick "commit applies to all touched" test_commit_applies_to_all_touched;
          quick "atomic across sub-files" test_atomicity_across_subfiles;
          quick "touch idempotent" test_touch_same_index_idempotent;
          quick "abort releases everything" test_abort_releases_everything;
          quick "sequential super updates" test_sequential_super_updates;
        ] );
      ( "crash recovery",
        [
          quick "crash before commit: cleared" test_crash_before_commit_cleared;
          quick "crash after commit: finished" test_crash_after_commit_finished_by_waiter;
          quick "server crash after super commit" test_server_crash_after_super_commit;
          quick "live holder untouched" test_recover_live_holder_untouched;
          quick "no lock" test_recover_no_lock;
          quick "inner waiter ascends" test_inner_waiter_ascends;
          quick "dead inner lock cleared" test_dead_inner_lock_cleared_by_create_version;
        ] );
      ( "soft locks",
        [
          quick "hint respected" test_top_lock_hint_respected;
          quick "dead hint ignored" test_dead_hint_ignored;
        ] );
    ]
