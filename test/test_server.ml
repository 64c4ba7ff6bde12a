open Afs_core
module Capability = Afs_util.Capability
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

(* {2 File lifecycle} *)

let test_create_file_initial_state () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ~data:(bytes "genesis") ()) in
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "initial data" "genesis" (ok (Server.read_page srv cur P.root));
  Alcotest.(check int) "one committed version" 1
    (List.length (ok (Server.committed_chain srv f)));
  Alcotest.(check (list int)) "no uncommitted" [] (ok (Server.uncommitted_versions srv f))

let test_multiple_files_independent () =
  let _, srv = Helpers.fresh_server () in
  let f1 = ok (Server.create_file srv ~data:(bytes "one") ()) in
  let f2 = ok (Server.create_file srv ~data:(bytes "two") ()) in
  Alcotest.(check bool) "distinct caps" false (Capability.equal f1 f2);
  let c1 = ok (Server.current_version srv f1) in
  let c2 = ok (Server.current_version srv f2) in
  Helpers.check_bytes "f1" "one" (ok (Server.read_page srv c1 P.root));
  Helpers.check_bytes "f2" "two" (ok (Server.read_page srv c2 P.root))

let test_invalid_capability_rejected () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let forged = { f with Capability.obj = f.Capability.obj + 2 } in
  (match Server.current_version srv forged with
  | Error Errors.Invalid_capability -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "forged capability accepted");
  (* A capability from a server with a different secret is also rejected. *)
  let _, other = Helpers.fresh_server ~seed:9999 () in
  let foreign = ok (Server.create_file other ()) in
  match Server.current_version srv foreign with
  | Error Errors.Invalid_capability -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "foreign capability accepted"

let test_version_cap_not_file_cap () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  (match Server.create_version srv v with
  | Error Errors.Invalid_capability -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "version capability accepted as file");
  match Server.read_page srv f P.root with
  | Error Errors.Invalid_capability -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "file capability accepted as version"

let test_destroy_file () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let keeper = Helpers.file_with_pages srv 2 in
  (* Leave an in-flight update on the doomed file. *)
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "in flight"));
  ok (Server.destroy_file srv f);
  (match Server.current_version srv f with
  | Error (Errors.No_such_file _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ ->
      (* Lazy learning may resurrect it from storage; the GC is the real
         arbiter of deletion. Accept either until after the sweep. *)
      ());
  (* After a GC sweep, the blocks are gone and the keeper survives. *)
  let before = List.length (Helpers.ok_str (store.Store.list_blocks ())) in
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 16; reshare = false } srv));
  let after = List.length (Helpers.ok_str (store.Store.list_blocks ())) in
  Alcotest.(check bool) "space reclaimed" true (after < before);
  let cur = ok (Server.current_version srv keeper) in
  Helpers.check_bytes "other file intact" "p1" (ok (Server.read_page srv cur (path [ 1 ])))

let test_destroy_requires_right () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 1 in
  (* A capability restricted to read rights cannot destroy. *)
  let secret = Afs_util.Capability.secret_of_seed 7 in
  match Afs_util.Capability.restrict secret f Afs_util.Capability.right_read with
  | Error msg -> Alcotest.fail msg
  | Ok weak -> (
      match Server.destroy_file srv weak with
      | Error Errors.Invalid_capability -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
      | Ok () -> Alcotest.fail "destroy allowed without the destroy right")

(* {2 Rights enforcement} *)

let test_read_only_version_cap_cannot_write () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let cur = ok (Server.current_version srv f) in
  (* current_version hands out read rights only. *)
  match Server.write_page srv cur (path [ 0 ]) (bytes "sneaky") with
  | Error (Errors.Invalid_capability | Errors.Version_not_mutable) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok () -> Alcotest.fail "write allowed through a read-only capability"

let test_restricted_file_cap_cannot_update () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let secret = Afs_util.Capability.secret_of_seed 7 in
  match Afs_util.Capability.restrict secret f Afs_util.Capability.right_read with
  | Error msg -> Alcotest.fail msg
  | Ok read_only -> (
      (match Server.create_version srv read_only with
      | Error Errors.Invalid_capability -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
      | Ok _ -> Alcotest.fail "version creation allowed without write right");
      (* But reading the current version is fine. *)
      let cur = ok (Server.current_version srv read_only) in
      Helpers.check_bytes "read allowed" "p0" (ok (Server.read_page srv cur (path [ 0 ]))))

(* {2 Version lifecycle} *)

let test_version_sees_base_content () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  Helpers.check_bytes "root" "root" (ok (Server.read_page srv v P.root));
  Helpers.check_bytes "page 1" "p1" (ok (Server.read_page srv v (path [ 1 ])))

let test_uncommitted_invisible_to_current () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "draft"));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "current unchanged" "p0" (ok (Server.read_page srv cur (path [ 0 ])));
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "visible after commit" "draft"
    (ok (Server.read_page srv cur (path [ 0 ])))

let test_two_versions_isolated () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  ok (Server.write_page srv va (path [ 0 ]) (bytes "from-a"));
  Helpers.check_bytes "b sees base" "p0" (ok (Server.read_page srv vb (path [ 0 ])));
  Helpers.check_bytes "a sees own write" "from-a" (ok (Server.read_page srv va (path [ 0 ])))

let test_abort_version () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "discard me"));
  ok (Server.abort_version srv v);
  Alcotest.(check bool) "status aborted" true (ok (Server.version_status srv v) = Server.Aborted);
  (match Server.write_page srv v (path [ 0 ]) (bytes "zombie") with
  | Error Errors.Version_not_mutable -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "write to aborted version accepted");
  Alcotest.(check (list int)) "not in uncommitted list" []
    (ok (Server.uncommitted_versions srv f))

let test_committed_version_immutable () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 1 in
  let v = ok (Server.create_version srv f) in
  ok (Server.commit srv v);
  (match Server.write_page srv v (path [ 0 ]) (bytes "nope") with
  | Error Errors.Version_not_mutable -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "write to committed version accepted");
  match Server.commit srv v with
  | Error Errors.Version_not_mutable -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "double commit accepted"

let test_chain_grows () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 5 do
    let v = ok (Server.create_version srv f) in
    ok (Server.write_page srv v P.root (bytes (string_of_int i)));
    ok (Server.commit srv v)
  done;
  let chain = ok (Server.committed_chain srv f) in
  Alcotest.(check int) "six versions" 6 (List.length chain);
  (* Chain is oldest-first and ends at the current version. *)
  let current = ok (Server.current_block_of_file srv f) in
  Alcotest.(check int) "last is current" current (List.nth chain 5)

let test_old_versions_still_readable () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ~data:(bytes "v0") ()) in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v P.root (bytes "v1"));
  ok (Server.commit srv v);
  match ok (Server.committed_chain srv f) with
  | [ old_block; _ ] ->
      let old_cap = ok (Server.version_of_block srv old_block) in
      Helpers.check_bytes "past state preserved" "v0" (ok (Server.read_page srv old_cap P.root))
  | l -> Alcotest.failf "expected 2 versions, got %d" (List.length l)

(* {2 Page operations} *)

let test_insert_and_read_pages () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  let p0 = ok (Server.insert_page srv v ~parent:P.root ~index:0 ~data:(bytes "a") ()) in
  Alcotest.(check string) "returned path" "/0" (P.to_string p0);
  let _ = ok (Server.insert_page srv v ~parent:p0 ~index:0 ~data:(bytes "nested") ()) in
  Helpers.check_bytes "nested read" "nested" (ok (Server.read_page srv v (path [ 0; 0 ])));
  let info = ok (Server.page_info srv v p0) in
  Alcotest.(check int) "child count" 1 info.Server.nrefs

let test_insert_shifts_indices () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  let _ = ok (Server.insert_page srv v ~parent:P.root ~index:0 ~data:(bytes "new") ()) in
  Helpers.check_bytes "new at 0" "new" (ok (Server.read_page srv v (path [ 0 ])));
  Helpers.check_bytes "old p0 shifted" "p0" (ok (Server.read_page srv v (path [ 1 ])));
  Helpers.check_bytes "old p1 shifted" "p1" (ok (Server.read_page srv v (path [ 2 ])))

let test_remove_page () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.remove_page srv v ~parent:P.root ~index:1);
  Helpers.check_bytes "p2 shifted down" "p2" (ok (Server.read_page srv v (path [ 1 ])));
  let info = ok (Server.page_info srv v P.root) in
  Alcotest.(check int) "two left" 2 info.Server.nrefs

let test_move_page () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  (* Move p0 under p2. *)
  ok (Server.move_page srv v ~src_parent:P.root ~src_index:0 ~dst_parent:(path [ 1 ])
        ~dst_index:0);
  (* After removal of index 0, the old p2 is at index 1. *)
  Helpers.check_bytes "moved subtree readable" "p0"
    (ok (Server.read_page srv v (path [ 1; 0 ])));
  let info = ok (Server.page_info srv v P.root) in
  Alcotest.(check int) "root has two children" 2 info.Server.nrefs

let test_move_into_own_subtree_rejected () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  match
    Server.move_page srv v ~src_parent:P.root ~src_index:0 ~dst_parent:(path [ 0 ])
      ~dst_index:0
  with
  | Error (Errors.Bad_path _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "cycle-creating move accepted"

let test_bad_path_errors () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  (match Server.read_page srv v (path [ 7 ]) with
  | Error (Errors.Bad_index { index = 7; nrefs = 2; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "out-of-range read accepted");
  match Server.insert_page srv v ~parent:P.root ~index:5 () with
  | Error (Errors.Bad_index _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "out-of-range insert accepted"

let test_write_root_data () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ~data:(bytes "old root") ()) in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v P.root (bytes "new root"));
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "root data" "new root" (ok (Server.read_page srv cur P.root))

let test_page_too_large_rejected () =
  let store = Store.memory ~block_size:512 () in
  let srv = Server.create store in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  match Server.write_page srv v P.root (Bytes.make 600 'x') with
  | Error (Errors.Page_too_large _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "oversized page accepted"

(* {2 Flag recording (§5.1)} *)

let root_flags srv f v =
  ignore f;
  let vb = ok (Server.version_block srv v) in
  (ok (Pagestore.read (Server.pagestore srv) vb)).Page.header.Page.root_flags

let child_flags srv v =
  let info = ok (Server.page_info srv v P.root) in
  info.Server.child_flags

let test_read_sets_r_and_path_s () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  let _ = ok (Server.read_page srv v (path [ 1 ])) in
  let rf = root_flags srv f v in
  Alcotest.(check bool) "root searched" true rf.Flags.s;
  Alcotest.(check bool) "root data not read" false rf.Flags.r;
  let cf = child_flags srv v in
  Alcotest.(check bool) "page1 read" true cf.(1).Flags.r;
  Alcotest.(check bool) "page1 copied" true cf.(1).Flags.c;
  Alcotest.(check bool) "page1 not written" false cf.(1).Flags.w;
  Alcotest.(check bool) "page0 untouched" true (Flags.equal Flags.clear cf.(0))

let test_write_sets_w_not_r () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "blind write"));
  let cf = child_flags srv v in
  Alcotest.(check bool) "w" true cf.(0).Flags.w;
  Alcotest.(check bool) "r independent of w" false cf.(0).Flags.r

let test_modify_sets_m_and_s () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 1 in
  let v = ok (Server.create_version srv f) in
  let _ = ok (Server.insert_page srv v ~parent:P.root ~index:1 ()) in
  let rf = root_flags srv f v in
  Alcotest.(check bool) "m" true rf.Flags.m;
  Alcotest.(check bool) "m implies s" true rf.Flags.s

let test_root_write_sets_root_r_w () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  let _ = ok (Server.read_page srv v P.root) in
  ok (Server.write_page srv v P.root (bytes "x"));
  let rf = root_flags srv f v in
  Alcotest.(check bool) "r" true rf.Flags.r;
  Alcotest.(check bool) "w" true rf.Flags.w

let test_copy_on_write_shares_untouched () =
  let store, srv = Helpers.fresh_server () in
  ignore store;
  let f = Helpers.file_with_pages srv 8 in
  let before = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 3 ]) (bytes "only this"));
  let after = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  (* Only the written page is copied (the root is rewritten in place). *)
  Alcotest.(check int) "one page copied" 1 (after - before)

let test_repeated_write_copies_once () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  let before = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "w1"));
  ok (Server.write_page srv v (path [ 0 ]) (bytes "w2"));
  let _ = ok (Server.read_page srv v (path [ 0 ])) in
  let after = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  Alcotest.(check int) "copied exactly once" 1 (after - before);
  Helpers.check_bytes "latest write" "w2" (ok (Server.read_page srv v (path [ 0 ])))

let test_base_version_flags_untouched () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  (* The base (current) version's own flag state must be unaffected by a
     new version's accesses — shared pages carry the flags in the parent,
     which is private to the new version. *)
  let cur = ok (Server.current_version srv f) in
  let before = (ok (Server.page_info srv cur P.root)).Server.child_flags in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "x"));
  let _ = ok (Server.read_page srv v (path [ 1 ])) in
  let after = (ok (Server.page_info srv cur P.root)).Server.child_flags in
  Alcotest.(check bool) "base child flags unchanged" true
    (Array.for_all2 Flags.equal before after)

(* A read answers the page's own data, shared with the page cache: what
   a writer handed over, and on a committed version the cached page's
   bytes. *)
let test_read_answers_the_page () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  let data = Bytes.make 1024 'd' in
  let p = ok (Server.insert_page srv v ~parent:P.root ~index:0 ~data ()) in
  Alcotest.(check bool) "an uncommitted read answers the written bytes" true
    (ok (Server.read_page srv v p) == data);
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  let ps = Server.pagestore srv in
  let root = ok (Pagestore.read ps (ok (Server.version_block srv cur))) in
  let cached = ok (Pagestore.read ps root.Page.refs.(0).Page.block) in
  Alcotest.(check bool) "a committed read answers the cached page's data" true
    (ok (Server.read_page srv cur p) == cached.Page.data)

(* Re-reading a page the version has already read records no flag and
   copies nothing, so it allocates a small constant, whatever the page's
   size (1 KiB here). *)
let test_reread_allocates_only_the_data () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  let _ = ok (Server.insert_page srv v ~parent:P.root ~index:0 ~data:(Bytes.make 1024 'd') ()) in
  ok (Server.commit srv v);
  let v = ok (Server.create_version srv f) in
  let p = path [ 0 ] in
  ignore (ok (Server.read_page srv v p));
  let reread () = ignore (Sys.opaque_identity (ok (Server.read_page srv v p))) in
  let words = Helpers.minor_words_of reread in
  if words > 16. then Alcotest.failf "re-read allocates %.0f words (want at most 16)" words

(* A committed file whose pages form one chain [0; 0; ...] [depth] deep. *)
let file_with_chain srv depth =
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  for d = 0 to depth - 1 do
    ignore (ok (Server.insert_page srv v ~parent:(path (List.init d (fun _ -> 0))) ~index:0 ()))
  done;
  ok (Server.commit srv v);
  f

(* A re-read records no flag and copies nothing, so each level of its
   descent costs the same: words grow linearly with depth. *)
let test_reread_linear_in_depth () =
  let _, srv = Helpers.fresh_server () in
  let v = ok (Server.create_version srv (file_with_chain srv 8)) in
  let reread depth =
    let p = path (List.init depth (fun _ -> 0)) in
    ignore (ok (Server.read_page srv v p));
    Helpers.minor_words_of (fun () -> ignore (Sys.opaque_identity (ok (Server.read_page srv v p))))
  in
  let w2 = reread 2 and w4 = reread 4 and w8 = reread 8 in
  if w8 -. w4 > 2. *. (w4 -. w2) then
    Alcotest.failf "re-read words by depth 2/4/8: %.0f/%.0f/%.0f, not linear" w2 w4 w8

(* Checking a capability and finding its version allocate nothing but the
   lookup's [Ok]: [version_block] answers with one more. *)
let test_version_lookup_allocates_its_answer () =
  let _, srv = Helpers.fresh_server () in
  let v = ok (Server.create_version srv (ok (Server.create_file srv ()))) in
  let words =
    Helpers.minor_words_of (fun () -> ignore (Sys.opaque_identity (Server.version_block srv v)))
  in
  if words > 4. then Alcotest.failf "version_block allocates %.0f words (want at most 4)" words

(* Finding the current version re-reads its page from the store (the
   §3.1 integrity check), which shares its image: a 1 KiB root costs no
   more than a small one. *)
let test_current_version_flat_in_root_size () =
  let _, srv = Helpers.fresh_server () in
  let words data =
    let f = ok (Server.create_file srv ~data ()) in
    ignore (ok (Server.current_version srv f));
    Helpers.minor_words_of (fun () -> ignore (Sys.opaque_identity (Server.current_version srv f)))
  in
  let small = words (Bytes.make 16 's') and large = words (Bytes.make 1024 'l') in
  if large > small then
    Alcotest.failf "current_version allocates %.0f words on a 1 KiB root, %.0f on a small one"
      large small

(* A fast-path update of a version that writes its one page — the write
   and the commit, whose admission reads the version's flag map —
   allocates what it keeps (the page, the sealed images, the overlay and
   the map) and little else. Measured at 232 words; the budget adds 10%. *)
let test_fastpath_commit_budget () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ~data:(Bytes.make 16 'a') ()) in
  let commit_words () =
    let v = ok (Server.create_version srv f) in
    Helpers.minor_words_of (fun () ->
        ok (Server.write_page srv v P.root (Bytes.make 16 'b'));
        ok (Server.commit srv v))
  in
  ignore (commit_words ());
  let words = commit_words () in
  Alcotest.(check int) "fast path" 2
    (Afs_util.Stats.Counter.get (Server.counters srv) "commits.fastpath");
  if words > 255. then Alcotest.failf "one-page update allocates %.0f words (budget 255)" words

(* The §5.1 access path allocates what it keeps. A first access that
   copies one page builds the copy (one page, its header and its cleared
   table), the new block's cache entry and the parent's new reference,
   which it writes into the parent in place: the parent is the version
   page, this server's own unpublished write. Measured at 57 words; the
   budget adds 10% (copying the parent's table took 141). *)
let test_copying_access_budget () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (path [ 1 ])));
  let copied = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  let words =
    Helpers.minor_words_of (fun () ->
        ignore (Sys.opaque_identity (ok (Server.read_page srv v (path [ 0 ])))))
  in
  Alcotest.(check int) "one page copied" (copied + 1)
    (Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied");
  if words > 63. then Alcotest.failf "a copying access allocates %.0f words (budget 63)" words

(* A later access that only adds a flag to a copied page's reference
   updates the parent in place and allocates little more than its
   answer. Measured at 9 words; the budget adds 10% (a copied parent
   took 27). *)
let test_flag_access_budget () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "w"));
  let words =
    Helpers.minor_words_of (fun () ->
        ignore (Sys.opaque_identity (ok (Server.read_page srv v (path [ 0 ])))))
  in
  if words > 10. then Alcotest.failf "a flag-only access allocates %.0f words (budget 10)" words

(* A crash walks the server's int-keyed tables (versions, files, each
   file's open versions) through [Det.sorted_int_keys]: no comparison
   sort and no boxed lookup per key. Measured at 723 words; the budget
   adds 10% (the polymorphic walks took 5 458). *)
let test_crash_walk_words () =
  let _, srv = Helpers.fresh_server () in
  for _ = 1 to 64 do
    ignore (ok (Server.create_version srv (ok (Server.create_file srv ()))) : Afs_util.Capability.t)
  done;
  Server.crash srv;
  let words = Helpers.minor_words_of (fun () -> Server.crash srv) in
  if words > 800. then
    Alcotest.failf "a crash over 64 files allocates %.0f words (budget 800)" words

let () =
  Alcotest.run "server"
    [
      ( "files",
        [
          quick "create file initial state" test_create_file_initial_state;
          quick "files independent" test_multiple_files_independent;
          quick "invalid capability rejected" test_invalid_capability_rejected;
          quick "cap kinds distinguished" test_version_cap_not_file_cap;
          quick "destroy file" test_destroy_file;
          quick "destroy requires right" test_destroy_requires_right;
        ] );
      ( "rights",
        [
          quick "read-only version cap" test_read_only_version_cap_cannot_write;
          quick "restricted file cap" test_restricted_file_cap_cannot_update;
        ] );
      ( "versions",
        [
          quick "version sees base content" test_version_sees_base_content;
          quick "uncommitted invisible" test_uncommitted_invisible_to_current;
          quick "versions isolated" test_two_versions_isolated;
          quick "abort" test_abort_version;
          quick "committed immutable" test_committed_version_immutable;
          quick "chain grows" test_chain_grows;
          quick "old versions readable" test_old_versions_still_readable;
        ] );
      ( "pages",
        [
          quick "insert and read" test_insert_and_read_pages;
          quick "insert shifts indices" test_insert_shifts_indices;
          quick "remove" test_remove_page;
          quick "move" test_move_page;
          quick "move cycle rejected" test_move_into_own_subtree_rejected;
          quick "bad path errors" test_bad_path_errors;
          quick "root data write" test_write_root_data;
          quick "page too large" test_page_too_large_rejected;
        ] );
      ( "flags",
        [
          quick "read sets R and S on path" test_read_sets_r_and_path_s;
          quick "write sets W not R" test_write_sets_w_not_r;
          quick "modify sets M and S" test_modify_sets_m_and_s;
          quick "root R/W" test_root_write_sets_root_r_w;
          quick "copy-on-write shares untouched" test_copy_on_write_shares_untouched;
          quick "repeated write copies once" test_repeated_write_copies_once;
          quick "base flags untouched" test_base_version_flags_untouched;
        ] );
      ( "alloc",
        [
          quick "re-read allocates only the data" test_reread_allocates_only_the_data;
          quick "a read answers the page's own data" test_read_answers_the_page;
          quick "re-read linear in depth" test_reread_linear_in_depth;
          quick "version lookup allocates its Ok" test_version_lookup_allocates_its_answer;
          quick "fast-path commit within budget" test_fastpath_commit_budget;
          quick "copying access within budget" test_copying_access_budget;
          quick "flag-only access within budget" test_flag_access_budget;
          quick "current version flat in root size" test_current_version_flat_in_root_size;
          quick "a crash walks its tables unboxed" test_crash_walk_words;
        ] );
    ]
