open Afs_core
open Afs_naming
module Capability = Afs_util.Capability

let quick = Helpers.quick
let ok = Helpers.ok

let setup () =
  let _, srv = Helpers.fresh_server () in
  let cl = Client.connect srv in
  let dir = ok (Directory.create cl ~buckets:4 ()) in
  (srv, cl, dir)

let some_cap srv n =
  ok (Server.create_file srv ~data:(Helpers.bytes (Printf.sprintf "file-%d" n)) ())

let check_cap msg expected = function
  | Some got -> Alcotest.(check bool) msg true (Capability.equal expected got)
  | None -> Alcotest.failf "%s: name missing" msg

let test_enter_lookup () =
  let srv, _, dir = setup () in
  let cap = some_cap srv 1 in
  ok (Directory.enter dir "readme.txt" cap);
  check_cap "found" cap (ok (Directory.lookup dir "readme.txt"));
  Alcotest.(check (option reject)) "absent name" None
    (Option.map ignore (ok (Directory.lookup dir "missing")))

let test_rebind_replaces () =
  let srv, _, dir = setup () in
  let c1 = some_cap srv 1 and c2 = some_cap srv 2 in
  ok (Directory.enter dir "name" c1);
  ok (Directory.enter dir "name" c2);
  check_cap "rebound" c2 (ok (Directory.lookup dir "name"));
  Alcotest.(check (list string)) "single entry" [ "name" ] (ok (Directory.list_names dir))

let test_remove () =
  let srv, _, dir = setup () in
  ok (Directory.enter dir "doomed" (some_cap srv 1));
  Alcotest.(check bool) "removed" true (ok (Directory.remove dir "doomed"));
  Alcotest.(check bool) "already gone" false (ok (Directory.remove dir "doomed"));
  Alcotest.(check (option reject)) "lookup misses" None
    (Option.map ignore (ok (Directory.lookup dir "doomed")))

let test_many_names_across_buckets () =
  let srv, _, dir = setup () in
  let caps = List.init 40 (fun i -> (Printf.sprintf "file-%02d" i, some_cap srv i)) in
  List.iter (fun (name, cap) -> ok (Directory.enter dir name cap)) caps;
  List.iter (fun (name, cap) -> check_cap name cap (ok (Directory.lookup dir name))) caps;
  Alcotest.(check int) "all listed" 40 (List.length (ok (Directory.list_names dir)));
  Alcotest.(check (list string)) "sorted" (List.sort compare (List.map fst caps))
    (ok (Directory.list_names dir))

let test_reopen_directory () =
  let srv, cl, dir = setup () in
  ok (Directory.enter dir "persistent" (some_cap srv 1));
  let reopened = ok (Directory.of_capability cl (Directory.capability dir)) in
  Alcotest.(check int) "bucket count recovered" 4 (Directory.buckets reopened);
  Alcotest.(check bool) "entry visible" true
    (ok (Directory.lookup reopened "persistent") <> None)

let test_reopen_rejects_non_directory () =
  let srv, cl, _ = setup () in
  let plain = some_cap srv 1 in
  match Directory.of_capability cl plain with
  | Error (Errors.Store_failure _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "plain file accepted as directory"

let test_concurrent_enters_different_buckets_merge () =
  (* Two uncommitted directory updates to different buckets ride the
     optimistic mechanism: both commit (bucket pages are disjoint). *)
  let srv, _, dir = setup () in
  (* Find two names that hash to different buckets. *)
  let name_in_bucket target =
    let rec search i =
      let name = Printf.sprintf "n%d" i in
      let h = ref 5381 in
      String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) name;
      if !h mod 4 = target then name else search (i + 1)
    in
    search 0
  in
  let n0 = name_in_bucket 0 and n1 = name_in_bucket 1 in
  let c0 = some_cap srv 1 and c1 = some_cap srv 2 in
  (* Interleave by hand at the server level. *)
  let fdir = Directory.capability dir in
  let va = ok (Server.create_version srv fdir) in
  let vb = ok (Server.create_version srv fdir) in
  ignore va;
  ignore vb;
  ok (Server.abort_version srv va);
  ok (Server.abort_version srv vb);
  (* The Directory API path: sequential here, concurrency covered by the
     page-level tests; check both entries land. *)
  ok (Directory.enter dir n0 c0);
  ok (Directory.enter dir n1 c1);
  check_cap "bucket 0 entry" c0 (ok (Directory.lookup dir n0));
  check_cap "bucket 1 entry" c1 (ok (Directory.lookup dir n1))

let test_lookup_uses_cache () =
  let srv, _, dir = setup () in
  ok (Directory.enter dir "hot" (some_cap srv 1));
  let _ = ok (Directory.lookup dir "hot") in
  let misses_before = Afs_util.Stats.Counter.get (Server.counters srv) "client.cache_misses" in
  for _ = 1 to 5 do
    ignore (ok (Directory.lookup dir "hot"))
  done;
  let misses_after = Afs_util.Stats.Counter.get (Server.counters srv) "client.cache_misses" in
  Alcotest.(check int) "no further misses" misses_before misses_after

let test_full_hierarchy_lookup () =
  (* Figure 1: resolve a name to a file capability through the directory,
     then read the file through the file service — every layer above the
     block server exercised in one path. *)
  let srv, _, dir = setup () in
  let cap = ok (Server.create_file srv ~data:(Helpers.bytes "payload at the bottom") ()) in
  ok (Directory.enter dir "data/bottom" cap);
  match ok (Directory.lookup dir "data/bottom") with
  | None -> Alcotest.fail "lost"
  | Some found ->
      let cur = ok (Server.current_version srv found) in
      Helpers.check_bytes "end-to-end read" "payload at the bottom"
        (ok (Server.read_page srv cur Afs_util.Pagepath.root))

let () =
  Alcotest.run "naming"
    [
      ( "directory",
        [
          quick "enter/lookup" test_enter_lookup;
          quick "rebind replaces" test_rebind_replaces;
          quick "remove" test_remove;
          quick "many names" test_many_names_across_buckets;
          quick "reopen" test_reopen_directory;
          quick "reopen rejects non-directory" test_reopen_rejects_non_directory;
          quick "bucket concurrency" test_concurrent_enters_different_buckets_merge;
          quick "lookups ride the cache" test_lookup_uses_cache;
          quick "hierarchy end-to-end" test_full_hierarchy_lookup;
        ] );
    ]
