open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path
let expect_conflict = Helpers.expect_conflict

let counter srv name = Afs_util.Stats.Counter.get (Server.counters srv) name

let read srv v p = Helpers.str (ok (Server.read_page srv v (path p)))
let write srv v p s = ok (Server.write_page srv v (path p) (bytes s))

let current_data srv f p =
  let cur = ok (Server.current_version srv f) in
  Helpers.str (ok (Server.read_page srv cur (path p)))

(* A file with two levels: root -> 3 children, each with 2 grandchildren. *)
let deep_file srv =
  let f = ok (Server.create_file srv ~data:(bytes "root") ()) in
  let v = ok (Server.create_version srv f) in
  for i = 0 to 2 do
    let child =
      ok
        (Server.insert_page srv v ~parent:P.root ~index:i
           ~data:(bytes (Printf.sprintf "c%d" i)) ())
    in
    for j = 0 to 1 do
      ignore
        (ok
           (Server.insert_page srv v ~parent:child ~index:j
              ~data:(bytes (Printf.sprintf "g%d%d" i j)) ()))
    done
  done;
  ok (Server.commit srv v);
  f

(* {2 Kung & Robinson condition (1): strictly sequential updates} *)

let test_sequential_commits_always_succeed () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  for i = 1 to 10 do
    let v = ok (Server.create_version srv f) in
    write srv v [ i mod 4 ] (Printf.sprintf "round %d" i);
    ok (Server.commit srv v)
  done;
  Alcotest.(check int) "all fastpath" 11 (counter srv "commits.fastpath");
  Alcotest.(check int) "no conflicts" 0 (counter srv "commits.conflict")

(* {2 Condition (2): intersection tests} *)

let test_disjoint_writes_merge () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  write srv va [ 0 ] "a-wrote";
  write srv vb [ 2 ] "b-wrote";
  ok (Server.commit srv va);
  ok (Server.commit srv vb);
  Alcotest.(check string) "a's write survives" "a-wrote" (current_data srv f [ 0 ]);
  Alcotest.(check string) "b's write survives" "b-wrote" (current_data srv f [ 2 ]);
  Alcotest.(check string) "untouched page intact" "p1" (current_data srv f [ 1 ]);
  Alcotest.(check int) "one merge" 1 (counter srv "commits.merged")

let test_write_read_conflict () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let reader = ok (Server.create_version srv f) in
  let writer = ok (Server.create_version srv f) in
  let _ = read srv reader [ 1 ] in
  write srv reader [ 3 ] "reader-writes-elsewhere";
  write srv writer [ 1 ] "overwrites what reader saw";
  ok (Server.commit srv writer);
  expect_conflict (Server.commit srv reader);
  Alcotest.(check bool) "version removed" true
    (ok (Server.version_status srv reader) = Server.Aborted);
  Alcotest.(check string) "writer's value stands" "overwrites what reader saw"
    (current_data srv f [ 1 ])

let test_read_before_write_same_order_ok () =
  (* The reader commits FIRST: the later writer is then checked against
     the reader — reader wrote nothing the writer read, so both commit. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let reader = ok (Server.create_version srv f) in
  let writer = ok (Server.create_version srv f) in
  let _ = read srv reader [ 1 ] in
  write srv writer [ 1 ] "new value";
  ok (Server.commit srv reader);
  ok (Server.commit srv writer);
  Alcotest.(check string) "write landed" "new value" (current_data srv f [ 1 ])

let test_blind_write_overlap_last_wins () =
  (* Both write page 0 without reading it: serialisable as first;second,
     and the merge keeps the later committer's value. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  write srv va [ 0 ] "first";
  write srv vb [ 0 ] "second";
  ok (Server.commit srv va);
  ok (Server.commit srv vb);
  Alcotest.(check string) "later commit wins" "second" (current_data srv f [ 0 ])

let test_rmw_conflict () =
  (* Classic lost-update: both read-modify-write the same page; the second
     committer must abort. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  let _ = read srv va [ 0 ] in
  write srv va [ 0 ] "a";
  let _ = read srv vb [ 0 ] in
  write srv vb [ 0 ] "b";
  ok (Server.commit srv va);
  expect_conflict (Server.commit srv vb)

let test_reader_vs_root_writer () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let reader = ok (Server.create_version srv f) in
  let writer = ok (Server.create_version srv f) in
  let _ = Helpers.str (ok (Server.read_page srv reader P.root)) in
  write srv reader [ 0 ] "x";
  ok (Server.write_page srv writer P.root (bytes "root rewritten"));
  ok (Server.commit srv writer);
  expect_conflict (Server.commit srv reader)

(* {2 Structure conflicts (S/M flags)} *)

let test_structure_conflict_m_vs_s () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let searcher = ok (Server.create_version srv f) in
  let restructurer = ok (Server.create_version srv f) in
  (* The searcher consults the root's references (reads a page). *)
  let _ = read srv searcher [ 1 ] in
  write srv searcher [ 1 ] "based on old layout";
  (* The restructurer deletes a sibling, renumbering the table. *)
  ok (Server.remove_page srv restructurer ~parent:P.root ~index:0);
  ok (Server.commit srv restructurer);
  expect_conflict (Server.commit srv searcher)

let test_structure_adoption_when_unsearched () =
  (* The committed version restructured the root, but the candidate only
     wrote the root's data — never searched its references — so the
     candidate adopts the new structure and both commits stand. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let data_writer = ok (Server.create_version srv f) in
  let restructurer = ok (Server.create_version srv f) in
  ok (Server.write_page srv data_writer P.root (bytes "new root data"));
  let _ =
    ok (Server.insert_page srv restructurer ~parent:P.root ~index:2 ~data:(bytes "p2") ())
  in
  ok (Server.commit srv restructurer);
  ok (Server.commit srv data_writer);
  Alcotest.(check string) "root data from candidate" "new root data"
    (current_data srv f []);
  Alcotest.(check string) "adopted structure" "p2" (current_data srv f [ 2 ]);
  let cur = ok (Server.current_version srv f) in
  let info = ok (Server.page_info srv cur P.root) in
  Alcotest.(check int) "three children" 3 info.Server.nrefs

let test_candidate_restructure_over_touched_subtree_conflicts () =
  (* Conservative rule: the candidate restructured the root while the
     committed update accessed pages below it. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let restructurer = ok (Server.create_version srv f) in
  let writer = ok (Server.create_version srv f) in
  ok (Server.remove_page srv restructurer ~parent:P.root ~index:2);
  write srv writer [ 0 ] "deep write";
  ok (Server.commit srv writer);
  expect_conflict (Server.commit srv restructurer)

(* {2 Subtree granularity (the deep tree)} *)

let test_disjoint_subtrees_no_conflict () =
  let _, srv = Helpers.fresh_server () in
  let f = deep_file srv in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  let _ = read srv va [ 0; 0 ] in
  write srv va [ 0; 0 ] "a";
  let _ = read srv vb [ 2; 1 ] in
  write srv vb [ 2; 1 ] "b";
  ok (Server.commit srv va);
  ok (Server.commit srv vb);
  Alcotest.(check string) "a" "a" (current_data srv f [ 0; 0 ]);
  Alcotest.(check string) "b" "b" (current_data srv f [ 2; 1 ])

let test_same_subtree_sibling_leaves_no_conflict () =
  let _, srv = Helpers.fresh_server () in
  let f = deep_file srv in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  let _ = read srv va [ 1; 0 ] in
  write srv va [ 1; 0 ] "a";
  let _ = read srv vb [ 1; 1 ] in
  write srv vb [ 1; 1 ] "b";
  ok (Server.commit srv va);
  ok (Server.commit srv vb);
  Alcotest.(check string) "a" "a" (current_data srv f [ 1; 0 ]);
  Alcotest.(check string) "b" "b" (current_data srv f [ 1; 1 ])

let test_deep_read_vs_deep_write_conflict () =
  let _, srv = Helpers.fresh_server () in
  let f = deep_file srv in
  let rdr = ok (Server.create_version srv f) in
  let wtr = ok (Server.create_version srv f) in
  let _ = read srv rdr [ 1; 1 ] in
  write srv rdr [ 0; 0 ] "elsewhere";
  write srv wtr [ 1; 1 ] "stomp";
  ok (Server.commit srv wtr);
  expect_conflict (Server.commit srv rdr)

let test_serialise_skips_untouched_subtrees () =
  let _, srv = Helpers.fresh_server () in
  let f = deep_file srv in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  write srv va [ 0; 0 ] "a";
  write srv vb [ 2; 0 ] "b";
  ok (Server.commit srv va);
  let before = counter srv "serialise.pages_visited" in
  ok (Server.commit srv vb);
  let visited = counter srv "serialise.pages_visited" - before in
  (* Both roots, plus each side's touched child and leaf: far fewer than
     the 10 pages of the whole tree. *)
  Alcotest.(check bool) (Printf.sprintf "visited %d <= 6" visited) true (visited <= 6)

(* {2 Interception chains} *)

let test_three_way_merge_chain () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 6 in
  let v1 = ok (Server.create_version srv f) in
  let v2 = ok (Server.create_version srv f) in
  let v3 = ok (Server.create_version srv f) in
  write srv v1 [ 0 ] "one";
  write srv v2 [ 1 ] "two";
  write srv v3 [ 2 ] "three";
  ok (Server.commit srv v1);
  ok (Server.commit srv v2);
  ok (Server.commit srv v3);
  Alcotest.(check string) "one" "one" (current_data srv f [ 0 ]);
  Alcotest.(check string) "two" "two" (current_data srv f [ 1 ]);
  Alcotest.(check string) "three" "three" (current_data srv f [ 2 ]);
  (* Initial version, the page-population commit, then v1..v3. *)
  Alcotest.(check int) "chain length" 5 (List.length (ok (Server.committed_chain srv f)))

let test_conflict_only_with_conflicting_predecessor () =
  (* v3 conflicts with v1's write but not v2's: still a conflict, found
     while walking the interception chain. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 6 in
  let v1 = ok (Server.create_version srv f) in
  let v2 = ok (Server.create_version srv f) in
  let v3 = ok (Server.create_version srv f) in
  write srv v1 [ 0 ] "one";
  write srv v2 [ 1 ] "two";
  let _ = read srv v3 [ 0 ] in
  write srv v3 [ 5 ] "three";
  ok (Server.commit srv v1);
  ok (Server.commit srv v2);
  expect_conflict (Server.commit srv v3)

let test_merged_version_carries_all_updates () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  write srv va [ 0 ] "a0";
  write srv va [ 1 ] "a1";
  write srv vb [ 2 ] "b2";
  write srv vb [ 3 ] "b3";
  ok (Server.commit srv va);
  ok (Server.commit srv vb);
  List.iteri
    (fun i expected ->
      Alcotest.(check string) (Printf.sprintf "page %d" i) expected (current_data srv f [ i ]))
    [ "a0"; "a1"; "b2"; "b3" ]

let test_commit_against_stale_base_two_generations () =
  (* The candidate's base is two commits behind; the commit loop must
     merge against each intervening version. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 6 in
  let stale = ok (Server.create_version srv f) in
  write srv stale [ 5 ] "stale but compatible";
  for i = 0 to 1 do
    let v = ok (Server.create_version srv f) in
    write srv v [ i ] (Printf.sprintf "gen%d" i);
    ok (Server.commit srv v)
  done;
  ok (Server.commit srv stale);
  Alcotest.(check string) "stale write survives" "stale but compatible"
    (current_data srv f [ 5 ]);
  Alcotest.(check string) "gen0 survives" "gen0" (current_data srv f [ 0 ]);
  Alcotest.(check string) "gen1 survives" "gen1" (current_data srv f [ 1 ])

let test_conflicting_version_frees_private_pages () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let loser = ok (Server.create_version srv f) in
  let winner = ok (Server.create_version srv f) in
  let _ = read srv loser [ 0 ] in
  write srv winner [ 0 ] "w";
  ok (Server.commit srv winner);
  let blocks_before = List.length (Helpers.ok_str (store.Store.list_blocks ())) in
  expect_conflict (Server.commit srv loser);
  let blocks_after = List.length (Helpers.ok_str (store.Store.list_blocks ())) in
  Alcotest.(check bool) "loser's copies freed" true (blocks_after < blocks_before)

(* {2 Commit across servers sharing a store} *)

let test_two_servers_one_store () =
  let store = Store.memory () in
  let ports = Ports.create () in
  let srv1 = Server.create ~seed:7 ~ports store in
  let srv2 = Server.create ~seed:7 ~ports store in
  let f = ok (Server.create_file srv1 ~data:(bytes "shared") ()) in
  (* Server 2 learns about the file from storage. *)
  let blocks = Helpers.ok_str (store.Store.list_blocks ()) in
  Alcotest.(check int) "one file recovered" 1 (ok (Server.recover_from_blocks srv2 blocks));
  let v1 = ok (Server.create_version srv1 f) in
  ok (Server.write_page srv1 v1 P.root (bytes "via server 1"));
  ok (Server.commit srv1 v1);
  (* Server 2's stale current hint self-corrects through the chain. *)
  let v2 = ok (Server.create_version srv2 f) in
  ok (Server.write_page srv2 v2 P.root (bytes "via server 2"));
  ok (Server.commit srv2 v2);
  let cur1 = ok (Server.current_version srv1 f) in
  Helpers.check_bytes "server 1 sees server 2's commit" "via server 2"
    (ok (Server.read_page srv1 cur1 P.root))

(* A commit writes only its version's own pages. A version learned from
   the store owns the copies its tree already reaches, so a page another
   server copied and this one rewrote is still made durable by this
   server's publish. *)
let test_learned_version_publishes_its_copies () =
  let store = Store.memory () in
  let ports = Ports.create () in
  let srv1 = Server.create ~seed:7 ~ports store in
  let srv2 = Server.create ~seed:7 ~ports store in
  let f = Helpers.file_with_pages srv1 2 in
  let v = ok (Server.create_version srv1 f) in
  write srv1 v [ 0 ] "copied by server 1";
  ok (Pagestore.flush (Server.pagestore srv1));
  write srv2 v [ 0 ] "rewritten by server 2";
  ok (Server.commit srv2 v);
  Server.crash srv2;
  let srv3 = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv3 (Helpers.ok_str (store.Store.list_blocks ()))));
  Alcotest.(check string) "the rewrite survived the crash" "rewritten by server 2"
    (current_data srv3 f [ 0 ])

let () =
  Alcotest.run "commit"
    [
      ( "sequential",
        [ quick "sequential commits succeed" test_sequential_commits_always_succeed ] );
      ( "intersection",
        [
          quick "disjoint writes merge" test_disjoint_writes_merge;
          quick "write/read conflict" test_write_read_conflict;
          quick "reader first is fine" test_read_before_write_same_order_ok;
          quick "blind writes: last wins" test_blind_write_overlap_last_wins;
          quick "rmw lost-update conflict" test_rmw_conflict;
          quick "reader vs root writer" test_reader_vs_root_writer;
        ] );
      ( "structure",
        [
          quick "M vs S conflict" test_structure_conflict_m_vs_s;
          quick "adoption when unsearched" test_structure_adoption_when_unsearched;
          quick "conservative candidate-M conflict"
            test_candidate_restructure_over_touched_subtree_conflicts;
        ] );
      ( "subtrees",
        [
          quick "disjoint subtrees" test_disjoint_subtrees_no_conflict;
          quick "sibling leaves" test_same_subtree_sibling_leaves_no_conflict;
          quick "deep read vs write" test_deep_read_vs_deep_write_conflict;
          quick "skips untouched subtrees" test_serialise_skips_untouched_subtrees;
        ] );
      ( "chains",
        [
          quick "three-way merge chain" test_three_way_merge_chain;
          quick "conflict found along chain" test_conflict_only_with_conflicting_predecessor;
          quick "merge carries all updates" test_merged_version_carries_all_updates;
          quick "stale base two generations" test_commit_against_stale_base_two_generations;
          quick "conflict frees private pages" test_conflicting_version_frees_private_pages;
        ] );
      ( "multi-server",
        [
          quick "two servers one store" test_two_servers_one_store;
          quick "learned version publishes its copies" test_learned_version_publishes_its_copies;
        ] );
    ]
