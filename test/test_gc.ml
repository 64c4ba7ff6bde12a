open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let allocated store = Helpers.ok_str (store.Store.list_blocks ())
let block_count store = List.length (allocated store)

let commit_write srv f p s =
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path p) (bytes s));
  ok (Server.commit srv v)

let test_collect_on_quiet_system_frees_nothing_live () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 10; reshare = false } srv) in
  Alcotest.(check int) "nothing freed" 0 stats.Gc.blocks_freed;
  Alcotest.(check int) "store unchanged" before (block_count store);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "data intact" "p2" (ok (Server.read_page srv cur (path [ 2 ])))

let test_prune_respects_retention () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 9 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  Alcotest.(check int) "10 versions" 10 (List.length (ok (Server.committed_chain srv f)));
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 3; reshare = false } srv) in
  Alcotest.(check int) "7 pruned" 7 stats.Gc.versions_pruned;
  Alcotest.(check int) "3 retained" 3 (List.length (ok (Server.committed_chain srv f)));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "current intact" "v9" (ok (Server.read_page srv cur P.root))

let test_pruned_blocks_are_freed () =
  let store, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 9 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = false } srv) in
  Alcotest.(check bool) "blocks freed" true (stats.Gc.blocks_freed > 0);
  Alcotest.(check bool) "store shrank" true (block_count store < before)

let test_shared_pages_survive_prune () =
  (* Old versions share pages with newer ones; pruning the old versions
     must not free pages the retained chain still references. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 6 in
  (* Touch only page 0 repeatedly: pages 1..5 stay shared across all
     versions, including the ones about to be pruned. *)
  for i = 1 to 6 do
    commit_write srv f [ 0 ] (Printf.sprintf "round%d" i)
  done;
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 1; reshare = false } srv));
  let cur = ok (Server.current_version srv f) in
  for p = 1 to 5 do
    Helpers.check_bytes
      (Printf.sprintf "shared page %d" p)
      (Printf.sprintf "p%d" p)
      (ok (Server.read_page srv cur (path [ p ])))
  done;
  Helpers.check_bytes "latest write" "round6" (ok (Server.read_page srv cur (path [ 0 ])))

let test_aborted_version_blocks_swept () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  (* Simulate a client crash mid-update: version created, pages copied,
     never committed, server then loses track of it (crash). *)
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "orphaned"));
  ok (Server.write_page srv v (path [ 1 ]) (bytes "orphaned"));
  ok (Pagestore.flush (Server.pagestore srv));
  Server.crash srv;
  let before = block_count store in
  let stats = ok (Gc.collect srv) in
  Alcotest.(check bool) "orphans freed" true (stats.Gc.blocks_freed >= 3);
  Alcotest.(check bool) "store shrank" true (block_count store < before);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "committed state untouched" "p0" (ok (Server.read_page srv cur (path [ 0 ])))

let test_uncommitted_versions_survive_gc () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "in flight"));
  let stats = ok (Gc.collect srv) in
  Alcotest.(check int) "nothing freed" 0 stats.Gc.blocks_freed;
  (* The in-flight update is unharmed and can still commit. *)
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "landed" "in flight" (ok (Server.read_page srv cur (path [ 0 ])))

let counter srv name = Afs_util.Stats.Counter.get (Server.counters srv) name

(* [v] reads [reads] of a file's pages and writes [writes] of them, while
   a concurrent update writes page [other] and commits first: [v] wins by
   merging, so it keeps its read copies. *)
let merged_winner srv f ~reads ~writes ~other =
  let v = ok (Server.create_version srv f) in
  List.iter (fun p -> ignore (ok (Server.read_page srv v (path [ p ])))) reads;
  List.iter (fun p -> ok (Server.write_page srv v (path [ p ]) (bytes "w"))) writes;
  commit_write srv f [ other ] "other";
  ok (Server.commit srv v);
  Alcotest.(check int) "won by merging" 1 (counter srv "commits.merged");
  v

let test_reshare_read_only_copies () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 5 in
  (* On the fast path the commit itself reshares the read copies. *)
  let fast = ok (Server.create_version srv f) in
  for p = 1 to 3 do
    ignore (ok (Server.read_page srv fast (path [ p ])))
  done;
  ok (Server.write_page srv fast (path [ 0 ]) (bytes "fast"));
  ok (Server.commit srv fast);
  Alcotest.(check int) "nothing left to reshare" 0
    (ok (Gc.reshare_version srv (ok (Server.version_block srv fast))));
  (* A merged winner keeps them: a read-modify-write of page 0 that also
     read pages 1..3, merged past a write of page 4. *)
  let v = merged_winner srv f ~reads:[ 1; 2; 3 ] ~writes:[ 0 ] ~other:4 in
  let vb = ok (Server.version_block srv v) in
  let reshared = ok (Gc.reshare_version srv vb) in
  Alcotest.(check int) "three read copies reshared" 3 reshared;
  (* Data is unchanged after resharing. *)
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "write kept" "w" (ok (Server.read_page srv cur (path [ 0 ])));
  Helpers.check_bytes "merged write kept" "other" (ok (Server.read_page srv cur (path [ 4 ])));
  for p = 1 to 3 do
    Helpers.check_bytes
      (Printf.sprintf "page %d reshared content" p)
      (Printf.sprintf "p%d" p)
      (ok (Server.read_page srv cur (path [ p ])))
  done

(* A merged winner [a] read /0.0 and wrote /1; the collector reshares its
   read copy of /0. An older update that inserted under /0 then meets
   [a] in its commit chain: [a]'s tree no longer shows an access below
   /0, so the pre-test must not reject what the tree walk accepts. *)
let test_reshared_map_follows_tree () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.insert_page srv v ~parent:(path [ 0 ]) ~index:0 ()));
  ok (Server.commit srv v);
  let late = ok (Server.create_version srv f) in
  ignore (ok (Server.insert_page srv late ~parent:(path [ 0 ]) ~index:1 ()));
  let a = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv a (path [ 0; 0 ])));
  ok (Server.write_page srv a (path [ 1 ]) (bytes "a"));
  commit_write srv f [ 2 ] "c";
  ok (Server.commit srv a);
  Alcotest.(check int) "a won by merging" 1 (counter srv "commits.merged");
  commit_write srv f [ 1 ] "e";
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 8; reshare = true } srv) in
  Alcotest.(check int) "a's read copy reshared" 1 stats.Gc.pages_reshared;
  let block cap = ok (Server.version_block srv cap) in
  (match
     ok (Serialise.test_only (Server.pagestore srv) ~candidate:(block late) ~committed:(block a))
   with
  | Serialise.Serialisable _ -> ()
  | Serialise.Conflict { reason; _ } -> Alcotest.failf "the walk rejects: %s" reason);
  let shortcircuits = counter srv "commits.shortcircuit" in
  let committed = Server.commit srv late in
  Alcotest.(check int) "no short circuit" shortcircuits (counter srv "commits.shortcircuit");
  match committed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "the walk accepts, the commit answered %s" (Errors.to_string e)

let test_reshare_then_sweep_reclaims_space () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 9 in
  ignore (merged_winner srv f ~reads:(List.init 8 Fun.id) ~writes:[] ~other:8);
  ok (Pagestore.flush (Server.pagestore srv));
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 16; reshare = true } srv) in
  Alcotest.(check int) "8 reshared" 8 stats.Gc.pages_reshared;
  Alcotest.(check bool) "8 copies swept" true (stats.Gc.blocks_freed >= 8);
  Alcotest.(check int) "space reclaimed" (before - stats.Gc.blocks_freed) (block_count store)

(* An open update copied a page from the current version, a merged
   winner that still has its read copy there. A collection leaves that
   version's copies alone, so the update's fast-path commit can point
   its own read copy back at the one it copied. *)
let test_open_update_keeps_current_copies () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  ignore (merged_winner srv f ~reads:[ 1 ] ~writes:[ 0 ] ~other:2);
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (path [ 1 ])));
  let stats = ok (Gc.collect srv) in
  Alcotest.(check int) "current version not reshared" 0 stats.Gc.pages_reshared;
  ok (Server.write_page srv v (path [ 0 ]) (bytes "v"));
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "read page intact" "p1" (ok (Server.read_page srv cur (path [ 1 ])));
  let stats = ok (Gc.collect srv) in
  Alcotest.(check int) "resharable once no update is open" 1 stats.Gc.pages_reshared

let test_reshare_keeps_written_subtrees () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 1 ]) (bytes "must stay"));
  ok (Server.commit srv v);
  let vb = ok (Server.version_block srv v) in
  let reshared = ok (Gc.reshare_version srv vb) in
  Alcotest.(check int) "nothing reshared" 0 reshared;
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "write intact" "must stay" (ok (Server.read_page srv cur (path [ 1 ])))

(* {2 A commit leaves no read shadow}

   Random read/write transactions over a two-level file. A transaction
   commits on the fast path, or by a merge when a concurrent write of
   [other] lands first. After a fast-path commit no C entry of the
   committed tree lacks a W or M at or below it, and the tracked write
   set names exactly the tree's copied paths. A merged winner keeps the
   shadows its own operations imply until [Gc.reshare_version] reshares
   them. Contents always match a model of the committed writes. *)

let two_level_file srv =
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  for i = 0 to 2 do
    for j = 0 to 1 do
      ignore
        (ok
           (Server.insert_page srv v ~parent:(path [ i ]) ~index:j
              ~data:(bytes (Printf.sprintf "p%d.%d" i j)) ()))
    done
  done;
  ok (Server.commit srv v);
  f

let two_level_paths = [] :: List.concat_map (fun i -> [ [ i ]; [ i; 0 ]; [ i; 1 ] ]) [ 0; 1; 2 ]

(* The tree's copied paths (root first, the root when its flags are
   set) and its topmost read shadows. *)
let copied_and_shadows srv vblock =
  let page b = ok (Pagestore.read (Server.pagestore srv) b) in
  let rec written_below (e : Page.ref_entry) =
    let f = e.Page.flags in
    f.Flags.w || f.Flags.m
    || (f.Flags.c && Array.exists written_below (page e.Page.block).Page.refs)
  in
  let copied = ref [] and shadows = ref [] in
  let rec walk p ~in_shadow block =
    Array.iteri
      (fun i (e : Page.ref_entry) ->
        if e.Page.flags.Flags.c then begin
          let cp = p @ [ i ] in
          copied := cp :: !copied;
          let shadow = (not in_shadow) && not (written_below e) in
          if shadow then shadows := cp :: !shadows;
          walk cp ~in_shadow:(in_shadow || shadow) e.Page.block
        end)
      (page block).Page.refs
  in
  let root = page vblock in
  if not (Flags.equal root.Page.header.Page.root_flags Flags.clear) then copied := [ [] ];
  walk [] ~in_shadow:false vblock;
  (List.sort compare !copied, List.sort compare !shadows)

(* The shadows a transaction's operations imply: each topmost accessed
   path with no write at or below it. *)
let implied_shadows ops =
  let writes = List.filter_map (fun (w, p) -> if w then Some p else None) ops in
  let written_below p = List.exists (fun w -> P.is_prefix (path p) (path w)) writes in
  let prefixes p = List.init (List.length p) (fun k -> List.filteri (fun i _ -> i <= k) p) in
  let accessed = List.sort_uniq compare (List.concat_map (fun (_, p) -> prefixes p) ops) in
  List.filter
    (fun p ->
      let parent = List.filteri (fun i _ -> i < List.length p - 1) p in
      (not (written_below p)) && (parent = [] || written_below parent))
    accessed

let run_shadow_history txns =
  let _, srv = Helpers.fresh_server () in
  let f = two_level_file srv in
  let model = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let name = String.concat "." (List.map string_of_int p) in
      Hashtbl.replace model p (if p = [] then "root" else "p" ^ name))
    two_level_paths;
  let paths_l = Alcotest.(list (list int)) in
  let check_contents what =
    let cur = ok (Server.current_version srv f) in
    List.iter
      (fun p ->
        Helpers.check_bytes what (Hashtbl.find model p) (ok (Server.read_page srv cur (path p))))
      two_level_paths
  in
  List.iteri
    (fun k (ops, other) ->
      let v = ok (Server.create_version srv f) in
      let mine = Hashtbl.copy model in
      List.iteri
        (fun n (write, p) ->
          if write then begin
            let data = Printf.sprintf "t%d.%d" k n in
            ok (Server.write_page srv v (path p) (bytes data));
            Hashtbl.replace mine p data
          end
          else
            Helpers.check_bytes "reads its own view" (Hashtbl.find mine p)
              (ok (Server.read_page srv v (path p))))
        ops;
      Option.iter
        (fun p ->
          let data = Printf.sprintf "x%d" k in
          commit_write srv f p data;
          Hashtbl.replace model p data)
        other;
      let fast = counter srv "commits.fastpath" and merged = counter srv "commits.merged" in
      (match Server.commit srv v with
      | Ok () ->
          List.iter (fun (w, p) -> if w then Hashtbl.replace model p (Hashtbl.find mine p)) ops
      | Error Errors.Conflict -> ()
      | Error e -> Alcotest.failf "commit: %s" (Errors.to_string e));
      check_contents "committed contents";
      let vb = ok (Server.version_block srv v) in
      if counter srv "commits.fastpath" > fast then begin
        let copied, shadows = copied_and_shadows srv vb in
        Alcotest.check paths_l "fast path: no read shadow" [] shadows;
        match Server.tracked_writeset srv vb with
        | Some ws ->
            Alcotest.check paths_l "write set = copied paths" copied
              (List.map P.to_list (Writeset.paths ws))
        | None -> Alcotest.fail "fast-path winner lost its write set"
      end
      else if counter srv "commits.merged" > merged then begin
        Alcotest.check paths_l "merged winner keeps its shadows" (implied_shadows ops)
          (snd (copied_and_shadows srv vb));
        ignore (ok (Gc.reshare_version srv vb));
        Alcotest.check paths_l "reshared by the collector" [] (snd (copied_and_shadows srv vb));
        check_contents "contents after resharing"
      end)
    txns;
  true

let prop_commit_leaves_no_read_shadow =
  let open QCheck2.Gen in
  let gen_path =
    map2 (fun i j -> if j < 0 then [ i ] else [ i; j ]) (int_range 0 2) (int_range (-1) 1)
  in
  let gen_txn = pair (list_size (int_range 1 6) (pair bool gen_path)) (opt gen_path) in
  let show_path p = "/" ^ String.concat "." (List.map string_of_int p) in
  let show_txn (ops, other) =
    String.concat " " (List.map (fun (w, p) -> (if w then "W" else "R") ^ show_path p) ops)
    ^ match other with Some p -> " | other W" ^ show_path p | None -> ""
  in
  QCheck2.Test.make ~name:"commit leaves no read shadow" ~count:200
    ~print:(fun txns -> String.concat "; " (List.map show_txn txns))
    (list_size (int_range 1 8) gen_txn)
    run_shadow_history

let test_gc_safety_never_frees_live () =
  (* Random workload, then GC: every block the mark reports live after the
     collection is still allocated, the freed blocks are exactly the ones
     allocated before minus the live ones, and all file contents survive. *)
  let store, srv = Helpers.fresh_server () in
  let rng = Afs_util.Xrng.create 99 in
  let files = Array.init 3 (fun _ -> Helpers.file_with_pages srv 5) in
  let expected = Array.make_matrix 3 5 "" in
  for fi = 0 to 2 do
    for p = 0 to 4 do
      expected.(fi).(p) <- Printf.sprintf "p%d" p
    done
  done;
  for round = 1 to 30 do
    let fi = Afs_util.Xrng.int rng 3 in
    let p = Afs_util.Xrng.int rng 5 in
    let v = ok (Server.create_version srv files.(fi)) in
    (* Mix reads in to generate read copies. *)
    let rp = Afs_util.Xrng.int rng 5 in
    ignore (ok (Server.read_page srv v (path [ rp ])));
    let value = Printf.sprintf "r%d" round in
    ok (Server.write_page srv v (path [ p ]) (bytes value));
    ok (Server.commit srv v);
    expected.(fi).(p) <- value
  done;
  let before = allocated store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = true } srv) in
  let remaining = allocated store in
  let live = ok (Gc.live_blocks srv) in
  List.iter
    (fun b -> if not (List.mem b remaining) then Alcotest.failf "live block %d was freed" b)
    live;
  let freed = List.filter (fun b -> not (List.mem b remaining)) before in
  Alcotest.(check (list int))
    "freed = allocated before minus live"
    (List.filter (fun b -> not (List.mem b live)) before)
    freed;
  Alcotest.(check int) "stats count the freed blocks" (List.length freed) stats.Gc.blocks_freed;
  Alcotest.(check bool) "something was freed" true (freed <> []);
  for fi = 0 to 2 do
    let cur = ok (Server.current_version srv files.(fi)) in
    for p = 0 to 4 do
      Helpers.check_bytes
        (Printf.sprintf "file %d page %d" fi p)
        expected.(fi).(p)
        (ok (Server.read_page srv cur (path [ p ])))
    done
  done

let test_collection_is_cache_neutral () =
  (* A collection counts no cache hit or miss, adds no entry and moves none:
     the cache afterwards is the cache before, in the same recency order,
     less the blocks the sweep freed. Dirty pages of an open update and
     stale entries are left as they were. *)
  List.iter
    (fun reshare ->
      let store, srv = Helpers.fresh_server ~capacity:16 () in
      let files = Array.init 3 (fun _ -> Helpers.file_with_pages srv 6) in
      for round = 1 to 12 do
        let v = ok (Server.create_version srv files.(round mod 3)) in
        ignore (ok (Server.read_page srv v (path [ round mod 6 ])));
        ok (Server.write_page srv v (path [ (round + 1) mod 6 ]) (bytes (string_of_int round)));
        ok (Server.commit srv v)
      done;
      let open_update = ok (Server.create_version srv files.(0)) in
      ok (Server.write_page srv open_update (path [ 2 ]) (bytes "dirty"));
      let ps = Server.pagestore srv in
      List.iteri (fun i b -> if i mod 3 = 0 then Pagestore.refresh ps b) (Pagestore.cached_blocks ps);
      let hits = counter srv "cache.hits" and misses = counter srv "cache.misses" in
      let cached = Pagestore.cached_blocks ps and dirty = Pagestore.dirty_count ps in
      let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare } srv) in
      let remaining = allocated store in
      let label what = Printf.sprintf "%s (reshare %b)" what reshare in
      Alcotest.(check bool) (label "something freed") true (stats.Gc.blocks_freed > 0);
      Alcotest.(check int) (label "no hit counted") hits (counter srv "cache.hits");
      Alcotest.(check int) (label "no miss counted") misses (counter srv "cache.misses");
      Alcotest.(check (list int))
        (label "only freed blocks left the cache, order kept")
        (List.filter (fun b -> List.mem b remaining) cached)
        (Pagestore.cached_blocks ps);
      Alcotest.(check int) (label "dirty pages untouched") dirty (Pagestore.dirty_count ps);
      ok (Server.commit srv open_update);
      let cur = ok (Server.current_version srv files.(0)) in
      Helpers.check_bytes (label "open update landed") "dirty"
        (ok (Server.read_page srv cur (path [ 2 ]))))
    [ false; true ]

let test_dead_version_records_reclaimed () =
  (* After a collection with retention k, the server keeps no record of a
     pruned or aborted version: no write set, no status. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  for i = 1 to 8 do
    commit_write srv f [ i mod 3 ] (Printf.sprintf "v%d" i)
  done;
  let aborted = ok (Server.create_version srv f) in
  ok (Server.write_page srv aborted (path [ 0 ]) (bytes "aborted"));
  ok (Server.abort_version srv aborted);
  let winner = ok (Server.create_version srv f) in
  let loser = ok (Server.create_version srv f) in
  ok (Server.write_page srv winner (path [ 1 ]) (bytes "winner"));
  ignore (ok (Server.read_page srv loser (path [ 1 ])));
  ok (Server.write_page srv loser (path [ 1 ]) (bytes "loser"));
  ok (Server.commit srv winner);
  Helpers.expect_conflict (Server.commit srv loser);
  let chain = ok (Server.committed_chain srv f) in
  let caps = List.map (fun b -> (b, ok (Server.version_of_block srv b))) chain in
  let dead = List.map (fun v -> (ok (Server.version_block srv v), v)) [ aborted; loser ] in
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "aborted before collection" true
        (ok (Server.version_status srv v) = Server.Aborted))
    dead;
  let k = 3 in
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = k; reshare = false } srv));
  let npruned = List.length chain - k in
  List.iteri
    (fun i (b, cap) ->
      if i < npruned then begin
        Alcotest.(check bool) (Printf.sprintf "pruned %d: no write set" b) true
          (Server.tracked_writeset srv b = None);
        Helpers.expect_error "pruned version status" (Server.version_status srv cap)
      end
      else begin
        Alcotest.(check bool) (Printf.sprintf "retained %d: write set kept" b) true
          (Server.tracked_writeset srv b <> None);
        Alcotest.(check bool) (Printf.sprintf "retained %d: committed" b) true
          (ok (Server.version_status srv cap) = Server.Committed)
      end)
    caps;
  List.iter
    (fun (b, v) ->
      Alcotest.(check bool) "aborted: no write set" true (Server.tracked_writeset srv b = None);
      Helpers.expect_error "aborted version status" (Server.version_status srv v))
    dead;
  Alcotest.(check int) "versions.reclaimed counts the dropped records" (npruned + 2)
    (counter srv "versions.reclaimed");
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "current intact" "winner" (ok (Server.read_page srv cur (path [ 1 ])))

let test_recovery_after_gc () =
  (* GC rewrites base references when pruning; recovery from raw blocks
     must still find the chain root. *)
  let store, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 6 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = false } srv));
  ok (Pagestore.flush (Server.pagestore srv));
  let srv2 = Server.create store in
  let blocks = Helpers.ok_str (store.Store.list_blocks ()) in
  Alcotest.(check int) "file recovered" 1 (ok (Server.recover_from_blocks srv2 blocks));
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "current readable" "v6" (ok (Server.read_page srv2 cur P.root))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

let test_retain_must_be_positive () =
  let _, srv = Helpers.fresh_server () in
  Alcotest.check_raises "zero retention"
    (Invalid_argument "Gc.collect: retain_committed must be >= 1") (fun () ->
      ignore (Gc.collect ~policy:{ Gc.retain_committed = 0; reshare = false } srv))

let test_background_collector_in_sim () =
  (* The collector as its own simulated process, interleaved with a
     client workload: space stays bounded and no committed data is lost. *)
  let engine = Afs_sim.Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 8 in
  let freed = ref 0 and pruned = ref 0 in
  let collector =
    Afs_sim.Proc.spawn ~name:"gc" engine (fun () ->
        while Afs_sim.Engine.now engine < 2_000.0 do
          Afs_sim.Proc.delay 50.0;
          let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = true } srv) in
          freed := !freed + stats.Gc.blocks_freed;
          pruned := !pruned + stats.Gc.versions_pruned
        done)
  in
  ignore collector;
  let writer =
    Afs_sim.Proc.spawn ~name:"writer" engine (fun () ->
        for i = 1 to 100 do
          Afs_sim.Proc.delay 20.0;
          let v = ok (Server.create_version srv f) in
          ok (Server.write_page srv v (path [ i mod 8 ]) (bytes (string_of_int i)));
          ok (Server.commit srv v)
        done)
  in
  ignore writer;
  Afs_sim.Engine.run engine;
  Alcotest.(check bool) "collector ran" true (!freed > 0);
  Alcotest.(check bool) "versions pruned" true (!pruned > 50);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "latest commit intact" "100" (ok (Server.read_page srv cur (path [ 4 ])));
  (* Space is near the live set, not the 100-commit history. *)
  let used = block_count store in
  Alcotest.(check bool) (Printf.sprintf "%d blocks bounded" used) true (used < 60)

(* {2 The collector against a full-decode reference}

   The reference is the collector as it was before its reads went
   cache-neutral: roots walked again after the prune, every reachable
   block decoded in full through the page cache (inserting and
   promoting as it goes), marks in a hash table. It shares only
   resharing with [Gc.collect]. The property runs one random history on
   twin servers in lockstep, collects one twin with [Gc.collect] and the
   other with the reference, and requires the same freed blocks and the
   same statistics, with every current page still readable. *)

let reference_roots srv =
  List.map
    (fun cap -> (cap, ok (Server.committed_chain srv cap), ok (Server.uncommitted_versions srv cap)))
    (Server.list_files srv)

let reference_mark ps marked root =
  let rec mark block =
    if not (Hashtbl.mem marked block) then begin
      Hashtbl.replace marked block ();
      match Pagestore.read ps block with
      | Error _ -> () (* Allocated but never written: marked, no children. *)
      | Ok page -> Array.iter (fun (e : Page.ref_entry) -> mark e.Page.block) page.Page.refs
    end
  in
  mark root

let reference_collect ~(policy : Gc.policy) store srv =
  let ps = Server.pagestore srv in
  let roots = reference_roots srv in
  let pages_reshared =
    if not policy.Gc.reshare then 0
    else
      List.fold_left
        (fun acc (_, chain, uncommitted) ->
          (* A file's current version is left alone while it has open
             updates, as in [Gc.collect]. *)
          let newest_first =
            match (List.rev chain, uncommitted) with
            | _ :: older, _ :: _ -> older
            | all, _ -> all
          in
          List.fold_left (fun acc vb -> acc + ok (Gc.reshare_version srv vb)) acc newest_first)
        0 roots
  in
  let versions_pruned =
    List.fold_left
      (fun acc (cap, chain, _) ->
        let n = List.length chain and keep = policy.Gc.retain_committed in
        if n <= keep then acc
        else begin
          let new_oldest = List.nth chain (n - keep) in
          let page = ok (Pagestore.read ps new_oldest) in
          let header = { page.Page.header with Page.base_ref = None } in
          ok (Pagestore.write_through ps new_oldest (Page.with_header page header));
          ok (Server.note_pruned_chain srv cap ~new_oldest);
          acc + n - keep
        end)
      0 roots
  in
  let marked = Hashtbl.create 256 in
  List.iter
    (fun (_, chain, uncommitted) ->
      List.iter (reference_mark ps marked) chain;
      List.iter (reference_mark ps marked) uncommitted)
    (reference_roots srv);
  let freed = ref 0 in
  List.iter
    (fun b ->
      if not (Hashtbl.mem marked b) then begin
        Pagestore.free ps b;
        incr freed
      end)
    (allocated store);
  { Gc.versions_pruned; pages_reshared; blocks_freed = !freed; blocks_live = Hashtbl.length marked }

(* Every page of a file's current version, depth first, as (path, data). *)
let snapshot srv f =
  let cur = ok (Server.current_version srv f) in
  let rec walk p acc =
    let data = Helpers.str (ok (Server.read_page srv cur (path p))) in
    let n = (ok (Server.page_info srv cur (path p))).Server.nrefs in
    List.fold_left (fun acc i -> walk (p @ [ i ]) acc) ((p, data) :: acc) (List.init n Fun.id)
  in
  List.rev (walk [] [])

exception Diverged of string

let run_twins ~seed ~capacity ~(policy : Gc.policy) =
  let module X = Afs_util.Xrng in
  let rng = X.create seed in
  let twin () =
    let store = Store.memory () in
    (store, Server.create ~seed:7 ~cache_capacity:capacity store)
  in
  let ((store_a, a) as ta) = twin () and ((store_b, b) as tb) = twin () in
  (* Apply [f] to both twins; they must agree on the outcome. *)
  let both what f =
    let ra = f ta and rb = f tb in
    if ra <> rb then raise (Diverged what);
    ra
  in
  let result r = Result.map_error Errors.to_string r in
  let files = Array.init 3 (fun _ -> both "create" (fun (_, srv) -> Helpers.file_with_pages srv 3)) in
  let open_versions = ref [] in
  (* Read-only probes go to the reference twin, so that the collector's
     twin meets its cache exactly as the history left it: dirty pages of
     open updates included. *)
  let nrefs v p = (ok (Server.page_info b v (path p))).Server.nrefs in
  let rec random_path v p =
    let n = nrefs v p in
    if n = 0 || List.length p >= 2 || X.int rng 3 = 0 then p else random_path v (p @ [ X.int rng n ])
  in
  let collections = ref 0 in
  let collect () =
    incr collections;
    let before = both "allocated" (fun (store, _) -> allocated store) in
    let contents = Array.map (snapshot b) files in
    let stats_a = ok (Gc.collect ~policy a) in
    let stats_b = reference_collect ~policy store_b b in
    let freed store = List.filter (fun blk -> not (List.mem blk (allocated store))) before in
    if freed store_a <> freed store_b then raise (Diverged "freed blocks");
    if stats_a <> stats_b then
      raise (Diverged (Fmt.str "stats %a vs %a" Gc.pp_stats stats_a Gc.pp_stats stats_b));
    List.iter
      (fun blk -> if not (List.mem blk (allocated store_a)) then raise (Diverged "live block freed"))
      (ok (Gc.live_blocks a));
    Array.iteri
      (fun i f ->
        if snapshot a f <> contents.(i) || snapshot b f <> contents.(i) then
          raise (Diverged "current data changed"))
      files
  in
  for step = 1 to 40 do
    let pick_open () = List.nth !open_versions (X.int rng (List.length !open_versions)) in
    match X.int rng 12 with
    | 0 | 1 when List.length !open_versions < 3 ->
        let f = files.(X.int rng (Array.length files)) in
        let v = both "open" (fun (_, srv) -> ok (Server.create_version srv f)) in
        open_versions := !open_versions @ [ v ]
    | 2 | 3 when !open_versions <> [] ->
        let v = pick_open () in
        let p = random_path v [] in
        ignore (both "read" (fun (_, srv) -> result (Server.read_page srv v (path p))))
    | 4 | 5 when !open_versions <> [] ->
        let v = pick_open () in
        let p = random_path v [] in
        let data = bytes (Printf.sprintf "w%d" step) in
        ignore (both "write" (fun (_, srv) -> result (Server.write_page srv v (path p) data)))
    | 6 when !open_versions <> [] ->
        let v = pick_open () in
        let parent = random_path v [] in
        let index = X.int rng (nrefs v parent + 1) in
        let data = bytes (Printf.sprintf "i%d" step) in
        ignore
          (both "insert" (fun (_, srv) ->
               result (Server.insert_page srv v ~parent:(path parent) ~index ~data ())))
    | 7 when !open_versions <> [] ->
        (* Move a root child under one of its siblings (destination
           coordinates are taken after the removal). *)
        let v = pick_open () in
        let n = nrefs v [] in
        if n >= 2 then begin
        let src = X.int rng n in
        let dst = (src + 1 + X.int rng (n - 1)) mod n in
        let dst_index = X.int rng (nrefs v [ dst ] + 1) in
        let dst = if dst > src then dst - 1 else dst in
        ignore
          (both "move" (fun (_, srv) ->
               result
                 (Server.move_page srv v ~src_parent:P.root ~src_index:src
                    ~dst_parent:(path [ dst ]) ~dst_index)))
        end
    | 8 | 9 when !open_versions <> [] ->
        let v = pick_open () in
        open_versions := List.filter (fun w -> w != v) !open_versions;
        if X.int rng 4 = 0 then
          ignore (both "abort" (fun (_, srv) -> result (Server.abort_version srv v)))
        else ignore (both "commit" (fun (_, srv) -> result (Server.commit srv v)))
    | 10 when X.int rng 3 = 0 ->
        (* Crash with the open updates' pages flushed: their blocks are
           allocated and written, but no root reaches them any more. *)
        both "crash" (fun (_, srv) ->
            ok (Pagestore.flush (Server.pagestore srv));
            Server.crash srv);
        open_versions := []
    | 11 -> collect ()
    | _ -> ()
  done;
  (* Open updates (dirty pages, fresh blocks never written) live through
     a collection, then land or conflict the same way on both twins. *)
  collect ();
  List.iter
    (fun v -> ignore (both "final commit" (fun (_, srv) -> result (Server.commit srv v))))
    !open_versions;
  collect ();
  !collections

let prop_collect_matches_reference =
  QCheck2.Test.make ~name:"collect frees what a full-decode mark frees" ~count:200
    ~print:(fun (seed, retain, reshare, capacity) ->
      Printf.sprintf "seed=%d retain=%d reshare=%b capacity=%d" seed retain reshare capacity)
    QCheck2.Gen.(quad (int_range 1 100000) (int_range 1 4) bool (int_range 2 8))
    (fun (seed, retain_committed, reshare, capacity) ->
      match run_twins ~seed ~capacity ~policy:{ Gc.retain_committed; reshare } with
      | collections -> collections >= 2
      | exception Diverged what -> QCheck2.Test.fail_reportf "twins diverged: %s" what)

let () =
  Alcotest.run "gc"
    [
      ( "sweep",
        [
          quick "quiet system untouched" test_collect_on_quiet_system_frees_nothing_live;
          quick "prune respects retention" test_prune_respects_retention;
          quick "pruned blocks freed" test_pruned_blocks_are_freed;
          quick "shared pages survive prune" test_shared_pages_survive_prune;
          quick "aborted versions swept" test_aborted_version_blocks_swept;
          quick "uncommitted versions survive" test_uncommitted_versions_survive_gc;
        ] );
      ( "reshare",
        [
          quick "read-only copies reshared" test_reshare_read_only_copies;
          quick "reshare + sweep reclaims" test_reshare_then_sweep_reclaims_space;
          quick "reshared map follows tree" test_reshared_map_follows_tree;
          quick "written subtrees kept" test_reshare_keeps_written_subtrees;
          quick "open update keeps current copies" test_open_update_keeps_current_copies;
          QCheck_alcotest.to_alcotest prop_commit_leaves_no_read_shadow;
        ] );
      ( "safety",
        [
          quick "never loses live data" test_gc_safety_never_frees_live;
          quick "collection is cache-neutral" test_collection_is_cache_neutral;
          quick "dead version records reclaimed" test_dead_version_records_reclaimed;
          quick "recovery after gc" test_recovery_after_gc;
          quick "retention validated" test_retain_must_be_positive;
        ] );
      ( "background",
        [ quick "collector as simulated process" test_background_collector_in_sim ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_collect_matches_reference ]);
    ]
