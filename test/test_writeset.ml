(* The concurrency-control administration (Writeset) against its
   definition: the flags actually reachable in a version's page tree.

   The unit tests pin the map's queries and the pre-test's conditions;
   the properties run random operation sequences — page writes, reads,
   inserts, removes, moves — through servers and check (1) the map read
   from a version, and the map its commit keeps, equal the tree's flags
   exactly, (2) the server's write set is the tree's written paths, and
   (3) the map-only conflict pre-test agrees with the tree-walking
   serialisability test, across two servers sharing a store. *)

open Afs_core
module P = Afs_util.Pagepath
module Xrng = Afs_util.Xrng
module Writeset = Afs_core.Writeset

let ok = Helpers.ok
let bytes = Helpers.bytes
let path = Helpers.path

(* {2 Unit tests} *)

(* The map a version holds after the given accesses, each recorded on
   its path's flags as the server records it in the tree. *)
let record_all l =
  List.fold_left
    (fun ws (p, a) -> Writeset.add ws (path p) (Flags.record (Writeset.flags_at ws (path p)) a))
    Writeset.empty l

let paths_of ws = List.map P.to_list (Writeset.paths ws)

let test_record_and_written () =
  let ws =
    record_all [ ([ 0 ], Flags.Read); ([ 1 ], Flags.Write); ([], Flags.Modify); ([ 1 ], Flags.Read) ]
  in
  Alcotest.(check (list (list int))) "all paths sorted" [ []; [ 0 ]; [ 1 ] ] (paths_of ws);
  Alcotest.(check (list (list int)))
    "written = W or M" [ []; [ 1 ] ]
    (List.map P.to_list (Writeset.written_paths ws));
  let f1 = Writeset.flags_at ws (path [ 1 ]) in
  Alcotest.(check bool) "W and R accumulate" true (f1.Flags.w && f1.Flags.r)

let test_conflict_conditions () =
  let committed = record_all [ ([ 1 ], Flags.Write); ([ 2 ], Flags.Modify) ] in
  let reader = record_all [ ([ 1 ], Flags.Read) ] in
  let searcher = record_all [ ([ 2 ], Flags.Search) ] in
  let disjoint = record_all [ ([ 0 ], Flags.Write) ] in
  Alcotest.(check bool) "W/R conflict" true
    (Writeset.conflict ~candidate:reader ~committed <> None);
  Alcotest.(check bool) "M/S conflict" true
    (Writeset.conflict ~candidate:searcher ~committed <> None);
  Alcotest.(check bool) "disjoint is clean" true
    (Writeset.conflict ~candidate:disjoint ~committed = None);
  (* Candidate restructured over pages the committed update reached below. *)
  let restructurer = record_all [ ([ 1 ], Flags.Modify) ] in
  let below = record_all [ ([ 1; 0 ], Flags.Read) ] in
  Alcotest.(check bool) "M over accessed-below conflict" true
    (Writeset.conflict ~candidate:restructurer ~committed:below <> None)

(* {2 Random-operation properties against the server} *)

(* A random existing path, by unrecorded traversal (page_info does not
   touch flags). *)
let random_path rng srv v =
  let rec go p =
    let info = ok (Server.page_info srv v p) in
    if info.Server.nrefs = 0 || Xrng.int rng 3 = 0 then p
    else go (P.child p (Xrng.int rng info.Server.nrefs))
  in
  go P.root

let random_op rng srv v =
  let ignore_result = function Ok _ -> () | Error (_ : Errors.t) -> () in
  match Xrng.int rng 10 with
  | 0 | 1 | 2 ->
      let p = random_path rng srv v in
      ignore_result (Server.write_page srv v p (bytes "w"))
  | 3 | 4 ->
      let p = random_path rng srv v in
      ignore_result (Result.map ignore (Server.read_page srv v p))
  | 5 | 6 ->
      let parent = random_path rng srv v in
      let n = (ok (Server.page_info srv v parent)).Server.nrefs in
      ignore_result
        (Result.map ignore (Server.insert_page srv v ~parent ~index:(Xrng.int rng (n + 1)) ()))
  | 7 ->
      let parent = random_path rng srv v in
      let n = (ok (Server.page_info srv v parent)).Server.nrefs in
      if n > 0 then ignore_result (Server.remove_page srv v ~parent ~index:(Xrng.int rng n))
  | _ ->
      (* Move: picked against the pre-removal shape, so the call may fail
         (destination inside the moved subtree, or gone after removal);
         a partial move still has to keep the administration exact. *)
      let src_parent = random_path rng srv v in
      let n = (ok (Server.page_info srv v src_parent)).Server.nrefs in
      if n > 0 then begin
        let src_index = Xrng.int rng n in
        let dst_parent = random_path rng srv v in
        let m = (ok (Server.page_info srv v dst_parent)).Server.nrefs in
        ignore_result
          (Server.move_page srv v ~src_parent ~src_index ~dst_parent
             ~dst_index:(Xrng.int rng (m + 1)))
      end

(* Every non-clear flag reachable in the version's tree, with its path. *)
let tree_flags srv vblock =
  let acc = ref [] in
  let read b = ok (Pagestore.read (Server.pagestore srv) b) in
  let page = read vblock in
  let root_flags = page.Page.header.Page.root_flags in
  if not (Flags.equal root_flags Flags.clear) then acc := (P.root, root_flags) :: !acc;
  let rec walk p (page : Page.t) =
    Array.iteri
      (fun i (e : Page.ref_entry) ->
        if not (Flags.equal e.Page.flags Flags.clear) then begin
          let cp = P.child p i in
          acc := (cp, e.Page.flags) :: !acc;
          if e.Page.flags.Flags.c then walk cp (read e.Page.block)
        end)
      page.Page.refs
  in
  walk P.root page;
  List.sort (fun (a, _) (b, _) -> P.compare a b) !acc

let same_flag_list a b =
  List.length a = List.length b
  && List.for_all2 (fun (p, f) (q, g) -> P.equal p q && Flags.equal f g) a b

let build_version rng srv f nops =
  let v = ok (Server.create_version srv f) in
  for _ = 1 to nops do
    random_op rng srv v
  done;
  v

let map_list ws = List.map (fun p -> (p, Writeset.flags_at ws p)) (Writeset.paths ws)

(* The map read from an uncommitted version equals its tree's flags, and
   so does the map its commit keeps (a fast-path win drops its read
   shadows from both). *)
let prop_map_equals_tree_flags =
  QCheck2.Test.make ~name:"incremental map = reachable tree flags" ~count:200
    ~print:(fun (seed, nops) -> Printf.sprintf "seed=%d nops=%d" seed nops)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 40))
    (fun (seed, nops) ->
      let _, srv = Helpers.fresh_server () in
      let f = Helpers.file_with_pages srv 3 in
      let rng = Xrng.create seed in
      let v = build_version rng srv f nops in
      let vblock = ok (Server.version_block srv v) in
      let read = ok (Serialise.flag_map (Server.pagestore srv) ~version:vblock) in
      same_flag_list (map_list read) (tree_flags srv vblock)
      && Server.tracked_writeset srv vblock = None
      &&
      match Server.commit srv v with
      | Error _ -> false
      | Ok () -> (
          match Server.tracked_writeset srv vblock with
          | None -> false
          | Some kept -> same_flag_list (map_list kept) (tree_flags srv vblock)))

let prop_written_set_is_tree_writes =
  QCheck2.Test.make ~name:"written_set = tree's W/M paths" ~count:200
    ~print:(fun (seed, nops) -> Printf.sprintf "seed=%d nops=%d" seed nops)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 40))
    (fun (seed, nops) ->
      let _, srv = Helpers.fresh_server () in
      let f = Helpers.file_with_pages srv 3 in
      let rng = Xrng.create seed in
      let v = build_version rng srv f nops in
      let vblock = ok (Server.version_block srv v) in
      let written =
        List.filter_map
          (fun (p, (fl : Flags.t)) -> if fl.Flags.w || fl.Flags.m then Some p else None)
          (tree_flags srv vblock)
      in
      let answered = ok (Server.written_set srv vblock) in
      List.length answered = List.length written && List.for_all2 P.equal answered written)

(* Two servers without page caches share one store, so each sees every
   write the other makes at once. Each round opens two versions on the
   current one, each through either server, runs random page operations
   on them through either server, and commits both, each through either
   server: the first wins at once, and the second is intercepted by it.
   Its pre-test — over maps its server reads, keeps, or learns — must
   answer what the tree walk answers. *)
let prop_pretest_agrees_with_walk =
  QCheck2.Test.make ~name:"map conflict pre-test = tree-walk verdict" ~count:200
    ~print:(fun (seed, rounds) -> Printf.sprintf "seed=%d rounds=%d" seed rounds)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 4))
    (fun (seed, rounds) ->
      let store = Store.memory () in
      let ports = Ports.create () in
      let servers = Array.init 2 (fun _ -> Server.create ~page_cache:false ~seed:7 ~ports store) in
      let rng = Xrng.create seed in
      let pick () = servers.(Xrng.int rng 2) in
      let f = Helpers.file_with_pages servers.(0) 3 in
      let round () =
        let first = ok (Server.create_version (pick ()) f) in
        let second = ok (Server.create_version (pick ()) f) in
        for _ = 1 to Xrng.int rng 24 do
          random_op rng (pick ()) (if Xrng.int rng 2 = 0 then first else second)
        done;
        ok (Server.commit (pick ()) first);
        let block v = ok (Server.version_block servers.(0) v) in
        let walk =
          ok
            (Serialise.test_only (Server.pagestore servers.(0)) ~candidate:(block second)
               ~committed:(block first))
        in
        let srv = pick () in
        let shortcircuits () =
          Afs_util.Stats.Counter.get (Server.counters srv) "commits.shortcircuit"
        in
        let before = shortcircuits () in
        let outcome = Server.commit srv second in
        match (walk, outcome) with
        | Serialise.Serialisable _, Ok () -> shortcircuits () = before
        | Serialise.Conflict _, Error Errors.Conflict -> shortcircuits () = before + 1
        | _ -> false
      in
      List.for_all (fun () -> round ()) (List.init rounds (fun _ -> ())))

(* {2 The copy path}

   A first access copies each page on its path and records the access on
   the copy in the same reference-table update that repoints the parent;
   a later access to a copy records only the flags it adds. *)

let flag_list =
  Alcotest.testable
    Fmt.(Dump.list (pair ~sep:(any " ") P.pp Flags.pp))
    same_flag_list

let test_copy_path_flags () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv f) in
  List.iter
    (fun parent ->
      ignore (ok (Server.insert_page srv v ~parent:(path parent) ~index:0 ~data:(bytes "d") ())))
    [ []; [ 0 ]; [ 0; 0 ] ];
  ok (Server.commit srv v);
  let v = ok (Server.create_version srv f) in
  let vblock = ok (Server.version_block srv v) in
  let copied () = Afs_util.Stats.Counter.get (Server.counters srv) "pages.copied" in
  let target = path [ 0; 0; 0 ] in
  let searched = Flags.make ~s:true ~copied:true () in
  let check what target_flags =
    let expected =
      [ (P.root, searched); (path [ 0 ], searched); (path [ 0; 0 ], searched); (target, target_flags) ]
    in
    Alcotest.check flag_list (what ^ ": tree") expected (tree_flags srv vblock);
    let ws = ok (Serialise.flag_map (Server.pagestore srv) ~version:vblock) in
    Alcotest.check flag_list (what ^ ": write set") expected (map_list ws)
  in
  let before = copied () in
  ignore (ok (Server.read_page srv v target));
  Alcotest.(check int) "one copy per level" 3 (copied () - before);
  check "read" (Flags.make ~r:true ~copied:true ());
  ok (Server.write_page srv v target (bytes "w"));
  Alcotest.(check int) "the write copies nothing" 3 (copied () - before);
  check "read, then write" (Flags.make ~r:true ~w:true ~copied:true ());
  Alcotest.(check (list string)) "the target alone is written"
    [ P.to_string target ]
    (List.map P.to_string (ok (Server.written_set srv vblock)))

let () =
  Alcotest.run "writeset"
    [
      ( "transforms",
        [
          Helpers.quick "record and written_paths" test_record_and_written;
          Helpers.quick "conflict conditions" test_conflict_conditions;
        ] );
      ("copy path", [ Helpers.quick "flags in tree and write set" test_copy_path_flags ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_map_equals_tree_flags;
          QCheck_alcotest.to_alcotest prop_written_set_is_tree_writes;
          QCheck_alcotest.to_alcotest prop_pretest_agrees_with_walk;
        ] );
    ]
