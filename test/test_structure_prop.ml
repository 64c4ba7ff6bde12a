(* Property: with structural operations in the mix, any accepted
   concurrent schedule must be equivalent to replaying exactly the
   committed transactions serially, in commit order.

   The conservative M-flag rules guarantee that a committed restructure
   conflicts with every concurrent access into the same reference table,
   so accepted schedules only combine operations on disjoint parents —
   which is what makes path-based serial replay a sound oracle. The
   property would catch both under-aborting (merged state diverges from
   serial replay) and tree corruption (replay walk fails). *)

open Afs_core
module P = Afs_util.Pagepath
module Xrng = Afs_util.Xrng

let ok = Helpers.ok
let bytes = Helpers.bytes

(* The base layout: root -> 3 children -> 2 grandchildren each. *)
let children = 3
let grandchildren = 2

type op =
  | Write_leaf of int * int * string
  | Write_child of int * string
  | Insert_under of int * string  (** Append a page under child i. *)
  | Remove_first_under of int  (** Remove grandchild 0 of child i. *)

let build_base srv =
  let f = ok (Server.create_file srv ~data:(bytes "root") ()) in
  let v = ok (Server.create_version srv f) in
  for i = 0 to children - 1 do
    let child =
      ok
        (Server.insert_page srv v ~parent:P.root ~index:i
           ~data:(bytes (Printf.sprintf "c%d" i)) ())
    in
    for j = 0 to grandchildren - 1 do
      ignore
        (ok
           (Server.insert_page srv v ~parent:child ~index:j
              ~data:(bytes (Printf.sprintf "g%d%d" i j)) ()))
    done
  done;
  ok (Server.commit srv v);
  f

let apply_op srv version = function
  | Write_leaf (i, j, s) -> Server.write_page srv version (P.of_list [ i; j ]) (bytes s)
  | Write_child (i, s) -> Server.write_page srv version (P.of_list [ i ]) (bytes s)
  | Insert_under (i, s) ->
      Result.map ignore
        (Server.insert_page srv version ~parent:(P.of_list [ i ]) ~index:grandchildren
           ~data:(bytes s) ())
  | Remove_first_under i -> Server.remove_page srv version ~parent:(P.of_list [ i ]) ~index:0

let apply_txn srv version ops =
  List.iter (fun op -> ok (apply_op srv version op)) ops

(* Observable state: the whole tree as (path, data) pairs. *)
let snapshot srv f =
  let cur = ok (Server.current_version srv f) in
  let rec walk path acc =
    let data = Helpers.str (ok (Server.read_page srv cur path)) in
    let info = ok (Server.page_info srv cur path) in
    let acc = (P.to_string path, data) :: acc in
    let rec each i acc =
      if i >= info.Server.nrefs then acc else each (i + 1) (walk (P.child path i) acc)
    in
    each 0 acc
  in
  List.sort compare (walk P.root [])

(* {2 Generator} *)

let gen_op rng =
  match Xrng.int rng 5 with
  | 0 | 1 ->
      Write_leaf
        (Xrng.int rng children, Xrng.int rng grandchildren,
         Printf.sprintf "L%d" (Xrng.int rng 1000))
  | 2 -> Write_child (Xrng.int rng children, Printf.sprintf "C%d" (Xrng.int rng 1000))
  | 3 -> Insert_under (Xrng.int rng children, Printf.sprintf "N%d" (Xrng.int rng 1000))
  | _ -> Remove_first_under (Xrng.int rng children)

(* At most one structure op per transaction, placed last, so every op's
   path is valid against the shared base snapshot. *)
let gen_txn rng =
  let data_ops =
    List.init (1 + Xrng.int rng 2) (fun _ ->
        match gen_op rng with
        | Write_leaf _ as op -> op
        | Write_child _ as op -> op
        | Insert_under (i, _) -> Write_child (i, "C-fallback")
        | Remove_first_under i -> Write_child (i, "C-fallback2"))
  in
  if Xrng.bool rng then
    let structure =
      match gen_op rng with
      | Insert_under _ as op -> op
      | Remove_first_under _ as op -> op
      | Write_leaf (i, _, _) -> Insert_under (i, "N-extra")
      | Write_child (i, _) -> Remove_first_under i
    in
    data_ops @ [ structure ]
  else data_ops

let run_concurrent seed ntxns =
  let _, srv = Helpers.fresh_server () in
  let f = build_base srv in
  let rng = Xrng.create seed in
  let txns = List.init ntxns (fun _ -> gen_txn rng) in
  (* All versions created up front: fully concurrent. *)
  let versions = List.map (fun _ -> ok (Server.create_version srv f)) txns in
  List.iter2 (fun ops v -> apply_txn srv v ops) txns versions;
  let committed =
    List.filter_map
      (fun (ops, v) ->
        match Server.commit srv v with
        | Ok () -> Some ops
        | Error Errors.Conflict -> None
        | Error e -> Alcotest.failf "commit: %s" (Errors.to_string e))
      (List.combine txns versions)
  in
  (committed, snapshot srv f)

let run_serial committed =
  let _, srv = Helpers.fresh_server () in
  let f = build_base srv in
  List.iter
    (fun ops ->
      let v = ok (Server.create_version srv f) in
      apply_txn srv v ops;
      ok (Server.commit srv v))
    committed;
  snapshot srv f

let prop_replay_equivalence =
  QCheck2.Test.make ~name:"accepted schedules equal serial replay" ~count:200
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d txns=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 2 6))
    (fun (seed, ntxns) ->
      let committed, concurrent_state = run_concurrent seed ntxns in
      let serial_state = run_serial committed in
      (* The first committer can never conflict, and the merged state must
         match the serial replay exactly. *)
      List.length committed >= 1 && concurrent_state = serial_state)

let prop_structure_vs_access_conflicts =
  (* Directed check of the conservative rule: a committed restructure of a
     table conflicts with any concurrent access through that table, in
     both commit orders. *)
  QCheck2.Test.make ~name:"restructure vs access always conflicts" ~count:100
    ~print:(fun (i, j, first) -> Printf.sprintf "child=%d leaf=%d structure_first=%b" i j first)
    QCheck2.Gen.(triple (int_range 0 (children - 1)) (int_range 0 (grandchildren - 1)) bool)
    (fun (i, j, structure_first) ->
      let _, srv = Helpers.fresh_server () in
      let f = build_base srv in
      let restructurer = ok (Server.create_version srv f) in
      let accessor = ok (Server.create_version srv f) in
      ok (apply_op srv restructurer (Remove_first_under i));
      let _ = ok (Server.read_page srv accessor (P.of_list [ i; j ])) in
      ok (apply_op srv accessor (Write_leaf (i, j, "x")));
      let first, second = if structure_first then (restructurer, accessor) else (accessor, restructurer) in
      ok (Server.commit srv first);
      match Server.commit srv second with
      | Error Errors.Conflict -> true
      | Ok () -> false
      | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e))

let prop_disjoint_structure_ops_merge =
  (* Inserts under different children always merge, either order. *)
  QCheck2.Test.make ~name:"disjoint restructures merge" ~count:100
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck2.Gen.(int_range 1 100000)
    (fun seed ->
      let rng = Xrng.create seed in
      let i = Xrng.int rng children in
      let k =
        let k = Xrng.int rng children in
        if k = i then (k + 1) mod children else k
      in
      let _, srv = Helpers.fresh_server () in
      let f = build_base srv in
      let va = ok (Server.create_version srv f) in
      let vb = ok (Server.create_version srv f) in
      ok (apply_op srv va (Insert_under (i, "A")));
      ok (apply_op srv vb (Insert_under (k, "B")));
      ok (Server.commit srv va);
      (match Server.commit srv vb with
      | Ok () -> ()
      | Error e -> Alcotest.failf "merge refused: %s" (Errors.to_string e));
      let cur = ok (Server.current_version srv f) in
      let ni = (ok (Server.page_info srv cur (P.of_list [ i ]))).Server.nrefs in
      let nk = (ok (Server.page_info srv cur (P.of_list [ k ]))).Server.nrefs in
      ni = grandchildren + 1 && nk = grandchildren + 1)

(* {2 Committed pages are values}

   A server updates a page in place only while its dirty cache entry owns
   it: a private page of an uncommitted version, not yet published. So a
   page of a committed version, and a page the publish tap was handed,
   never changes once seen. A random run of reads, writes, inserts and
   removes on up to three open versions, with commits, aborts,
   group-commit runs and collections, snapshots each such page when its
   version commits or the tap sees it; every page must still equal its
   snapshot at the end. The tap is a replica source's, as on a cluster
   shard. *)

let snapshot_of page = (page, Bytes.copy (Page.encode page))

let unchanged (page, image) =
  match Page.decode (Afs_util.Image.of_bytes image) with
  | Ok seen -> Page.equal page seen
  | Error _ -> false

(* Every page of the committed version at [vblock], as its server holds
   it (cache-neutral reads). *)
let rec tree_pages ps acc block =
  let page = ok (Pagestore.peek ps block) in
  Array.fold_left
    (fun acc (e : Page.ref_entry) -> tree_pages ps acc e.Page.block)
    (snapshot_of page :: acc) page.Page.refs

let random_access srv v rng =
  let i = Xrng.int rng children in
  let at = if Xrng.bool rng then P.of_list [ i ] else P.of_list [ i; Xrng.int rng 3 ] in
  let answer =
    match Xrng.int rng 4 with
    | 0 -> Result.map ignore (Server.read_page srv v at)
    | 1 -> Server.write_page srv v at (bytes (Printf.sprintf "w%d" (Xrng.int rng 100)))
    | 2 -> Result.map ignore (Server.insert_page srv v ~parent:at ~index:0 ~data:(bytes "n") ())
    | _ -> Server.remove_page srv v ~parent:at ~index:0
  in
  match answer with
  | Ok () | Error (Errors.Bad_index _ | Errors.Bad_path _) -> ()
  | Error e -> Alcotest.failf "access: %s" (Errors.to_string e)

let committed_pages_unchanged (seed, capacity) =
  let counters = Afs_util.Stats.Counter.create () in
  let source = Afs_replica.Replica.Source.create ~counters (Afs_sim.Engine.create ()) (Store.memory ()) in
  let tapped = ref [] in
  let publish_tap batch =
    tapped := List.rev_append (List.map (fun (_, page) -> snapshot_of page) batch) !tapped;
    Afs_replica.Replica.Source.tap source batch
  in
  let srv =
    Server.create ~cache_capacity:capacity ~publish_tap
      (Afs_replica.Replica.Source.capture_store source)
  in
  let ps = Server.pagestore srv in
  let f = build_base srv in
  let rng = Xrng.create seed in
  let seen = ref [] in
  let committed v = seen := tree_pages ps !seen (ok (Server.version_block srv v)) in
  let settle v = function
    | Ok () -> committed v
    | Error Errors.Conflict -> ()
    | Error e -> Alcotest.failf "commit: %s" (Errors.to_string e)
  in
  let pick open_ = List.nth open_ (Xrng.int rng (List.length open_)) in
  let rec step n open_ =
    if n > 0 then
      match (Xrng.int rng 9, open_) with
      | (0 | 1), _ when List.length open_ < 3 ->
          step (n - 1) (ok (Server.create_version srv f) :: open_)
      | (2 | 3 | 4), _ :: _ ->
          random_access srv (pick open_) rng;
          step (n - 1) open_
      | 5, _ :: _ ->
          let v = pick open_ in
          settle v (Server.commit srv v);
          step (n - 1) (List.filter (( != ) v) open_)
      | 6, _ :: _ ->
          let v = pick open_ in
          ok (Server.abort_version srv v);
          step (n - 1) (List.filter (( != ) v) open_)
      | 7, _ :: _ :: _ ->
          List.iter2 settle open_ (Server.commit_batch srv open_);
          step (n - 1) []
      | _ ->
          let retain_committed = if open_ = [] then 2 else 64 in
          ignore (ok (Gc.collect ~policy:{ Gc.retain_committed; reshare = true } srv));
          step (n - 1) open_
  in
  step 60 [];
  List.for_all unchanged !seen && List.for_all unchanged !tapped

let prop_committed_pages_unchanged =
  QCheck2.Test.make ~name:"committed pages never change in place" ~count:200
    ~print:(fun (seed, capacity) -> Printf.sprintf "seed=%d capacity=%d" seed capacity)
    QCheck2.Gen.(pair (int_range 1 100000) (oneofl [ 4; 4096 ]))
    committed_pages_unchanged

let () =
  Alcotest.run "structure-properties"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_replay_equivalence;
          QCheck_alcotest.to_alcotest prop_structure_vs_access_conflicts;
          QCheck_alcotest.to_alcotest prop_disjoint_structure_ops_merge;
          QCheck_alcotest.to_alcotest prop_committed_pages_unchanged;
        ] );
    ]
