(* Crash-injection properties: "the file system is always in a consistent
   state" (§3.1), whatever the crash point.

   A random workload runs with a crash injected at a random operation
   boundary (losing all volatile state); a fresh server is then built from
   the raw blocks and must see exactly the committed prefix — never a torn
   update, never a lost commit. A second property subjects the stable-
   storage pair to random crash/wipe/restart sequences interleaved with
   writes, batches and frees, and checks the surviving copy is always the
   newest and a freed block stays freed. *)

open Afs_core
module P = Afs_util.Pagepath
module Xrng = Afs_util.Xrng
module Stable = Afs_stable.Stable_pair

let ok = Helpers.ok
let ok_str = Helpers.ok_str
let bytes = Helpers.bytes

(* {2 File-service crash points} *)

let npages = 4

let run_with_crash ?capacity ~seed ~crash_after_updates ~flush_before_crash () =
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ?cache_capacity:capacity store in
  let f = Helpers.file_with_pages srv npages in
  let rng = Xrng.create seed in
  (* The model tracks only committed state. *)
  let model = Array.init npages (fun i -> Printf.sprintf "p%d" i) in
  let updates = crash_after_updates + 3 in
  (try
     for u = 1 to updates do
       if u > crash_after_updates then raise Exit;
       let v = ok (Server.create_version srv f) in
       let p = Xrng.int rng npages in
       let value = Printf.sprintf "u%d" u in
       ok (Server.write_page srv v (P.of_list [ p ]) (bytes value));
       (* Half the updates commit; half are left in flight or aborted. *)
       match Xrng.int rng 4 with
       | 0 -> ok (Server.abort_version srv v)
       | 1 -> () (* left uncommitted: must vanish in the crash *)
       | _ ->
           ok (Server.commit srv v);
           model.(p) <- value
     done
   with Exit -> ());
  if flush_before_crash then ok (Pagestore.flush (Server.pagestore srv));
  Server.crash srv;
  (* Rebuild from raw blocks. *)
  let srv2 = Server.create ~seed:7 store in
  let recovered = ok (Server.recover_from_blocks srv2 (ok_str (store.Store.list_blocks ()))) in
  if recovered <> 1 then Alcotest.failf "expected to recover 1 file, got %d" recovered;
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      let state =
        Array.init npages (fun p ->
            Helpers.str (ok (Server.read_page srv2 cur (P.of_list [ p ]))))
      in
      (model, state)
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

(* Each property also runs at tiny page-cache capacities: eviction
   write-back must never change what a crash preserves. *)
let cache_configs = [ (None, "default cache"); (Some 2, "cap 2"); (Some 4, "cap 4"); (Some 8, "cap 8") ]

let prop_committed_prefix_survives (capacity, label) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "crash preserves exactly the committed prefix (%s)" label)
    ~count:(if capacity = None then 150 else 60)
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d crash_after=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 20))
    (fun (seed, crash_after_updates) ->
      let model, state =
        run_with_crash ?capacity ~seed ~crash_after_updates ~flush_before_crash:true ()
      in
      Array.for_all2 ( = ) model state)

(* Commits flush before the test-and-set, so even without an explicit
   flush the committed state must survive a crash. *)
let prop_commit_implies_durability (capacity, label) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "commit implies durability, no flush needed (%s)" label)
    ~count:(if capacity = None then 150 else 60)
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d crash_after=%d" seed n)
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 20))
    (fun (seed, crash_after_updates) ->
      let model, state =
        run_with_crash ?capacity ~seed ~crash_after_updates ~flush_before_crash:false ()
      in
      Array.for_all2 ( = ) model state)

(* {2 Stable-pair crash storms} *)

(* A batch of 1–4 distinct blocks via server [i]: acknowledged blocks
   from [live] and fresh ones [i] reserves tentatively. Half the time the companion
   reserves 1–3 blocks of its own before the batch and writes them after
   it, so a fresh block may collide: the batch's loser drops its
   reservations, and a rival that missed the collision would allocate
   an acknowledged block twice. [ack b v] records an acknowledged write,
   [allocated b v] an acknowledged first write, and [maybe b v] a failed
   batch's block, which may hold its old or new value. *)
let storm_batch rng pair i ~live ~step ~ack ~allocated ~maybe =
  let n = 1 + Xrng.int rng 4 in
  let value k = bytes (Printf.sprintf "s%d.%d" step k) in
  let rec pick k olds fresh =
    if k = n then (olds, fresh)
    else
      let spare = List.filter (fun b -> not (List.mem_assoc b olds)) live in
      if spare <> [] && Xrng.bool rng then
        pick (k + 1) ((List.nth spare (Xrng.int rng (List.length spare)), value k) :: olds) fresh
      else
        match Stable.tentative_allocate pair i with
        | Ok b -> pick (k + 1) olds ((b, value k) :: fresh)
        | Error _ -> pick (k + 1) olds fresh
  in
  let olds, fresh = pick 0 [] [] in
  let q = 1 - i in
  let rivals =
    if Stable.online pair q && Xrng.bool rng then
      List.filter_map
        (fun _ -> Result.to_option (Stable.tentative_allocate pair q))
        (List.init (1 + Xrng.int rng 3) Fun.id)
    else []
  in
  (match Stable.write_batch pair i (olds @ fresh) with
  | Ok () ->
      List.iter (fun (b, v) -> ack b v) olds;
      List.iter (fun (b, v) -> allocated b v) fresh
  | Error _ ->
      List.iter (fun (b, _) -> Stable.abort_tentative pair i b) fresh;
      List.iter (fun (b, v) -> maybe b v) olds);
  List.iteri
    (fun k c ->
      let v = value (n + k) in
      match Stable.write pair q c v with
      | Ok () -> allocated c v
      | Error _ -> Stable.abort_tentative pair q c)
    rivals

let prop_stable_survives_crash_storm =
  QCheck2.Test.make ~name:"stable pair survives random crash storms" ~count:100
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck2.Gen.(int_range 1 100000)
    (fun seed ->
      let rng = Xrng.create seed in
      let pair = Stable.create ~seed ~blocks:64 ~block_size:256 () in
      (* Model: the values each acknowledged block may hold — one after an
         acknowledged write, its old and new values after a failed batch. *)
      let model : (int, string list) Hashtbl.t = Hashtbl.create 16 in
      let blocks = ref [] in
      (* Blocks freed and not allocated again since. *)
      let freed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let acked b value = Hashtbl.replace model b [ Helpers.str value ] in
      (* A first write must land on a block no live write holds. *)
      let allocated b value =
        if Hashtbl.mem model b then Alcotest.failf "block %d allocated twice" b;
        blocks := b :: !blocks;
        Hashtbl.remove freed b;
        acked b value
      in
      let maybe b value =
        let old = Option.value ~default:[] (Hashtbl.find_opt model b) in
        Hashtbl.replace model b (Helpers.str value :: old)
      in
      let pick_online () = Stable.some_online pair in
      for step = 1 to 60 do
        match Xrng.int rng 12 with
        | 0 ->
            (* Crash one server (if both are up, to keep service alive). *)
            let up0 = Stable.online pair 0 and up1 = Stable.online pair 1 in
            if up0 && up1 then Stable.crash pair (Xrng.int rng 2)
        | 1 -> (
            (* Restart whichever is down. *)
            let target = if Stable.online pair 0 then 1 else 0 in
            if not (Stable.online pair target) then
              match Stable.restart pair target with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "restart: %s" (Fmt.str "%a" Stable.pp_error e))
        | 2 ->
            (* Head crash: wipe a disk (only when the other is serving). *)
            let up0 = Stable.online pair 0 and up1 = Stable.online pair 1 in
            if up0 && up1 then Stable.wipe_and_crash pair (Xrng.int rng 2)
        | 3 -> (
            (* Free an acknowledged block: it leaves the model. *)
            match (pick_online (), !blocks) with
            | Some i, _ :: _ -> (
                let b = List.nth !blocks (Xrng.int rng (List.length !blocks)) in
                match Stable.free pair i b with
                | Ok () ->
                    blocks := List.filter (( <> ) b) !blocks;
                    Hashtbl.remove model b;
                    Hashtbl.replace freed b ()
                | Error _ -> ())
            | _ -> ())
        | 4 | 5 -> (
            match pick_online () with
            | None -> ()
            | Some i -> storm_batch rng pair i ~live:!blocks ~step ~ack:acked ~allocated ~maybe)
        | _ -> (
            (* A write (new block or update) via any online server. *)
            match pick_online () with
            | None -> ()
            | Some i -> (
                let value = bytes (Printf.sprintf "s%d" step) in
                if !blocks <> [] && Xrng.bool rng then begin
                  let b = List.nth !blocks (Xrng.int rng (List.length !blocks)) in
                  match Stable.write pair i b value with
                  | Ok () -> acked b value
                  | Error _ -> ()
                end
                else
                  match Stable.allocate_write pair i value with
                  | Ok b -> allocated b value
                  | Error _ -> ()))
      done;
      (* Bring everything back and verify every acknowledged write. *)
      (if not (Stable.online pair 0) then ignore (Stable.restart pair 0));
      (if not (Stable.online pair 1) then ignore (Stable.restart pair 1));
      (match Stable.verify_companion_invariant pair with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* A freed block stays freed through any restart, via either server. *)
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match Stable.read pair i b with
              | Error (Stable.Not_allocated _) -> ()
              | Ok data -> Alcotest.failf "freed block %d reads %S via %d" b (Helpers.str (Helpers.bytes_of data)) i
              | Error e -> Alcotest.failf "freed block %d via %d: %a" b i Stable.pp_error e)
            [ 0; 1 ])
        (Afs_util.Det.sorted_int_keys freed);
      Hashtbl.fold
        (fun b allowed acc ->
          acc
          &&
          match Stable.read pair 0 b with
          | Ok data -> List.mem (Helpers.str (Helpers.bytes_of data)) allowed
          | Error _ -> false)
        model true)

let () =
  Alcotest.run "crash-properties"
    [
      ( "file service",
        List.concat_map
          (fun config ->
            [
              QCheck_alcotest.to_alcotest (prop_committed_prefix_survives config);
              QCheck_alcotest.to_alcotest (prop_commit_implies_durability config);
            ])
          cache_configs );
      ( "stable storage",
        [ QCheck_alcotest.to_alcotest prop_stable_survives_crash_storm ] );
    ]
