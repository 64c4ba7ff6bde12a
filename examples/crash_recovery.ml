(* Crash-proofness, end to end (§3.1, §5.4.1, §6).

   Run with:  dune exec examples/crash_recovery.exe

   Two file-server processes share one stable-storage pair (two block
   servers, two disks). A client works through simulated RPC. We then
   kill things in escalating order — the primary file server mid-update,
   then one whole disk — and watch the client continue with nothing more
   than a redo of its unfinished update. At no point does any component
   run a rollback, clear a lock table, or replay an intentions list. *)

module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Media = Afs_disk.Media
module Stable = Afs_stable.Stable_pair
open Afs_core
module Remote = Afs_rpc.Remote
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Errors.to_string e)
let bytes = Bytes.of_string

(* Every call on a version is one batch over RPC: an [Open] batch of no
   steps opens a version, a [Current] one names the committed version,
   and a [Version] batch ([Remote.on_version]) runs steps on one. *)
let version conn target =
  match Remote.batch conn target [] with
  | Ok (Remote.Ran { version; _ }) -> Ok version
  | Ok _ -> Error (Errors.Store_failure "unexpected batch answer")
  | Error e -> Error e

let write conn v data = Result.map ignore (Remote.on_version conn v [ Remote.Write (P.root, data) ])
let commit conn v = Result.map ignore (Remote.on_version conn v [ Remote.Commit ])

let read conn v =
  match Remote.on_version conn v [ Remote.Read P.root ] with
  | Ok ([ data ], _) -> Ok data
  | Ok _ -> Error (Errors.Store_failure "unexpected batch answer")
  | Error e -> Error e

let () =
  let engine = Engine.create () in
  let pair = Stable.create ~media:Media.magnetic ~blocks:4096 ~block_size:32768 () in
  let store = Store.of_stable_pair pair in
  let ports = Ports.create () in
  let srv1 = Server.create ~seed:11 ~ports store in
  let srv2 = Server.create ~seed:11 ~ports store in
  let host1 =
    Remote.host engine ~name:"afs-1" ~disks:[ Stable.disk pair 0; Stable.disk pair 1 ] srv1
  in
  let host2 =
    Remote.host engine ~name:"afs-2" ~disks:[ Stable.disk pair 0; Stable.disk pair 1 ] srv2
  in
  let conn = Remote.connect [ host1; host2 ] in

  let body () =
    Printf.printf "t=%6.1fms  creating ledger file via server 1\n" (Engine.now engine);
    let f = ok (Remote.create_file conn (bytes "ledger v1")) in
    let v = ok (version conn (Remote.Open f)) in
    ok (write conn v (bytes "ledger v2"));
    ok (commit conn v);
    Printf.printf "t=%6.1fms  committed v2\n" (Engine.now engine);

    (* Start an update, then the server dies under it. *)
    let v = ok (version conn (Remote.Open f)) in
    ok (write conn v (bytes "ledger v3 (in flight)"));
    Printf.printf "t=%6.1fms  update in flight on server 1... crashing server 1\n"
      (Engine.now engine);
    Remote.crash_host host1;

    (* The paper's contract: the client simply redoes the update — against
       the other server, with no waiting for a restore. *)
    (match commit conn v with
    | Ok () -> Printf.printf "t=%6.1fms  (update survived: cache was flushed)\n" (Engine.now engine)
    | Error _ ->
        Printf.printf "t=%6.1fms  commit failed as expected; redoing on server 2\n"
          (Engine.now engine);
        let v = ok (version conn (Remote.Open f)) in
        ok (write conn v (bytes "ledger v3 (redone)"));
        ok (commit conn v));
    let cur = ok (version conn (Remote.Current f)) in
    Printf.printf "t=%6.1fms  current: %S\n" (Engine.now engine)
      (Bytes.to_string (ok (read conn cur)));

    (* Now lose an entire disk. Stable storage serves from the companion
       and repairs on restart. *)
    Printf.printf "t=%6.1fms  head crash on disk 0 (all contents lost)\n" (Engine.now engine);
    Stable.wipe_and_crash pair 0;
    Pagestore.drop_volatile (Server.pagestore srv2);
    let cur = ok (version conn (Remote.Current f)) in
    Printf.printf "t=%6.1fms  still serving: %S (from the companion disk)\n" (Engine.now engine)
      (Bytes.to_string (ok (read conn cur)));

    (match Stable.restart pair 0 with
    | Ok repaired ->
        Printf.printf "t=%6.1fms  disk 0 restored by compare-notes: %d blocks repaired\n"
          (Engine.now engine) repaired
    | Error e -> failwith (Fmt.str "%a" Stable.pp_error e));

    (* Updates continued working the whole time. *)
    let v = ok (version conn (Remote.Open f)) in
    ok (write conn v (bytes "ledger v4 (after disk loss)"));
    ok (commit conn v);
    let cur = ok (version conn (Remote.Current f)) in
    Printf.printf "t=%6.1fms  final: %S\n" (Engine.now engine)
      (Bytes.to_string (ok (read conn cur)));
    match Stable.verify_companion_invariant pair with
    | Ok () -> Printf.printf "\nstable-storage invariant holds; recovery work performed: 0 rollbacks,\n0 locks cleared, 0 intentions lists replayed.\n"
    | Error msg -> Printf.printf "INVARIANT VIOLATION: %s\n" msg
  in
  let _ = Proc.spawn ~name:"client" engine body in
  Engine.run engine
