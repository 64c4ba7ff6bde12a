open Afs_sim
open Afs_rpc
module Server = Afs_core.Server
module Store = Afs_core.Store
module Errors = Afs_core.Errors
module P = Afs_util.Pagepath
module Capability = Afs_util.Capability

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok

(* Run [body] as a simulated process and return its result. *)
let in_sim body =
  let engine = Engine.create () in
  let result = ref None in
  let _ = Proc.spawn engine (fun () -> result := Some (body engine)) in
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* {2 Generic RPC} *)

let test_call_round_trip () =
  in_sim (fun engine ->
      let server = Rpc.serve engine ~name:"echo" ~handler:(fun x -> x * 2) in
      match Rpc.call server 21 with
      | Ok v -> Alcotest.(check int) "doubled" 42 v
      | Error e -> Alcotest.failf "call failed: %s" (Fmt.str "%a" Rpc.pp_call_error e))

let test_latency_charged () =
  in_sim (fun engine ->
      let server = Rpc.serve ~latency_ms:5.0 ~proc_ms:1.0 engine ~name:"slow" ~handler:Fun.id in
      let t0 = Engine.now engine in
      (match Rpc.call server () with Ok () -> () | Error _ -> Alcotest.fail "failed");
      let dt = Engine.now engine -. t0 in
      (* Two network hops plus processing. *)
      Alcotest.(check bool) (Printf.sprintf "%.1fms = 11ms" dt) true (abs_float (dt -. 11.0) < 1e-6))

let test_requests_serialised () =
  in_sim (fun engine ->
      let active = ref 0 in
      let max_active = ref 0 in
      let server =
        Rpc.serve ~proc_ms:2.0 engine ~name:"srv"
          ~handler:(fun () ->
            incr active;
            if !active > !max_active then max_active := !active;
            decr active)
      in
      let spawn_joined, join_all = Proc.joinable engine in
      for _ = 1 to 5 do
        ignore (spawn_joined (fun () -> ignore (Rpc.call server ())))
      done;
      join_all ();
      Alcotest.(check int) "one at a time" 1 !max_active;
      Alcotest.(check int) "all served" 5 (Rpc.requests_served server))

let test_queueing_delays_later_requests () =
  in_sim (fun engine ->
      let server = Rpc.serve ~latency_ms:1.0 ~proc_ms:10.0 engine ~name:"srv" ~handler:Fun.id in
      let finish_times = ref [] in
      let spawn_joined, join_all = Proc.joinable engine in
      for _ = 1 to 3 do
        ignore
          (spawn_joined (fun () ->
               ignore (Rpc.call server ());
               finish_times := Engine.now engine :: !finish_times))
      done;
      join_all ();
      match List.sort compare !finish_times with
      | [ a; b; c ] ->
          Alcotest.(check bool) "spaced by service time" true (b -. a >= 9.9 && c -. b >= 9.9)
      | _ -> Alcotest.fail "expected three finishes")

let test_crash_fails_pending_and_future () =
  in_sim (fun engine ->
      let server = Rpc.serve ~proc_ms:50.0 engine ~name:"doomed" ~handler:Fun.id in
      let outcome1 = ref None in
      let _ =
        Proc.spawn engine (fun () -> outcome1 := Some (Rpc.call server ()))
      in
      (* Crash while the first request is still queued. *)
      Engine.at engine 1.0 (fun () -> Rpc.crash server);
      let outcome2 = ref None in
      let _ =
        Proc.spawn engine (fun () ->
            Proc.delay 5.0;
            outcome2 := Some (Rpc.call server ()))
      in
      Engine.run engine;
      (match !outcome1 with
      | Some (Error (Rpc.Server_crashed | Rpc.Timeout)) -> ()
      | Some (Ok _) -> Alcotest.fail "pending request answered by dead server"
      | _ -> Alcotest.fail "no outcome");
      match !outcome2 with
      | Some (Error Rpc.Timeout) -> ()
      | Some (Ok _) -> Alcotest.fail "dead server answered"
      | _ -> Alcotest.fail "no outcome 2")

let test_restart_resumes_service () =
  in_sim (fun engine ->
      let server = Rpc.serve engine ~name:"phoenix" ~handler:(fun x -> x + 1) in
      Rpc.crash server;
      Rpc.restart server;
      match Rpc.call server 1 with
      | Ok 2 -> ()
      | _ -> Alcotest.fail "restarted server must serve")

(* {2 Remote file service} *)

let remote_setup engine =
  let store = Store.memory () in
  let srv = Server.create store in
  let host = Remote.host engine ~name:"afs-1" srv in
  (store, srv, host)

let test_remote_end_to_end () =
  in_sim (fun engine ->
      let _, srv, host = remote_setup engine in
      let conn = Remote.connect [ host ] in
      let f = ok (Remote.create_file conn (bytes "hello")) in
      let v = ok (Batch_ops.open_version conn f) in
      ok
        (Batch_ops.on conn v [ Remote.Insert { parent = P.root; index = 0; data = bytes "page" } ]);
      let p = P.child P.root 0 in
      ok (Batch_ops.write conn v p (bytes "rewritten"));
      ok (Batch_ops.commit conn v);
      let cur = ok (Batch_ops.current_version conn f) in
      Helpers.check_bytes "read back over rpc" "rewritten" (ok (Batch_ops.read conn cur p));
      (* The server behind the wire agrees. *)
      let cur_local = ok (Server.current_version srv f) in
      Helpers.check_bytes "server state" "rewritten"
        (ok (Server.read_page srv cur_local (P.of_list [ 0 ]))))

let test_remote_conflict_propagates () =
  in_sim (fun engine ->
      let _, _, host = remote_setup engine in
      let conn = Remote.connect [ host ] in
      let f = ok (Remote.create_file conn (bytes "base")) in
      let va = ok (Batch_ops.open_version conn f) in
      let vb = ok (Batch_ops.open_version conn f) in
      let _ = ok (Batch_ops.read conn va P.root) in
      ok (Batch_ops.write conn va P.root (bytes "a"));
      ok (Batch_ops.write conn vb P.root (bytes "b"));
      ok (Batch_ops.commit conn vb);
      match Batch_ops.commit conn va with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "conflict not detected over rpc"
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e))

(* An [Open] batch opens its version server-side; the client never sees
   the capability, so a failure after the open must not leave the version
   (and its private pages) behind. *)
let test_batch_abandons_version_on_error () =
  in_sim (fun engine ->
      let _, srv, host = remote_setup engine in
      let conn = Remote.connect [ host ] in
      let f = ok (Remote.create_file conn (bytes "base")) in
      let no_uncommitted what =
        Alcotest.(check (list int)) what [] (ok (Server.uncommitted_versions srv f))
      in
      let swap ~expected writes =
        Remote.batch conn (Remote.Current f)
          [ Remote.Swap { file = f; expected = bytes expected; writes = (P.root, bytes "new") :: writes } ]
      in
      (match
         Remote.batch conn (Remote.Open f) [ Remote.Read P.root; Remote.Write (P.of_list [ 5 ], bytes "x") ]
       with
      | Error (Errors.Bad_index _) -> ()
      | Ok _ -> Alcotest.fail "write to a missing child succeeded"
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
      no_uncommitted "failed page write leaves no version";
      (match swap ~expected:"base" [ (P.of_list [ 5 ], bytes "x") ] with
      | Error (Errors.Bad_index _) -> ()
      | Ok _ -> Alcotest.fail "swapped write to a missing child succeeded"
      | Error e -> Alcotest.failf "wrong swap error: %s" (Errors.to_string e));
      no_uncommitted "failed swap write leaves no version";
      (match swap ~expected:"other" [] with
      | Ok (Remote.Guard_failed current) -> Helpers.check_bytes "current root" "base" current
      | Ok (Remote.Ran _ | Remote.Reopened _ | Remote.Marked _) -> Alcotest.fail "guard passed on a mismatching root"
      | Error e -> Alcotest.failf "mismatch failed: %s" (Errors.to_string e));
      no_uncommitted "failed guard leaves no version";
      (match Remote.batch conn (Remote.Open f) [ Remote.Read P.root; Remote.Read (P.of_list [ 3 ]) ] with
      | Error (Errors.Bad_path _ | Errors.Bad_index _) -> ()
      | Ok _ -> Alcotest.fail "read of a missing child succeeded"
      | Error e -> Alcotest.failf "wrong open error: %s" (Errors.to_string e));
      no_uncommitted "failed read leaves no version";
      (match swap ~expected:"base" [] with
      | Ok (Remote.Ran _) -> ()
      | Ok (Remote.Guard_failed _ | Remote.Reopened _ | Remote.Marked _) ->
          Alcotest.fail "guard failed on the expected root"
      | Error e -> Alcotest.failf "swap failed: %s" (Errors.to_string e));
      no_uncommitted "swap leaves no version";
      let cur = ok (Batch_ops.current_version conn f) in
      Helpers.check_bytes "swapped root" "new" (ok (Batch_ops.read conn cur P.root)))

(* {2 A batch is its calls}

   One batch against one server must leave exactly what the same calls
   leave when made one by one, directly on a twin server built the same
   way: the same answer, the same uncommitted versions and the same store
   image. A trailing [Redo] is the next attempt's opening, spelt out as
   its calls too. *)

type program = {
  target : int;  (** 0 [Open], 1 [Current], 2 [Version] of the held version. *)
  interloper : bool;  (** Commit a rival update first, so the held version conflicts. *)
  steps : Remote.step list;
  redo : (bool * P.t list) option;
      (** Append a [Redo] of the file's pages, after a [Commit] if [true]. *)
}

let batch_paths = [| P.root; P.of_list [ 0 ]; P.of_list [ 1 ]; P.of_list [ 5 ] |]
let batch_data = [| "base"; "held"; "a"; "b" |]

let nowhere =
  {
    Capability.port = Capability.port_of_int 0;
    obj = 0;
    rights = Capability.rights_all;
    check = 0;
  }

let gen_step =
  QCheck2.Gen.(
    let path = map (fun i -> batch_paths.(i)) (int_bound 3) in
    let data = map (fun i -> Bytes.of_string batch_data.(i)) (int_bound 3) in
    let index = int_bound 2 in
    frequency
      [
        (3, map (fun p -> Remote.Read p) path);
        (3, map2 (fun p d -> Remote.Write (p, d)) path data);
        (1, map3 (fun parent index data -> Remote.Insert { parent; index; data }) path index data);
        (1, map2 (fun parent index -> Remote.Remove { parent; index }) path index);
        (1, map (fun p -> Remote.Info p) path);
        (1, pure (Remote.Commit : Remote.step));
        (1, pure (Remote.Abort : Remote.step));
        (* On the program's own file: [program_steps] names it. *)
        ( 3,
          map2
            (fun expected (p, d) -> Remote.Swap { file = nowhere; expected; writes = [ (p, d) ] })
            data (pair path data) );
      ])

let gen_program =
  QCheck2.Gen.(
    let path = map (fun i -> batch_paths.(i)) (int_bound 3) in
    map
      (fun ((target, interloper), (steps, redo)) -> { target; interloper; steps; redo })
      (pair (pair (int_bound 2) bool)
         (pair (list_size (int_bound 6) gen_step)
            (opt (pair bool (list_size (int_bound 2) path))))))

(* The steps the program runs against file [f]. *)
let program_steps p f =
  let steps =
    List.map (function Remote.Swap s -> Remote.Swap { s with file = f } | step -> step) p.steps
  in
  match p.redo with
  | None -> steps
  | Some (commit, paths) ->
      let commit : Remote.step list = if commit then [ Remote.Commit ] else [] in
      steps @ commit @ [ Remote.Redo (f, paths) ]

let print_program p =
  let step = function
    | Remote.Read path -> "Read " ^ P.to_string path
    | Remote.Write (path, d) -> Printf.sprintf "Write (%s, %S)" (P.to_string path) (Bytes.to_string d)
    | Remote.Insert { parent; index; data } ->
        Printf.sprintf "Insert (%s, %d, %S)" (P.to_string parent) index (Bytes.to_string data)
    | Remote.Remove { parent; index } ->
        Printf.sprintf "Remove (%s, %d)" (P.to_string parent) index
    | Remote.Info path -> "Info " ^ P.to_string path
    | Remote.Commit -> "Commit"
    | Remote.Abort -> "Abort"
    | Remote.Redo (_, paths) -> "Redo [" ^ String.concat "; " (List.map P.to_string paths) ^ "]"
    | Remote.Swap { expected; writes; _ } ->
        Printf.sprintf "Swap (%S, [%s])" (Bytes.to_string expected)
          (String.concat "; "
             (List.map
                (fun (path, d) -> Printf.sprintf "%s, %S" (P.to_string path) (Bytes.to_string d))
                writes))
  in
  (* Any capability prints the same: the file is not part of the program. *)
  let f = ok (Server.create_file (Server.create (Store.memory ())) ()) in
  Printf.sprintf "target %d, interloper %b: [%s]" p.target p.interloper
    (String.concat "; " (List.map step (program_steps p f)))

(* A file "base" with pages /0 and /1, a held version that read /0 and
   wrote its root "held", and — with [interloper] — a committed rival
   write to /0 that dooms the held version's commit. *)
let twin_setup ~interloper =
  let store = Store.memory () in
  let srv = Server.create ~seed:11 store in
  let f = ok (Server.create_file srv ~data:(bytes "base") ()) in
  let v = ok (Server.create_version srv f) in
  List.iter
    (fun i -> ignore (ok (Server.insert_page srv v ~parent:P.root ~index:i ~data:(bytes "p") ())))
    [ 0; 1 ];
  ok (Server.commit srv v);
  let held = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv held (P.of_list [ 0 ])));
  ok (Server.write_page srv held P.root (bytes "held"));
  if interloper then begin
    let rival = ok (Server.create_version srv f) in
    ok (Server.write_page srv rival (P.of_list [ 0 ]) (bytes "rival"));
    ok (Server.commit srv rival)
  end;
  (store, srv, f, held)

(* The batch's documented meaning, spelt out as the server calls its
   steps stand for, made directly on the twin server. *)
let rec one_by_one srv target steps =
  let open Errors in
  let* version =
    match target with
    | Remote.Open f -> Server.create_version srv f
    | Remote.Current f -> Server.current_version srv f
    | Remote.Version v -> Ok v
  in
  let rec go reads infos = function
    | [] -> Ok (Remote.Ran { version; reads = List.rev reads; infos = List.rev infos })
    | Remote.Read path :: rest ->
        let* d = Server.read_page srv version path in
        go (d :: reads) infos rest
    | Remote.Write (path, d) :: rest ->
        let* () = Server.write_page srv version path d in
        go reads infos rest
    | Remote.Insert { parent; index; data } :: rest ->
        let* path = Server.insert_page srv version ~parent ~index ~data () in
        if P.equal path (P.child parent index) then go reads infos rest
        else Error (Store_failure "insert answered another path")
    | Remote.Remove { parent; index } :: rest ->
        let* () = Server.remove_page srv version ~parent ~index in
        go reads infos rest
    | Remote.Info path :: rest ->
        let* i = Server.page_info srv version path in
        go reads ((i.Server.nrefs, i.Server.dsize) :: infos) rest
    | [ Remote.Commit; Remote.Redo (f, paths) ] -> (
        match Server.commit srv version with
        | Error Conflict -> (
            match
              one_by_one srv (Remote.Open f)
                (Remote.Read P.root :: List.map (fun path -> Remote.Read path) paths)
            with
            | Ok (Remote.Ran { version; reads; _ }) -> Ok (Remote.Reopened { version; reads })
            | answer -> answer)
        | committed ->
            let* () = committed in
            go reads infos [])
    | Remote.Commit :: rest ->
        let* () = Server.commit srv version in
        go reads infos rest
    | Remote.Abort :: rest ->
        let* () = Server.abort_version srv version in
        go reads infos rest
    | Remote.Redo _ :: _ -> Error (Store_failure "rpc: Redo must follow the final Commit")
    | Remote.Swap { file; expected; writes } :: rest -> (
        let* other = Server.create_version srv file in
        let swapped =
          let* root = Server.read_page srv other P.root in
          if not (Bytes.equal root expected) then Ok (Some root)
          else
            let* () =
              List.fold_left
                (fun acc (path, d) ->
                  let* () = acc in
                  Server.write_page srv other path d)
                (Ok ()) writes
            in
            let* () = Server.commit srv other in
            Ok None
        in
        (match swapped with
        | Ok None -> ()
        | Ok (Some _) | Error _ -> ignore (Server.abort_version srv other : unit Errors.r));
        match swapped with
        | Ok None -> go reads infos rest
        | Ok (Some root) -> Ok (Remote.Guard_failed root)
        | Error e -> Error e)
  in
  let answer = go [] [] steps in
  (match (target, answer) with
  | Remote.Open _, (Error _ | Ok (Remote.Guard_failed _)) ->
      ignore (Server.abort_version srv version : unit Errors.r)
  | _ -> ());
  answer

let store_image (store : Store.t) =
  List.map (fun b -> (b, store.Store.read b)) (Helpers.ok_str (store.Store.list_blocks ()))

let batch_matches_calls p =
  in_sim (fun engine ->
      let run exec =
        let store, srv, f, held = twin_setup ~interloper:p.interloper in
        let conn = Remote.connect [ Remote.host engine ~name:"afs" srv ] in
        let target =
          match p.target with
          | 0 -> Remote.Open f
          | 1 -> Remote.Current f
          | _ -> Remote.Version held
        in
        let answer = exec srv conn target (program_steps p f) in
        (answer, ok (Server.uncommitted_versions srv f), store_image store)
      in
      run (fun _ conn -> Remote.batch conn) = run (fun srv _ -> one_by_one srv))

let prop_batch_matches_calls =
  QCheck2.Test.make ~name:"a batch is its calls" ~count:300
    ~print:print_program gen_program batch_matches_calls

let test_failover_to_second_host () =
  in_sim (fun engine ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect [ host1; host2 ] in
      let f = ok (Remote.create_file conn (bytes "replicated service")) in
      (* Primary dies; the client's next request must succeed via host 2
         without any client-visible recovery step. *)
      Remote.crash_host host1;
      Alcotest.(check bool) "host1 down" false (Remote.host_up host1);
      let v = ok (Batch_ops.open_version conn f) in
      ok (Batch_ops.write conn v P.root (bytes "served by standby"));
      ok (Batch_ops.commit conn v);
      let cur = ok (Batch_ops.current_version conn f) in
      Helpers.check_bytes "standby serves" "served by standby"
        (ok (Batch_ops.read conn cur P.root)))

let test_crash_loses_uncommitted_but_not_committed () =
  in_sim (fun engine ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect [ host1; host2 ] in
      let f = ok (Remote.create_file conn (bytes "committed state")) in
      let v = ok (Batch_ops.open_version conn f) in
      ok (Batch_ops.write conn v P.root (bytes "in flight"));
      Remote.crash_host host1;
      (* The client redoes the whole update on the standby — the paper's
         contract — and the committed state was never at risk. *)
      (match Batch_ops.read conn v P.root with
      | Error _ -> () (* Uncommitted version died with the server. *)
      | Ok data ->
          (* Or, if flushed before the crash, it is still consistent. *)
          Helpers.check_bytes "flushed copy consistent" "in flight" data);
      let v2 = ok (Batch_ops.open_version conn f) in
      ok (Batch_ops.write conn v2 P.root (bytes "redone"));
      ok (Batch_ops.commit conn v2);
      let cur = ok (Batch_ops.current_version conn f) in
      Helpers.check_bytes "redo landed" "redone" (ok (Batch_ops.read conn cur P.root)))

let test_balanced_conn_spreads_and_stays_correct () =
  in_sim (fun engine ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect ~balance:true [ host1; host2 ] in
      let f = ok (Remote.create_file conn (bytes "0")) in
      (* A chain of read-modify-write transactions: correctness requires
         every version's operations to reach its own managing server (the
         write-back cache lives there), while create_version calls rotate. *)
      for _ = 1 to 20 do
        let v = ok (Batch_ops.open_version conn f) in
        let n = int_of_string (Helpers.str (ok (Batch_ops.read conn v P.root))) in
        ok (Batch_ops.write conn v P.root (bytes (string_of_int (n + 1))));
        ok (Batch_ops.commit conn v)
      done;
      let cur = ok (Batch_ops.current_version conn f) in
      Helpers.check_bytes "all increments through both servers" "20"
        (ok (Batch_ops.read conn cur P.root));
      (* Both servers actually served transactions. *)
      let served h = Afs_util.Stats.Counter.get (Server.counters (Remote.host_server h)) "versions.created" in
      Alcotest.(check bool) "host1 served" true (served host1 > 0);
      Alcotest.(check bool) "host2 served" true (served host2 > 0))

(* Regression for the Y1-allowlisted site in Remote.call (lint.allow):
   [conn.preferred] is written after the RPC yield, from a frame that read
   it before yielding — formally a yield-atomicity race. This test pins
   down why the site is safe: the hint is purely advisory. Two processes
   racing on one connection scribble it concurrently for the whole run,
   yet every request lands on a live host and every update commits,
   because each call re-walks the host ring from whatever the hint says —
   and a hint parked on a dead host only costs one failover hop. *)
let test_preferred_hint_is_advisory () =
  in_sim (fun engine ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect [ host1; host2 ] in
      let fa = ok (Remote.create_file conn (bytes "0")) in
      let fb = ok (Remote.create_file conn (bytes "0")) in
      let rmw file =
        let v = ok (Batch_ops.open_version conn file) in
        let n = int_of_string (Helpers.str (ok (Batch_ops.read conn v P.root))) in
        ok (Batch_ops.write conn v P.root (bytes (string_of_int (n + 1))));
        ok (Batch_ops.commit conn v)
      in
      let done1 = ref false and done2 = ref false in
      let _ =
        Proc.spawn engine (fun () ->
            for _ = 1 to 10 do rmw fa done;
            done1 := true)
      in
      let _ =
        Proc.spawn engine (fun () ->
            for _ = 1 to 10 do rmw fb done;
            done2 := true)
      in
      while not (!done1 && !done2) do
        Proc.delay 1.0
      done;
      let read_counter f =
        let cur = ok (Batch_ops.current_version conn f) in
        Helpers.str (ok (Batch_ops.read conn cur P.root))
      in
      Alcotest.(check string) "all of A's updates landed" "10" (read_counter fa);
      Alcotest.(check string) "all of B's updates landed" "10" (read_counter fb);
      (* Whatever the races left in the hint, a crash of either host only
         costs a failover hop — a stale hint can never fail a request. *)
      Remote.crash_host host1;
      Alcotest.(check string) "served with host1 down" "10" (read_counter fa);
      Remote.restart_host host1;
      Remote.crash_host host2;
      Alcotest.(check string) "served with host2 down" "10" (read_counter fb))

(* {2 The 32K message cap} *)

(* A file with an empty root and one page of [n] bytes per entry. *)
let file_of_sizes srv sizes =
  let f = ok (Server.create_file srv ~data:Bytes.empty ()) in
  let v = ok (Server.create_version srv f) in
  List.iteri
    (fun i n ->
      ignore (ok (Server.insert_page srv v ~parent:P.root ~index:i ~data:(Bytes.make n 'x') ())))
    sizes;
  ok (Server.commit srv v);
  f

(* The messages one committed [Txn.commit_part] of [ops] sends to a file
   of [sizes], as the host counts them, and the file's pages after. *)
let attempt ~sizes ops =
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = file_of_sizes srv sizes in
      let host = Remote.host engine ~name:"afs" srv in
      let conn = Remote.connect [ host ] in
      let tries = { Afs_txn.Txn.made = 1; allowed = 1 } in
      ok (Afs_txn.Txn.commit_part ~tries conn f ops);
      let cur = ok (Server.current_version srv f) in
      ( Remote.requests_served host,
        List.mapi (fun i _ -> ok (Server.read_page srv cur (P.of_list [ i ]))) sizes ))

let write i n = Afs_txn.Txn.Write (P.of_list [ i ], Bytes.make n 'w')

(* Writes of exactly 32 768 bytes ride one [Version] batch after the
   [Open] batch; one byte more takes a second. A single request over the
   cap is refused before it runs. *)
let test_cap_splits_writes () =
  let at_cap, _ = attempt ~sizes:[ 1; 1 ] [ write 0 16_384; write 1 16_384 ] in
  Alcotest.(check int) "32 768 bytes: open + one batch" 2 at_cap;
  let over, pages = attempt ~sizes:[ 1; 1 ] [ write 0 16_384; write 1 16_385 ] in
  Alcotest.(check int) "32 769 bytes: open + two batches" 3 over;
  Alcotest.(check (list int)) "both writes committed" [ 16_384; 16_385 ]
    (List.map Bytes.length pages);
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = file_of_sizes srv [ 1; 1 ] in
      let v = ok (Server.create_version srv f) in
      let conn = Remote.connect [ Remote.host engine ~name:"afs" srv ] in
      (match
         Remote.batch conn (Remote.Version v)
           [ Remote.Write (P.of_list [ 0 ], Bytes.make 20_000 'a');
             Remote.Write (P.of_list [ 1 ], Bytes.make 12_769 'b') ]
       with
      | Error (Errors.Message_too_large { bytes = 32_769; limit = 32_768 }) -> ()
      | Ok _ -> Alcotest.fail "an over-cap request ran"
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
      Alcotest.(check int) "nothing written" 1
        (Bytes.length (ok (Server.read_page srv v (P.of_list [ 0 ])))))

(* Replies of exactly 32 768 bytes fit the [Open] batch; one byte more
   and the server refuses it, abandoning its version, and the attempt
   reads in more batches — still reading what the ops one by one would. *)
let test_cap_splits_reads () =
  let rmw = Afs_txn.Txn.Rmw (P.of_list [ 1 ], fun d -> Bytes.cat d (bytes "!")) in
  let read0 = Afs_txn.Txn.Read (P.of_list [ 0 ]) in
  let at_cap, _ = attempt ~sizes:[ 16_384; 16_384 ] [ read0; rmw ] in
  Alcotest.(check int) "32 768 bytes of replies: two messages" 2 at_cap;
  let over, pages = attempt ~sizes:[ 16_384; 16_385 ] [ read0; rmw ] in
  Alcotest.(check bool) (Printf.sprintf "32 769 bytes: %d messages > 2" over) true (over > 2);
  Alcotest.(check int) "the Rmw read the whole page" 16_386 (Bytes.length (List.nth pages 1));
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = file_of_sizes srv [ 16_384; 16_385 ] in
      let conn = Remote.connect [ Remote.host engine ~name:"afs" srv ] in
      (match
         Remote.batch conn (Remote.Open f)
           [ Remote.Read P.root; Remote.Read (P.of_list [ 0 ]); Remote.Read (P.of_list [ 1 ]) ]
       with
      | Error (Errors.Message_too_large { bytes = 32_769; limit = 32_768 }) -> ()
      | Ok _ -> Alcotest.fail "an over-cap reply was sent"
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
      Alcotest.(check (list int)) "refused open leaves no version" []
        (ok (Server.uncommitted_versions srv f)))

(* {2 A redo is one message}

   A host wrapper commits a rival write just before the first
   [Version] batch that asks for a redo, so that attempt loses
   validation. *)
let rival_before_first_redo srv f ~page ~data =
  let fired = ref false in
  fun base (req : Remote.request) ->
    (match req with
    | Remote.Batch { target = Remote.Version _; steps }
      when (not !fired) && List.exists (function Remote.Redo _ -> true | _ -> false) steps ->
        fired := true;
        let v = ok (Server.create_version srv f) in
        ok (Server.write_page srv v (P.of_list [ page ]) data);
        ok (Server.commit srv v)
    | _ -> ());
    base req

(* The conflicted commit answers with the redo's opening: the attempt
   after it costs one message, and its write extends the rival's. *)
let test_redo_is_one_message () =
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = file_of_sizes srv [ 1; 1 ] in
      let host =
        Remote.host ~wrap:(rival_before_first_redo srv f ~page:1 ~data:(bytes "rival")) engine
          ~name:"afs" srv
      in
      let tries = { Afs_txn.Txn.made = 1; allowed = 4 } in
      let rmw = Afs_txn.Txn.Rmw (P.of_list [ 1 ], fun d -> Bytes.cat d (bytes "!")) in
      ok (Afs_txn.Txn.commit_part ~tries (Remote.connect [ host ]) f [ rmw ]);
      Alcotest.(check int) "open, conflicted commit, redone commit" 3
        (Remote.requests_served host);
      Alcotest.(check int) "two attempts" 2 tries.Afs_txn.Txn.made;
      Alcotest.(check int) "one redo served" 1 (Remote.redos_served host);
      let cur = ok (Server.current_version srv f) in
      Helpers.check_bytes "computed from the reopened read" "rival!"
        (ok (Server.read_page srv cur (P.of_list [ 1 ])));
      Alcotest.(check (list int)) "nothing left open" [] (ok (Server.uncommitted_versions srv f)))

(* A redo whose reads would take the reply past the cap answers a plain
   [Conflict] and leaves no version open; the client's next attempt
   splits its reads, as a first attempt does. *)
let test_cap_refuses_redo () =
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = file_of_sizes srv [ 16_384; 16_385 ] in
      let host =
        Remote.host
          ~wrap:(rival_before_first_redo srv f ~page:1 ~data:(Bytes.make 16_385 'r'))
          engine ~name:"afs" srv
      in
      let conn = Remote.connect [ host ] in
      let tries = { Afs_txn.Txn.made = 1; allowed = 4 } in
      let ops =
        [ Afs_txn.Txn.Read (P.of_list [ 0 ]);
          Afs_txn.Txn.Rmw (P.of_list [ 1 ], fun d -> Bytes.cat d (bytes "!")) ]
      in
      (match Afs_txn.Txn.commit_part ~tries conn f ops with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "the rival did not conflict"
      | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
      Alcotest.(check int) "no redo counted" 1 tries.Afs_txn.Txn.made;
      Alcotest.(check int) "no redo served" 0 (Remote.redos_served host);
      Alcotest.(check (list int)) "no version left open" []
        (ok (Server.uncommitted_versions srv f));
      let before = Remote.requests_served host in
      tries.Afs_txn.Txn.made <- 2;
      ok (Afs_txn.Txn.commit_part ~tries conn f ops);
      let sent = Remote.requests_served host - before in
      Alcotest.(check bool) (Printf.sprintf "%d messages > 2" sent) true (sent > 2);
      let cur = ok (Server.current_version srv f) in
      Alcotest.(check int) "the Rmw read the rival's page" 16_386
        (Bytes.length (ok (Server.read_page srv cur (P.of_list [ 1 ])))))

(* {2 Group commit takes Version batches}

   With [group_commit:2], two [Version] batches ending in [Commit] that
   queue behind a busy server drain as one [Server.commit_batch] run. A
   member whose write step fails answers its own error and leaves the
   run. Either way the answers and the store image equal the two batches
   sent one at a time to an unbatched twin. *)
let group_commit_pair ~grouped ~second_path =
  in_sim (fun engine ->
      let store = Store.memory () in
      let srv = Server.create ~seed:11 store in
      let f = Helpers.file_with_pages srv 2 in
      let v1 = ok (Server.create_version srv f) and v2 = ok (Server.create_version srv f) in
      let group_commit = if grouped then 2 else 1 in
      let conn = Remote.connect [ Remote.host ~group_commit engine ~name:"afs" srv ] in
      let member v path data () =
        Remote.batch conn (Remote.Version v) [ Remote.Write (path, bytes data); Remote.Commit ]
      in
      let first = member v1 (P.of_list [ 0 ]) "one" and second = member v2 second_path "two" in
      let answers =
        if grouped then begin
          (* A request ahead of them keeps the server busy while both queue. *)
          let a1 = ref None and a2 = ref None in
          let spawn_joined, join_all = Proc.joinable engine in
          ignore (spawn_joined (fun () -> ignore (Batch_ops.current_version conn f)));
          ignore (spawn_joined (fun () -> a1 := Some (first ())));
          ignore (spawn_joined (fun () -> a2 := Some (second ())));
          join_all ();
          (Option.get !a1, Option.get !a2)
        end
        else
          let a1 = first () in
          (a1, second ())
      in
      let count name = Afs_util.Stats.Counter.get (Server.counters srv) name in
      (answers, (count "commits.batches", count "commits.batch_members"), store_image store))

let test_group_commit_takes_version_batches () =
  let check ~second_path ~members =
    let grouped, (batches, in_run), image = group_commit_pair ~grouped:true ~second_path in
    let alone, _, alone_image = group_commit_pair ~grouped:false ~second_path in
    Alcotest.(check int) "one commit run" 1 batches;
    Alcotest.(check int) "members in the run" members in_run;
    Alcotest.(check bool) "answers as one at a time" true (grouped = alone);
    Alcotest.(check bool) "store image as one at a time" true (image = alone_image);
    grouped
  in
  (match check ~second_path:(P.of_list [ 1 ]) ~members:2 with
  | Ok (Remote.Ran _), Ok (Remote.Ran _) -> ()
  | _ -> Alcotest.fail "both members should commit");
  match check ~second_path:(P.of_list [ 7 ]) ~members:1 with
  | Ok (Remote.Ran _), Error (Errors.Bad_index _) -> ()
  | _ -> Alcotest.fail "the failing member alone should fail"

let test_no_hosts_rejected () =
  Alcotest.check_raises "empty host list" (Invalid_argument "Remote.connect: no hosts")
    (fun () -> ignore (Remote.connect []))

(* {2 Held requests}

   Negative requests are held for 100 ms; while [released] is set, a
   recheck answers a held request with ten times itself. *)
let holding_echo engine =
  let released = ref false and offered = ref 0 in
  let holding =
    {
      Rpc.hold = (fun req _ -> if req < 0 then Some 100.0 else None);
      recheck =
        (fun () req _ ->
          incr offered;
          if !released then Some (req * 10) else None);
    }
  in
  let server =
    Rpc.serve ~latency_ms:1.0 ~proc_ms:0.5 ~holding engine ~name:"held" ~handler:Fun.id
  in
  (server, released, offered)

(* A held request leaves the server free: a later request is served at
   once. A recheck after a served request answers it with that reply;
   an unreleased one answers what it was held with when its budget runs
   out. *)
let test_held_requests () =
  in_sim (fun engine ->
      let server, released, _ = holding_echo engine in
      let spawn, join = Proc.joinable engine in
      let answers = ref [] in
      let call ~at req =
        ignore
          (spawn (fun () ->
               Proc.delay at;
               let answer = Rpc.call server req in
               answers := (req, answer, Engine.now engine) :: !answers)
            : Proc.handle)
      in
      call ~at:0.0 (-1);
      call ~at:5.0 7;
      ignore
        (spawn (fun () ->
             Proc.delay 20.0;
             released := true;
             ignore (Rpc.call server 8 : (int, Rpc.call_error) result);
             released := false)
          : Proc.handle);
      call ~at:40.0 (-2);
      join ();
      let answer req =
        match List.find_opt (fun (r, _, _) -> r = req) !answers with
        | Some (_, Ok v, at) -> (v, at)
        | Some (_, Error _, _) | None -> Alcotest.failf "request %d unanswered" req
      in
      Alcotest.(check (pair int (float 1e-9))) "served while one is held" (7, 7.5) (answer 7);
      Alcotest.(check (pair int (float 1e-9)))
        "answered with the releasing reply" (-10, 22.5) (answer (-1));
      Alcotest.(check (pair int (float 1e-9)))
        "answered as held once the budget ran out" (-2, 142.5) (answer (-2)))

(* A crash fails a held request as it fails a queued one, and a restart
   brings none back: later rechecks find nothing to answer. *)
let test_crash_fails_held () =
  in_sim (fun engine ->
      let server, released, offered = holding_echo engine in
      let spawn, join = Proc.joinable engine in
      let held = ref None in
      ignore (spawn (fun () -> held := Some (Rpc.call server (-1))) : Proc.handle);
      Engine.at engine 10.0 (fun () -> Rpc.crash server);
      Engine.at engine 20.0 (fun () -> Rpc.restart server);
      join ();
      (match !held with
      | Some (Error Rpc.Server_crashed) -> ()
      | Some (Ok v) -> Alcotest.failf "a held request survived the crash: %d" v
      | Some (Error Rpc.Timeout) | None -> Alcotest.fail "expected Server_crashed");
      released := true;
      offered := 0;
      (match Rpc.call server 5 with
      | Ok 5 -> ()
      | Ok _ | Error _ -> Alcotest.fail "the restarted server did not answer");
      Alcotest.(check int) "nothing held after the restart" 0 !offered)

(* {2 Queue order}

   A request keeps the server busy while the [arrivals] queue behind it,
   0.01 ms apart, in list order. Replies leave in service order, so the
   order they come back in is the order the server took them. *)
let service_order ?group_commit arrivals =
  in_sim (fun engine ->
      let srv = Server.create (Store.memory ()) in
      let f = Helpers.file_with_pages srv 2 in
      let conn = Remote.connect [ Remote.host ?group_commit engine ~name:"afs" srv ] in
      let replies = ref [] in
      let spawn, join = Proc.joinable engine in
      ignore (spawn (fun () -> ignore (Batch_ops.current_version conn f)) : Proc.handle);
      List.iteri
        (fun i (label, request) ->
          let send = request srv f in
          ignore
            (spawn (fun () ->
                 Proc.delay (0.01 *. float_of_int (i + 1));
                 (match send conn with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "%s failed: %s" label (Errors.to_string e));
                 replies := (Engine.now engine, i, label) :: !replies)
              : Proc.handle))
        arrivals;
      join ();
      List.map (fun (_, _, label) -> label) (List.sort compare !replies))

(* The request kinds the queue tells apart: each builds its request
   against a fresh server and its two-page file [f]. *)
let batch target steps conn = Result.map ignore (Remote.batch conn target steps)
let opening _ f = batch (Remote.Open f) [ Remote.Read P.root ]

let written srv f page =
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (P.of_list [ page ])));
  (v, Remote.Write (P.of_list [ page ], bytes "w"))

let redo_commit srv f =
  let v, write = written srv f 0 in
  batch (Remote.Version v) [ write; Remote.Commit; Remote.Redo (f, [ P.of_list [ 0 ] ]) ]

let plain_commit srv f =
  let v, write = written srv f 1 in
  batch (Remote.Version v) [ write; Remote.Commit ]

(* A cross-shard seal whose [Swap] decides on a record file. *)
let seal srv _ =
  let staged = Helpers.file_with_pages srv 0 and record = Helpers.file_with_pages srv 0 in
  let v = ok (Server.create_version srv staged) in
  batch (Remote.Version v)
    [ Remote.Write (P.root, bytes "marker"); Remote.Commit;
      Remote.Swap { file = record; expected = bytes "root"; writes = [ (P.root, bytes "done") ] } ]

let flip srv _ =
  let marked = Helpers.file_with_pages srv 0 in
  batch (Remote.Current marked)
    [ Remote.Swap { file = marked; expected = bytes "root"; writes = [ (P.root, bytes "flipped") ] } ]

let await _ f conn = Result.map ignore (Remote.await conn f ~until:[ bytes "root" ] ~budget_ms:50.0)
let create_file _ _ conn = Result.map ignore (Remote.create_file conn (bytes "new"))

(* A redo-carrying commit that queues behind an [Open] batch is served
   first; with a group-commit window the queue stays FIFO. *)
let test_redo_commit_first () =
  let arrivals = [ ("open", opening); ("redo commit", redo_commit) ] in
  Alcotest.(check (list string)) "commit first" [ "redo commit"; "open" ] (service_order arrivals);
  Alcotest.(check (list string)) "FIFO under a window" [ "open"; "redo commit" ]
    (service_order ~group_commit:3 arrivals)

(* Every other kind keeps its arrival order, behind any redo-carrying
   commit. Under a window of 3 the order is the FIFO drain's: the
   redo-carrying commit rides in the plain commit's batch. *)
let test_others_keep_arrival_order () =
  let others =
    [ ("open", opening); ("plain commit", plain_commit); ("seal", seal);
      ("flip", flip); ("await", await); ("create", create_file) ]
  in
  let with_redo = others @ [ ("redo commit", redo_commit) ] in
  Alcotest.(check (list string)) "arrival order" (List.map fst others) (service_order others);
  Alcotest.(check (list string)) "only the redo commit jumps"
    ("redo commit" :: List.map fst others) (service_order with_redo);
  Alcotest.(check (list string)) "FIFO drain under a window"
    [ "open"; "plain commit"; "redo commit"; "seal"; "flip"; "await"; "create" ]
    (service_order ~group_commit:3 with_redo)

(* A crash fails every queued request of both classes exactly once — the
   negative ones are picked first — and a restart brings none back: the
   handler runs only for the request in service and for the one sent
   after the restart. *)
let test_crash_fails_both_classes () =
  in_sim (fun engine ->
      let handled = ref [] in
      let server =
        Rpc.serve ~latency_ms:1.0 ~proc_ms:10.0 ~policy:(Rpc.First (fun req -> req < 0)) engine ~name:"srv"
          ~handler:(fun req ->
            handled := req :: !handled;
            req)
      in
      let spawn, join = Proc.joinable engine in
      let answers = ref [] in
      List.iteri
        (fun i req ->
          ignore
            (spawn (fun () ->
                 Proc.delay (0.1 *. float_of_int i);
                 let answer = Rpc.call server req in
                 answers := (req, answer) :: !answers)
              : Proc.handle))
        [ 1; 2; -3; 4; -5 ];
      Engine.at engine 5.0 (fun () -> Rpc.crash server);
      Engine.at engine 6.0 (fun () -> Rpc.restart server);
      ignore
        (spawn (fun () ->
             Proc.delay 7.0;
             let answer = Rpc.call server 6 in
             answers := (6, answer) :: !answers)
          : Proc.handle);
      join ();
      let answer req =
        match List.filter (fun (r, _) -> r = req) !answers with
        | [ (_, Ok v) ] -> string_of_int v
        | [ (_, Error e) ] -> Fmt.str "%a" Rpc.pp_call_error e
        | l -> Alcotest.failf "request %d answered %d times" req (List.length l)
      in
      Alcotest.(check (list string)) "answers"
        [ "1"; "server crashed"; "server crashed"; "server crashed"; "server crashed"; "6" ]
        (List.map answer [ 1; 2; -3; 4; -5; 6 ]);
      Alcotest.(check (list int)) "handler runs" [ 1; 6 ] (List.rev !handled);
      Alcotest.(check int) "served" 2 (Rpc.requests_served server))

(* A crash and a restart inside one service slot: the old slot's end
   still answers its request, but must not free the restarted server
   while request 2 is in service, so request 3 waits for request 2's
   slot to end at t = 4 + 10 + 1. *)
let test_restart_inside_a_slot () =
  in_sim (fun engine ->
      let handled = ref [] in
      let server =
        Rpc.serve ~latency_ms:1.0 ~proc_ms:10.0 engine ~name:"srv"
          ~handler:(fun req ->
            handled := (req, Engine.now engine) :: !handled;
            req)
      in
      let spawn, join = Proc.joinable engine in
      let answers = ref [] in
      let call ~at req =
        ignore
          (spawn (fun () ->
               Proc.delay at;
               let answer = Rpc.call server req in
               answers := (req, answer, Engine.now engine) :: !answers)
            : Proc.handle)
      in
      call ~at:0.0 1;
      Engine.at engine 2.0 (fun () -> Rpc.crash server);
      Engine.at engine 3.0 (fun () -> Rpc.restart server);
      call ~at:3.0 2;
      call ~at:5.0 3;
      join ();
      Alcotest.(check (list (pair int (float 1e-9)))) "one request in service at a time"
        [ (1, 1.0); (2, 4.0); (3, 15.0) ] (List.rev !handled);
      Alcotest.(check (list (pair int (float 1e-9)))) "answered at each slot's end"
        [ (1, 12.0); (2, 15.0); (3, 26.0) ]
        (List.sort compare
           (List.map
              (fun (req, answer, at) ->
                match answer with
                | Ok v when v = req -> (req, at)
                | Ok _ | Error _ -> Alcotest.failf "request %d not answered" req)
              !answers)))

(* {2 The request boundary's ownership rule}

   A read answers the page's own data, shared with the page cache and
   with every other reader, so a client that changed an answer would
   change the page under everyone. Guarded end to end: clients race
   1 KiB read-modify-writes on a few hot pages of two files through
   [Sut.afs_remote], with group commit (so redos are answered from a
   commit run) and the collector every 50 ms. A page holds its commit
   count and its writer's tag. Every answer a client is handed is kept
   with a copy taken as it arrives. At the end every answer still equals
   its copy, every answer but an initial page is the very bytes its
   writer handed over, and the last-writer oracle holds: a page counts
   exactly the commits on it, those commits read the counts 0, 1, ... in
   turn (each extended its predecessor's write), and the page holds the
   last one's write. *)

let encode_counted count tag =
  let head = Printf.sprintf "%d;%s;" count tag in
  let page = Bytes.make 1024 (Char.chr (Char.code 'a' + (count mod 26))) in
  Bytes.blit_string head 0 page 0 (String.length head);
  page

let decode_counted data =
  match String.split_on_char ';' (Bytes.to_string data) with
  | count :: tag :: _ -> (int_of_string count, tag)
  | _ -> Alcotest.fail "a page without its count"

let test_answers_shared_never_changed () =
  let module Workload = Afs_workload.Workload in
  let module Sut = Afs_workload.Sut in
  let module Xrng = Afs_util.Xrng in
  let engine = Engine.create () in
  let _, srv = Helpers.fresh_server () in
  let nfiles = 2 and pages = 3 and clients = 6 and txns = 40 in
  let shape = { Workload.small_updates with nfiles; pages_per_file = pages } in
  let files = ok (Workload.setup_pages srv shape ~initial:(encode_counted 0 "init")) in
  let host = Remote.host ~group_commit:4 engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let rng = Xrng.create 11 in
  let answers = ref [] and last_read = Hashtbl.create 256 and written = Hashtbl.create 256 in
  let committed = ref [] and running = ref clients and freed = ref 0 in
  for c = 1 to clients do
    let plan =
      List.init txns (fun i ->
          let file = Xrng.int rng nfiles and first = Xrng.int rng pages in
          let touched = if Xrng.bool rng then [ first; (first + 1) mod pages ] else [ first ] in
          (Printf.sprintf "%d.%d" c i, file, touched, float_of_int (Xrng.int rng 3)))
    in
    ignore
      (Proc.spawn engine (fun () ->
           List.iter
             (fun (tag, file, touched, think) ->
               Proc.delay think;
               let rmw page old =
                 answers := (page, old, Bytes.copy old) :: !answers;
                 let count, _ = decode_counted old in
                 Hashtbl.replace last_read (tag, page) count;
                 let data = encode_counted (count + 1) tag in
                 Hashtbl.replace written (tag, page) data;
                 data
               in
               let ops = List.map (fun page -> Sut.Rmw (page, rmw page)) touched in
               let r = sut.Sut.exec { Sut.file; ops; parts = [] } ~max_retries:1000 in
               if r.Sut.committed then committed := (tag, file, touched) :: !committed)
             plan;
           decr running))
  done;
  ignore
    (Proc.spawn engine (fun () ->
         while !running > 0 do
           Proc.delay 50.0;
           freed := !freed + (ok (Afs_core.Gc.collect srv)).Afs_core.Gc.blocks_freed
         done));
  Engine.run engine;
  Alcotest.(check int) "every transaction committed" (clients * txns) (List.length !committed);
  Alcotest.(check bool) "commits were redone" true (Remote.redos_served host > 0);
  Alcotest.(check bool) "commits were batched" true
    (Afs_util.Stats.Counter.get (Server.counters srv) "commits.batches" > 0);
  Alcotest.(check bool) "the collector freed blocks" true (!freed > 0);
  List.iter
    (fun (page, answer, copy) ->
      if not (Bytes.equal answer copy) then Alcotest.fail "an answered read changed";
      match decode_counted answer with
      | 0, _ -> ()
      | _, tag -> (
          match Hashtbl.find_opt written (tag, page) with
          | Some data when data == answer -> ()
          | Some _ | None ->
              Alcotest.failf "a read of %s's page %d is not the bytes it wrote" tag page))
    !answers;
  for file = 0 to nfiles - 1 do
    for page = 0 to pages - 1 do
      let writers =
        List.filter_map
          (fun (tag, f, touched) -> if f = file && List.mem page touched then Some tag else None)
          !committed
      in
      let by_read =
        List.sort compare (List.map (fun tag -> (Hashtbl.find last_read (tag, page), tag)) writers)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "file %d page %d: each commit read its predecessor's count" file page)
        (List.init (List.length writers) Fun.id) (List.map fst by_read);
      let last = match List.rev by_read with (_, tag) :: _ -> tag | [] -> "init" in
      Alcotest.(check (pair int string))
        (Printf.sprintf "file %d page %d holds the last writer's page" file page)
        (List.length writers, last)
        (decode_counted (sut.Sut.read_page file page))
    done
  done

(* A [Swap] step, the flip and resolve of a cross-shard marker, costs
   its server calls and its answer: it matches rather than binds, so no
   closure joins them. The host's own handler runs it here, outside the
   simulation, against the same calls made directly, the batch's own
   [current_version] among them. A guard that fails
   answers the root; one that holds writes and commits. Their answers
   take 12 and 10 words. Each figure is a pure function of the code,
   measured once warm. *)
let test_swap_allocates_its_answer () =
  let handler = ref None in
  let srv = Server.create (Store.memory ()) in
  let _host =
    Remote.host (Engine.create ()) ~name:"afs" srv ~wrap:(fun base ->
        handler := Some base;
        base)
  in
  let handle = Option.get !handler in
  let f = ok (Server.create_file srv ~data:(bytes "root") ()) in
  let root = P.root and data = bytes "root" in
  let direct ~write () =
    ignore (Sys.opaque_identity (ok (Server.current_version srv f)));
    let v = ok (Server.create_version srv f) in
    ignore (Sys.opaque_identity (ok (Server.read_page srv v root)));
    if write then begin
      ok (Server.write_page srv v root data);
      ok (Server.commit srv v)
    end
    else ok (Server.abort_version srv v)
  in
  let swap ~expected =
    let request =
      Remote.Batch
        { target = Remote.Current f;
          steps = [ Remote.Swap { file = f; expected; writes = [ (root, data) ] } ] }
    in
    fun () -> ignore (Sys.opaque_identity (handle request))
  in
  let words f =
    f ();
    Helpers.minor_words_of f
  in
  let guard = words (swap ~expected:(bytes "other")) -. words (direct ~write:false) in
  let commit = words (swap ~expected:data) -. words (direct ~write:true) in
  Alcotest.(check string) "the swaps committed" "root"
    (Helpers.str (ok (Server.current_root_data srv f)));
  if guard > 16. || commit > 16. then
    Alcotest.failf "a Swap allocates %.0f words over its server calls when its guard fails, %.0f \
                    when it commits (want at most 16: the answers, 12 and 10)"
      guard commit

let () =
  Alcotest.run "rpc"
    [
      ( "transport",
        [
          quick "round trip" test_call_round_trip;
          quick "latency charged" test_latency_charged;
          quick "requests serialised" test_requests_serialised;
          quick "queueing delays" test_queueing_delays_later_requests;
          quick "crash fails requests" test_crash_fails_pending_and_future;
          quick "restart resumes" test_restart_resumes_service;
          quick "held requests" test_held_requests;
          quick "crash fails held requests" test_crash_fails_held;
          quick "redo commit served first" test_redo_commit_first;
          quick "others keep arrival order" test_others_keep_arrival_order;
          quick "crash fails both classes" test_crash_fails_both_classes;
          quick "restart inside a slot" test_restart_inside_a_slot;
        ] );
      ( "remote file service",
        [
          quick "end to end" test_remote_end_to_end;
          quick "conflict propagates" test_remote_conflict_propagates;
          quick "batch abandons its version" test_batch_abandons_version_on_error;
          QCheck_alcotest.to_alcotest prop_batch_matches_calls;
          quick "failover" test_failover_to_second_host;
          quick "crash semantics" test_crash_loses_uncommitted_but_not_committed;
          quick "balanced connection" test_balanced_conn_spreads_and_stays_correct;
          quick "preferred hint is advisory" test_preferred_hint_is_advisory;
          quick "no hosts rejected" test_no_hosts_rejected;
          quick "cap splits writes" test_cap_splits_writes;
          quick "cap splits reads" test_cap_splits_reads;
          quick "a redo is one message" test_redo_is_one_message;
          quick "cap refuses a redo" test_cap_refuses_redo;
          quick "group commit takes batches" test_group_commit_takes_version_batches;
          quick "answers shared, never changed" test_answers_shared_never_changed;
          quick "swap allocates its answer" test_swap_allocates_its_answer;
        ] );
    ]
