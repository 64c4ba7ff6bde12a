module Pagepath = Afs_util.Pagepath
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Twopl = Afs_baseline.Twopl
module Tsorder = Afs_baseline.Tsorder
module Proc = Afs_sim.Proc

type op = Read of int | Write of int * bytes | Rmw of int * (bytes -> bytes)

type txn_spec = {
  file : int;
  ops : op list;
  parts : (int * op list) list;
      (* Non-empty makes this a multi-file transaction: one (file, ops)
         participant per entry, honoured only by the cross-shard
         backends; [file]/[ops] are ignored then. *)
}

type exec_result = {
  committed : bool;
  attempts : int;
  local_aborts : int;
  cross_aborts : int;
}

(* Single-file backends: every failed execution is a local abort. *)
let finished ~committed attempts =
  {
    committed;
    attempts;
    local_aborts = (attempts - if committed then 1 else 0);
    cross_aborts = 0;
  }

type t = {
  name : string;
  exec : txn_spec -> max_retries:int -> exec_result;
  stats : unit -> (string * int) list;
  read_page : int -> int -> bytes;
}

exception Fatal of { where : string; error : Errors.t }

let () =
  Printexc.register_printer (function
    | Fatal { where; error } ->
        Some (Printf.sprintf "Sut.Fatal(%s: %s)" where (Errors.to_string error))
    | _ -> None)

let fatal_error where error = raise (Fatal { where; error })

let fatal where = function Ok v -> v | Error e -> fatal_error where e

let page_path i = Pagepath.of_list [ i ]

let single_part_only where spec =
  if spec.parts <> [] then
    fatal_error where (Errors.Store_failure "multi-part transaction on a single-file backend")

(* Checker-side reads go straight to the owning server, chasing any
   tombstones the router has not learned about. Shared by every
   cluster-backed SUT. In-doubt files are read as their pre-transaction
   state — harnesses sweep (Afs_txn.Txn.sweep) before auditing. *)
let cluster_read_page cluster files file page =
  let rec locate cap hops =
    match Afs_cluster.Cluster.shard_of_cap cluster cap with
    | Error e -> fatal_error "cluster locate" e
    | Ok (cap, shard) -> (
        let server = Afs_cluster.Shard.server shard in
        match Afs_cluster.Shard.moved_target server cap with
        | Some target when hops < 16 -> locate target (hops + 1)
        | Some _ | None -> (server, cap))
  in
  let server, cap = locate files.(file) 0 in
  let vcap = fatal "current_version" (Server.current_version server cap) in
  fatal "read_page" (Server.read_page server vcap (page_path page))

let cluster_stats cluster () =
  Afs_util.Stats.Counter.to_list (Afs_cluster.Cluster.counters cluster)
  @ List.concat_map
      (fun s ->
        let prefix = Afs_cluster.Shard.name s ^ "." in
        List.map
          (fun (k, v) -> (prefix ^ k, v))
          (Afs_util.Stats.Counter.to_list (Server.counters (Afs_cluster.Shard.server s))))
      (Afs_cluster.Cluster.shards cluster)

(* {2 The Amoeba file service: one optimistic exec loop}

   The paper's client procedure, once: open a version, run the page
   operations, commit, and redo on conflict — {!Afs_txn.Txn.commit_part}.
   The first attempt is two messages: an [Open] batch that reads the
   root and every page the ops read, then a [Version] batch with the
   computed writes and [Commit]. A commit that loses validation answers
   with the redo's opening, so each redo is one more [Version] batch.
   Backends differ only in how a file is routed; from the connection on,
   every attempt sends the same {!Remote} batches. A bare server is
   therefore literally the one-shard case of a cluster. *)

let back_off_ms = 5.0

let to_txn_ops ops =
  List.map
    (function
      | Read i -> Afs_txn.Txn.Read (page_path i)
      | Write (i, data) -> Afs_txn.Txn.Write (page_path i, data)
      | Rmw (i, f) -> Afs_txn.Txn.Rmw (page_path i, f))
    ops

let commit_part conn tries file ops =
  Afs_txn.Txn.commit_part ~round_trip:ignore ~tries conn file ops

(* The retry policy: a conflict redoes at once — inside [commit_part],
   which counts each redo in [tries], or here when the host could not
   reopen; a lock hint or a transport outage (a crashed host, a cluster
   member awaiting failover) waits [back_off_ms] first, wherever it
   arises. A commit that failed in transport never reached a live server
   (a served request's reply still delivers across a crash), so nothing
   committed and a redo is safe. Anything else is a protocol violation. *)
let occ_exec ~where ~attempt_once ~files spec ~max_retries =
  single_part_only where spec;
  let file = files.(spec.file) and ops = to_txn_ops spec.ops in
  let tries = { Afs_txn.Txn.made = 1; allowed = max_retries } in
  let rec attempt () =
    match attempt_once tries file ops with
    | Ok () -> finished ~committed:true tries.made
    | Error (Errors.Conflict | Errors.Locked_out _ | Errors.Store_failure _)
      when tries.made >= max_retries ->
        finished ~committed:false tries.made
    | Error Errors.Conflict ->
        tries.made <- tries.made + 1;
        attempt ()
    | Error (Errors.Locked_out _ | Errors.Store_failure _) ->
        Proc.delay back_off_ms;
        tries.made <- tries.made + 1;
        attempt ()
    | Error e -> fatal_error (where ^ " attempt") e
  in
  attempt ()

let afs_remote ?(name = "afs-occ-rpc") conn ~fallback ~files =
  let read_page file page =
    let cap = fatal "current_version" (Server.current_version fallback files.(file)) in
    fatal "read_page" (Server.read_page fallback cap (page_path page))
  in
  {
    name;
    exec = occ_exec ~where:"afs_remote" ~attempt_once:(commit_part conn) ~files;
    stats = (fun () -> Afs_util.Stats.Counter.to_list (Server.counters fallback));
    read_page;
  }

(* Routing is a pure local port lookup (no simulated time); [Moved]
   answers are chased by the cluster client's one forwarding loop. A
   committed update is credited to the shard that took it, for the
   rebalancer. *)
let afs_cluster client ~files =
  let module CC = Afs_cluster.Cluster_client in
  let cluster = CC.cluster client in
  let attempt_once tries file ops =
    CC.routed client file (fun conn ~shard file ->
        let open Errors in
        let* () = commit_part conn tries file ops in
        CC.note_commit client ~shard file;
        Ok ())
  in
  {
    name = "afs-occ-cluster";
    exec = occ_exec ~where:"afs_cluster" ~attempt_once ~files;
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }

(* {2 Remote execution of baseline operations}

   Each backend operation is one request to a serialised RPC endpoint
   (same latency and CPU cost as the AFS host), so baseline transactions
   interleave between requests exactly like AFS transactions do. The
   request carries a thunk; the reply timing carries the cost. *)

type op_call = unit -> unit

let make_op_rpc engine name : (op_call, unit) Afs_rpc.Rpc.t =
  Afs_rpc.Rpc.serve ~latency_ms:2.0 ~proc_ms:0.2 engine ~name ~handler:(fun f -> f ())

let remote_runner rpc f =
  let result = ref None in
  (match Afs_rpc.Rpc.call rpc (fun () -> result := Some (f ())) with
  | Ok () -> ()
  | Error _ -> fatal_error "baseline op" (Errors.Store_failure "op server crashed"));
  match !result with
  | Some v -> v
  | None -> fatal_error "baseline op" (Errors.Store_failure "reply lost")

(* {2 XDFS-style two-phase locking} *)

let max_lock_waits = 40

(* A competent locking client acquires locks in a canonical order so that
   transactions over the same pages cannot deadlock; the generator's pages
   are distinct, so sorting by page is behaviour-preserving. *)
let sort_ops ops =
  let page = function Read p -> p | Write (p, _) -> p | Rmw (p, _) -> p in
  List.stable_sort (fun a b -> compare (page a) (page b)) ops

let twopl ~remote backend ~pages_per_file ~retry_wait_ms =
  let rpc = make_op_rpc remote "xdfs-2pl" in
  let run : type a. (unit -> a) -> a = fun f -> remote_runner rpc f in
  let obj file page = (file * 65536) + page in
  assert (pages_per_file <= 65536);
  let exec spec ~max_retries =
    single_part_only "twopl" spec;
    let rec attempt n =
      let txn = run (fun () -> Twopl.begin_ backend) in
      (* Each operation spins on denials: prod vulnerable holders, wait
         otherwise; too many waits aborts the transaction (deadlock
         resolution by timeout, as XDFS's vulnerable locks intend). *)
      let with_lock_wait op_once =
        let rec try_op waits =
          match run op_once with
          | Ok v -> Some v
          | Error (d : Twopl.denial) ->
              if d.Twopl.holder = 0 then None (* We were prodded out: redo. *)
              else if waits >= max_lock_waits then None
              else begin
                if d.Twopl.vulnerable then
                  ignore (run (fun () -> Twopl.prod backend ~victim:d.Twopl.holder));
                Proc.delay retry_wait_ms;
                try_op (waits + 1)
              end
        in
        try_op 0
      in
      let rec run_ops = function
        | [] -> Some ()
        | Read i :: rest -> (
            match with_lock_wait (fun () -> Twopl.read backend txn ~obj:(obj spec.file i)) with
            | Some _ -> run_ops rest
            | None -> None)
        | Write (i, data) :: rest -> (
            match
              with_lock_wait (fun () -> Twopl.write backend txn ~obj:(obj spec.file i) data)
            with
            | Some () -> run_ops rest
            | None -> None)
        | Rmw (i, f) :: rest -> (
            (* Update-lock first: reserve, then read, then write. *)
            match with_lock_wait (fun () -> Twopl.reserve backend txn ~obj:(obj spec.file i)) with
            | None -> None
            | Some () -> (
                match
                  with_lock_wait (fun () -> Twopl.read backend txn ~obj:(obj spec.file i))
                with
                | None -> None
                | Some v -> (
                    match
                      with_lock_wait (fun () ->
                          Twopl.write backend txn ~obj:(obj spec.file i) (f v))
                    with
                    | Some () -> run_ops rest
                    | None -> None)))
      in
      let redo () =
        run (fun () -> Twopl.abort backend txn);
        if n < max_retries then attempt (n + 1) else finished ~committed:false n
      in
      match run_ops (sort_ops spec.ops) with
      | None -> redo ()
      | Some () -> (
          match with_lock_wait (fun () -> Twopl.commit backend txn) with
          | Some () -> finished ~committed:true n
          | None -> redo ())
    in
    attempt 1
  in
  {
    name = "xdfs-2pl";
    exec;
    stats = (fun () -> []);
    read_page = (fun file page -> Twopl.value backend ~obj:(obj file page));
  }

(* {2 SWALLOW-style timestamp ordering} *)

let tsorder ~remote backend ~pages_per_file =
  let rpc = make_op_rpc remote "swallow-ts" in
  let run : type a. (unit -> a) -> a = fun f -> remote_runner rpc f in
  let obj file page = (file * 65536) + page in
  assert (pages_per_file <= 65536);
  let exec spec ~max_retries =
    single_part_only "tsorder" spec;
    let rec attempt n =
      let txn = run (fun () -> Tsorder.begin_ backend) in
      let rec run_ops = function
        | [] -> Some ()
        | Read i :: rest ->
            ignore (run (fun () -> Tsorder.read backend txn ~obj:(obj spec.file i)));
            run_ops rest
        | Write (i, data) :: rest -> (
            match run (fun () -> Tsorder.write backend txn ~obj:(obj spec.file i) data) with
            | Ok () -> run_ops rest
            | Error (`Late_write _) -> None)
        | Rmw (i, f) :: rest -> (
            let v = run (fun () -> Tsorder.read backend txn ~obj:(obj spec.file i)) in
            match run (fun () -> Tsorder.write backend txn ~obj:(obj spec.file i) (f v)) with
            | Ok () -> run_ops rest
            | Error (`Late_write _) -> None)
      in
      let redo () =
        run (fun () -> Tsorder.abort backend txn);
        if n < max_retries then attempt (n + 1) else finished ~committed:false n
      in
      match run_ops spec.ops with
      | None -> redo ()
      | Some () -> (
          match run (fun () -> Tsorder.commit backend txn) with
          | Ok () -> finished ~committed:true n
          | Error (`Late_write _) -> redo ())
    in
    attempt 1
  in
  {
    name = "swallow-ts";
    exec;
    stats = (fun () -> []);
    read_page = (fun file page -> Tsorder.value backend ~obj:(obj file page));
  }

(* {2 Amoeba file service with cross-shard transactions}

   Single-part specs take lib/txn's fast path (the same RPC sequence as
   [afs_cluster]); multi-part specs run the stage/decide/flip protocol.
   The retry loop distinguishes the two abort flavours the S2 report
   separates: a participant stage losing an ordinary one-shard race
   (local) versus a fully-staged transaction force-aborted at the
   coordinator record (cross). *)

let afs_txn ?trace client ~files =
  let module CC = Afs_cluster.Cluster_client in
  let module Txn = Afs_txn.Txn in
  let cluster = CC.cluster client in
  let txn = Txn.create ?trace client in
  let parts_of spec =
    match spec.parts with
    | [] -> [ { Txn.file = files.(spec.file); ops = to_txn_ops spec.ops } ]
    | parts ->
        List.map (fun (file, ops) -> { Txn.file = files.(file); ops = to_txn_ops ops }) parts
  in
  let exec spec ~max_retries =
    let parts = parts_of spec in
    let local = ref 0 and cross = ref 0 in
    let result ~committed n =
      { committed; attempts = n; local_aborts = !local; cross_aborts = !cross }
    in
    let rec attempt n =
      match Txn.exec txn parts with
      | Ok () -> result ~committed:true n
      | Error f ->
          (match f with
          | Txn.Local _ -> incr local
          | Txn.Cross _ -> incr cross
          | Txn.Failed (Errors.Locked_out _ | Errors.Store_failure _) ->
              (* Transport outage or lock hint: wait it out, as the other
                 cluster SUTs do. Not an abort — nothing was staged. *)
              Proc.delay back_off_ms
          | Txn.Failed e -> fatal_error "afs_txn exec" e);
          if n < max_retries then attempt (n + 1) else result ~committed:false n
    in
    attempt 1
  in
  {
    name = "afs-occ-txn";
    exec;
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }

(* {2 Two-phase-commit baseline over the same cluster}

   The conventional coordinator shape: phase one validates and merges
   each participant version ([Server.prepare], sent as [Remote.Prepare])
   and the shard's host parks the run, holding the base's store lock;
   phase two ([Remote.Decide]) publishes or drops it. Participants are
   prepared in canonical file order (preventing prepare deadlocks exactly
   as lock ordering does for 2PL), and blocking is emergent: any
   competitor spins on the retained lock for the whole prepare window,
   surfacing as [Store_failure] back-offs. Contrast with [afs_txn],
   which holds nothing across shards. *)

(* The baseline opens a version per participant and runs each op as its
   own one-step [Version] batch: per-access messages are part of that
   protocol. *)
type opened = { conn : Remote.conn; version : Afs_util.Capability.t; on_commit : unit -> unit }

let run_ops conn version ops =
  let open Errors in
  let run step = Remote.on_version conn version [ step ] in
  let write i data = Result.map ignore (run (Remote.Write (page_path i, data))) in
  List.fold_left
    (fun acc op ->
      let* () = acc in
      match op with
      | Read i -> Result.map ignore (run (Remote.Read (page_path i)))
      | Write (i, data) -> write i data
      | Rmw (i, f) -> (
          match run (Remote.Read (page_path i)) with
          | Ok ([ v ], _) -> write i (f v)
          | Ok _ -> Error (Store_failure "afs_twopc: unexpected batch answer")
          | Error e -> Error e))
    (Ok ()) ops

let cluster_open client file =
  let module CC = Afs_cluster.Cluster_client in
  CC.routed client file (fun conn ~shard file ->
      Result.map
        (fun version ->
          { conn; version; on_commit = (fun () -> CC.note_commit client ~shard file) })
        (Afs_cluster.Shard.open_version conn file))

let afs_twopc client ~files =
  let cluster = Afs_cluster.Cluster_client.cluster client in
  (* The abort's answer is never a forward to chase ([Remote.on_version]). *)
  let abort o =
    match Remote.on_version o.conn o.version [ Remote.Abort ] with Ok _ | Error _ -> ()
  in
  let decide o ~commit = Remote.decide o.conn o.version ~commit in
  let parts_of spec =
    match spec.parts with
    | [] -> [ (spec.file, spec.ops) ]
    | parts -> List.sort (fun (a, _) (b, _) -> compare a b) parts
  in
  let exec spec ~max_retries =
    let parts = parts_of spec in
    let local = ref 0 and cross = ref 0 in
    let result ~committed n =
      { committed; attempts = n; local_aborts = !local; cross_aborts = !cross }
    in
    let rec attempt n =
      let back_off_retry () =
        if n < max_retries then begin
          Proc.delay back_off_ms;
          attempt (n + 1)
        end
        else result ~committed:false n
      in
      (* Phase zero: open a version on every participant and run its ops
         (real page writes, unlike the marker-borne afs_txn stage). *)
      let rec open_all acc = function
        | [] -> `Opened (List.rev acc)
        | (file, ops) :: rest -> (
            match cluster_open client files.(file) with
            | Error (Errors.Locked_out _ | Errors.Store_failure _) ->
                List.iter abort acc;
                `Back_off
            | Error e -> fatal_error "afs_twopc open" e
            | Ok o -> (
                match run_ops o.conn o.version ops with
                | Ok () -> open_all (o :: acc) rest
                | Error (Errors.Store_failure _) ->
                    List.iter abort (o :: acc);
                    `Back_off
                | Error e ->
                    List.iter abort (o :: acc);
                    fatal_error "afs_twopc ops" e))
      in
      match open_all [] parts with
      | `Back_off -> back_off_retry ()
      | `Opened opened -> (
          (* Phase one, in canonical order. On any refusal the prepared
             prefix is decided-abort (releasing its parked pipelines)
             before the unprepared suffix is discarded. *)
          let rec prepare_all prepared idx = function
            | [] -> `Prepared (List.rev prepared)
            | o :: rest -> (
                match Remote.prepare o.conn o.version with
                | Ok () -> prepare_all (o :: prepared) (idx + 1) rest
                | Error e ->
                    List.iter (fun p -> ignore (decide p ~commit:false)) (List.rev prepared);
                    abort o;
                    List.iter abort rest;
                    `Refused (idx, e))
          in
          match prepare_all [] 0 opened with
          | `Refused (_, Errors.Store_failure _) ->
              (* Lock contention against another coordinator's prepare
                 window — the blocking 2PC is famous for. *)
              back_off_retry ()
          | `Refused (idx, Errors.Conflict) ->
              if idx = 0 && List.length parts > 1 then incr local
              else if List.length parts > 1 then incr cross
              else incr local;
              if n < max_retries then attempt (n + 1)
              else result ~committed:false n
          | `Refused (_, e) -> fatal_error "afs_twopc prepare" e
          | `Prepared prepared ->
              (* Phase two: the decision is definite once every vote is
                 in; a participant that cannot publish now is a broken
                 store, not a conflict. *)
              List.iter
                (fun o ->
                  fatal "afs_twopc decide" (decide o ~commit:true);
                  o.on_commit ())
                prepared;
              result ~committed:true n)
    in
    attempt 1
  in
  {
    name = "afs-2pc";
    exec;
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }
