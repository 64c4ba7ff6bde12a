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
         participant per entry, honoured only by the cluster backends;
         [file]/[ops] are ignored then. *)
}

type exec_result = {
  committed : bool;
  attempts : int;
  local_aborts : int;
  cross_aborts : int;
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

(* {2 The one retry loop}

   Every backend's [exec] is this loop plus a function that makes one
   attempt. An attempt may redo internally, counting its redos in the
   loop's [tries] (the Amoeba backends' one-message redos); it answers
   how it ended. The loop owns the attempt count, the back-off wait and
   the give-up check, which runs before any wait. One counting rule: an
   attempt that neither committed nor backed off is an abort, local
   unless the attempt said cross; a back-off is not an abort. *)

type attempt =
  | Committed
  | Local_abort  (** Lost an ordinary one-shard race: redo at once. *)
  | Cross_abort  (** Aborted at its coordinator once staged or prepared elsewhere: redo at once. *)
  | Back_off  (** A lock hint or a transport outage: wait, then redo. *)

let back_off_ms = 5.0

let rec retry attempt (tries : Afs_txn.Txn.tries) ~backed_off ~cross =
  let ended = attempt tries in
  let backed_off = if ended = Back_off then backed_off + 1 else backed_off
  and cross = if ended = Cross_abort then cross + 1 else cross in
  if ended = Committed || tries.made >= tries.allowed then
    let committed = ended = Committed in
    {
      committed;
      attempts = tries.made;
      local_aborts = tries.made - Bool.to_int committed - backed_off - cross;
      cross_aborts = cross;
    }
  else begin
    if ended = Back_off then Proc.delay back_off_ms;
    tries.made <- tries.made + 1;
    retry attempt tries ~backed_off ~cross
  end

let retrying attempt ~max_retries =
  retry attempt { made = 1; allowed = max_retries } ~backed_off:0 ~cross:0

(* {2 The Amoeba file service: optimistic attempts}

   The paper's client procedure: open a version, run the page
   operations, commit, and redo on conflict — {!Afs_txn.Txn.commit_part}.
   The first attempt is two messages: an [Open] batch that reads the
   root and every page the ops read, then a [Version] batch with the
   computed writes and [Commit]. A commit that loses validation answers
   with the redo's opening, so each redo is one more [Version] batch.
   A bare server runs it on its connection; a cluster routes it and
   waits out markers ({!Afs_txn.Txn.update}). A commit that failed in
   transport never reached a live server (a served request's reply
   still delivers across a crash), so nothing committed and a redo is
   safe. Anything else is a protocol violation. *)

let to_txn_ops ops =
  List.map
    (function
      | Read i -> Afs_txn.Txn.Read (page_path i)
      | Write (i, data) -> Afs_txn.Txn.Write (page_path i, data)
      | Rmw (i, f) -> Afs_txn.Txn.Rmw (page_path i, f))
    ops

let optimistic where = function
  | Ok () -> Committed
  | Error Errors.Conflict -> Local_abort
  | Error (Errors.Locked_out _ | Errors.Store_failure _) -> Back_off
  | Error e -> fatal_error where e

let afs_remote ?(name = "afs-occ-rpc") conn ~fallback ~files =
  let read_page file page =
    let cap = fatal "current_version" (Server.current_version fallback files.(file)) in
    fatal "read_page" (Server.read_page fallback cap (page_path page))
  in
  let exec spec ~max_retries =
    single_part_only "afs_remote" spec;
    let file = files.(spec.file) and ops = to_txn_ops spec.ops in
    retrying ~max_retries (fun tries ->
        optimistic "afs_remote attempt" (Afs_txn.Txn.commit_part ~tries conn file ops))
  in
  {
    name;
    exec;
    stats = (fun () -> Afs_util.Stats.Counter.to_list (Server.counters fallback));
    read_page;
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
  let attempt spec _ =
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
    let ( let* ) = Option.bind in
    let read i = with_lock_wait (fun () -> Twopl.read backend txn ~obj:(obj spec.file i)) in
    let write i data =
      with_lock_wait (fun () -> Twopl.write backend txn ~obj:(obj spec.file i) data)
    in
    let rec run_ops = function
      | [] -> with_lock_wait (fun () -> Twopl.commit backend txn)
      | Read i :: rest ->
          let* _ = read i in
          run_ops rest
      | Write (i, data) :: rest ->
          let* () = write i data in
          run_ops rest
      | Rmw (i, f) :: rest ->
          (* Update-lock first: reserve, then read, then write. *)
          let* () = with_lock_wait (fun () -> Twopl.reserve backend txn ~obj:(obj spec.file i)) in
          let* v = read i in
          let* () = write i (f v) in
          run_ops rest
    in
    match run_ops (sort_ops spec.ops) with
    | Some () -> Committed
    | None ->
        run (fun () -> Twopl.abort backend txn);
        Local_abort
  in
  {
    name = "xdfs-2pl";
    exec =
      (fun spec ~max_retries ->
        single_part_only "twopl" spec;
        retrying (attempt spec) ~max_retries);
    stats = (fun () -> []);
    read_page = (fun file page -> Twopl.value backend ~obj:(obj file page));
  }

(* {2 SWALLOW-style timestamp ordering} *)

let tsorder ~remote backend ~pages_per_file =
  let rpc = make_op_rpc remote "swallow-ts" in
  let run : type a. (unit -> a) -> a = fun f -> remote_runner rpc f in
  let obj file page = (file * 65536) + page in
  assert (pages_per_file <= 65536);
  let attempt spec _ =
    let txn = run (fun () -> Tsorder.begin_ backend) in
    let ( let* ) = Result.bind in
    let read i = run (fun () -> Tsorder.read backend txn ~obj:(obj spec.file i)) in
    let write i data = run (fun () -> Tsorder.write backend txn ~obj:(obj spec.file i) data) in
    let rec run_ops = function
      | [] -> run (fun () -> Tsorder.commit backend txn)
      | Read i :: rest ->
          ignore (read i);
          run_ops rest
      | Write (i, data) :: rest ->
          let* () = write i data in
          run_ops rest
      | Rmw (i, f) :: rest ->
          let* () = write i (f (read i)) in
          run_ops rest
    in
    match run_ops spec.ops with
    | Ok () -> Committed
    | Error (`Late_write _) ->
        run (fun () -> Tsorder.abort backend txn);
        Local_abort
  in
  {
    name = "swallow-ts";
    exec =
      (fun spec ~max_retries ->
        single_part_only "tsorder" spec;
        retrying (attempt spec) ~max_retries);
    stats = (fun () -> []);
    read_page = (fun file page -> Tsorder.value backend ~obj:(obj file page));
  }

(* {2 The Amoeba file service over a cluster}

   One backend, under two names. A single-file spec is one
   {!Afs_txn.Txn.update}: {!afs_remote}'s attempts, routed, waiting out
   another transaction's marker. A multi-part spec runs lib/txn's
   stage/decide/flip protocol, and the loop tells the two abort flavours
   the S2 report separates apart: a participant stage losing an ordinary
   one-shard race (local) versus a fully staged transaction
   force-aborted at the coordinator record (cross). *)

let afs_txn ?trace client ~files =
  let module Txn = Afs_txn.Txn in
  let cluster = Afs_cluster.Cluster_client.cluster client in
  let txn = Txn.create ?trace client in
  let attempt spec =
    match spec.parts with
    | [] ->
        let file = files.(spec.file) and ops = to_txn_ops spec.ops in
        fun tries -> optimistic "afs_txn update" (Txn.update txn ~tries file ops)
    | parts -> (
        let parts =
          List.map (fun (file, ops) -> { Txn.file = files.(file); ops = to_txn_ops ops }) parts
        in
        fun _ ->
          match Txn.exec txn parts with
          | Ok () -> Committed
          | Error (Txn.Local _) -> Local_abort
          | Error (Txn.Cross _) -> Cross_abort
          (* Nothing was staged: not an abort. *)
          | Error (Txn.Failed (Errors.Locked_out _ | Errors.Store_failure _)) -> Back_off
          | Error (Txn.Failed e) -> fatal_error "afs_txn exec" e)
  in
  {
    name = "afs-occ-txn";
    exec = (fun spec ~max_retries -> retrying (attempt spec) ~max_retries);
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }

let afs_cluster client ~files = { (afs_txn client ~files) with name = "afs-occ-cluster" }

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
  let abort o = Remote.abandon o.conn o.version in
  let decide o ~commit = Remote.decide o.conn o.version ~commit in
  let attempt spec =
    let parts =
      match spec.parts with
      | [] -> [ (spec.file, spec.ops) ]
      | parts -> List.sort (fun (a, _) (b, _) -> compare a b) parts
    in
    fun _ ->
      (* Phase zero: open a version on every participant and run its ops
         (real page writes, unlike the marker-borne afs_txn stage). *)
      let rec open_all acc = function
        | [] -> Ok (List.rev acc)
        | (file, ops) :: rest -> (
            match cluster_open client files.(file) with
            | Error (Errors.Locked_out _ | Errors.Store_failure _) ->
                List.iter abort acc;
                Error Back_off
            | Error e -> fatal_error "afs_twopc open" e
            | Ok o -> (
                match run_ops o.conn o.version ops with
                | Ok () -> open_all (o :: acc) rest
                | Error (Errors.Store_failure _) ->
                    List.iter abort (o :: acc);
                    Error Back_off
                | Error e ->
                    List.iter abort (o :: acc);
                    fatal_error "afs_twopc ops" e))
      in
      (* Phase one, in canonical order. On any refusal the prepared prefix
         is decided-abort (releasing its parked pipelines) before the
         unprepared suffix is discarded. A conflict at the first
         participant is a local race; past it, the transaction was
         prepared elsewhere and aborts cross-shard. *)
      let rec prepare_all prepared = function
        | [] ->
            (* Phase two: the decision is definite once every vote is in;
               a participant that cannot publish now is a broken store,
               not a conflict. *)
            List.iter
              (fun o ->
                fatal "afs_twopc decide" (decide o ~commit:true);
                o.on_commit ())
              (List.rev prepared);
            Committed
        | o :: rest -> (
            match Remote.prepare o.conn o.version with
            | Ok () -> prepare_all (o :: prepared) rest
            | Error e -> (
                List.iter (fun p -> ignore (decide p ~commit:false)) (List.rev prepared);
                List.iter abort (o :: rest);
                match e with
                (* Lock contention against another coordinator's prepare
                   window — the blocking 2PC is famous for. *)
                | Errors.Store_failure _ -> Back_off
                | Errors.Conflict -> (
                    match prepared with [] -> Local_abort | _ :: _ -> Cross_abort)
                | e -> fatal_error "afs_twopc prepare" e))
      in
      match open_all [] parts with
      | Error ended -> ended
      | Ok opened -> prepare_all [] opened
  in
  {
    name = "afs-2pc";
    exec = (fun spec ~max_retries -> retrying (attempt spec) ~max_retries);
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }
