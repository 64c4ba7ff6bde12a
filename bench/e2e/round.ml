(* One round: build a workload's service and files, run its transactions
   through [Driver.run], check the outcome, and return every end-to-end
   and per-layer number. A round is a pure function of (workload, seed)
   in simulated time; only host costs (time, allocation, heap) and setup_s
   depend on the machine and the binary. *)

module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Trace = Afs_trace.Trace
module Server = Afs_core.Server
module Store = Afs_core.Store
module Page = Afs_core.Page
module Pagestore = Afs_core.Pagestore
module Core_gc = Afs_core.Gc
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Cluster = Afs_cluster.Cluster
module Shard = Afs_cluster.Shard
module CC = Afs_cluster.Cluster_client
module Txn = Afs_txn.Txn
module Stable_pair = Afs_stable.Stable_pair
module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module Det = Afs_util.Det
module Counter = Afs_util.Stats.Counter
module W = Afs_workload.Workload
module Sut = Afs_workload.Sut
module Driver = Afs_workload.Driver

(* {2 Set-up} *)

type env = {
  sut : Sut.t;
  gen : W.generator;
  servers : Server.t list;
  rpc_servers : string list;
  cluster : Cluster.t option;
  disks : Disk.t list;
  single_file : bool;  (** No transaction spans files, so nothing backs off. *)
  user_pages : int;
  user_bytes_per_commit : int;
  audit : unit -> string list;  (** Workload-specific checks after the run. *)
}

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ Errors.to_string e)

let cluster_env cluster sut ~gen ~single_file ~user_pages ~user_bytes_per_commit ~audit =
  let shards = Cluster.shards cluster in
  {
    sut;
    gen;
    servers = List.map Shard.server shards;
    rpc_servers = List.map Shard.name shards;
    cluster = Some cluster;
    disks = [];
    single_file;
    user_pages;
    user_bytes_per_commit;
    audit;
  }

let setup (w : Workloads.t) engine ~seed ~trace ledger =
  let traced = Trace.enabled trace in
  match w.system with
  | Workloads.Cluster_pages { shards; shape } ->
      let cluster =
        Cluster.create ~latency_ms:w.latency_ms ~proc_ms:w.proc_ms ~trace engine ~shards
      in
      let initial = Bytes.make shape.W.payload_bytes '0' in
      let files = ok "setup_cluster" (W.setup_cluster cluster shape ~initial) in
      cluster_env cluster
        (Sut.afs_cluster (CC.connect cluster) ~files)
        ~gen:(W.make shape) ~single_file:true
        ~user_pages:(shape.W.nfiles * shape.W.pages_per_file)
        ~user_bytes_per_commit:(shape.W.rmw_pages * shape.W.payload_bytes)
        ~audit:(fun () -> [])
  | Workloads.Server_pages { shape; stable; cache_capacity } ->
      let pair =
        if stable then
          Some
            (Stable_pair.create ~seed ~media:Media.electronic ~trace ~blocks:131_072
               ~block_size:8192 ())
        else None
      in
      let store = match pair with Some p -> Store.of_stable_pair p | None -> Store.memory () in
      let store = if traced then Ledger.wrap_store ledger store else store in
      let srv = Server.create ?cache_capacity ~name:"afs" ~trace store in
      let initial = Bytes.make shape.W.payload_bytes '0' in
      let files = ok "setup_pages" (W.setup_pages srv shape ~initial) in
      let disks =
        match pair with Some p -> [ Stable_pair.disk p 0; Stable_pair.disk p 1 ] | None -> []
      in
      let wrap = if traced then Some (Ledger.wrap_handler ledger ~disks) else None in
      let host =
        Remote.host ~latency_ms:w.latency_ms ~proc_ms:w.proc_ms ~disks ?wrap engine ~name:"afs"
          srv
      in
      {
        sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files;
        gen = W.make shape;
        servers = [ srv ];
        rpc_servers = [ "afs" ];
        cluster = None;
        disks;
        single_file = true;
        user_pages = shape.W.nfiles * shape.W.pages_per_file;
        user_bytes_per_commit = shape.W.rmw_pages * shape.W.payload_bytes;
        audit = (fun () -> []);
      }
  | Workloads.Bank { tshape; initial_balance } ->
      let cluster =
        Cluster.create ~latency_ms:w.latency_ms ~proc_ms:w.proc_ms ~trace engine
          ~shards:tshape.W.shards
      in
      let files = ok "setup_accounts" (W.setup_accounts cluster tshape ~initial_balance) in
      let client = CC.connect cluster in
      let sut = Sut.afs_txn ~trace client ~files in
      (* Resolve whatever is still in doubt, then audit the conserved sum. *)
      let audit () =
        let swept = ref (Ok 0) in
        ignore
          (Proc.spawn engine (fun () ->
               swept := Txn.sweep (Txn.create client) (Array.to_list files)));
        Engine.run engine;
        match !swept with
        | Error e -> [ "Txn.sweep: " ^ Errors.to_string e ]
        | Ok _ ->
            let total = W.total_balance sut tshape in
            let expected = initial_balance * tshape.W.accounts in
            if total = expected then []
            else [ Printf.sprintf "conservation: total balance %d, expected %d" total expected ]
      in
      cluster_env cluster sut ~gen:(W.transfer tshape) ~single_file:false
        ~user_pages:(tshape.W.accounts + tshape.W.objects)
        ~user_bytes_per_commit:0 ~audit

(* {2 Recording completions}

   The [Sut.exec] wrapper times every transaction with [Engine.now] and
   keeps exact per-transaction data: completion times for the throughput
   window, committed latencies for exact percentiles, and the payload each
   committed transaction wrote, for the last-writer check. *)

type recorder = {
  completion_ms : Float.Array.t;
  committed_at : Bytes.t;  (** '1' where the i-th completion committed. *)
  latencies : Float.Array.t;  (** Committed latencies, in completion order. *)
  mutable completed : int;
  mutable committed : int;
  mutable attempts : int;
  total_ms : Ledger.Sum.t;  (** Latency of every transaction, given-up ones too. *)
  mutable digest : int;
  last_write : (int * int, bytes) Hashtbl.t;
}

let recorder txns =
  {
    completion_ms = Float.Array.make txns 0.0;
    committed_at = Bytes.make txns '0';
    latencies = Float.Array.make txns 0.0;
    completed = 0;
    committed = 0;
    attempts = 0;
    total_ms = Ledger.Sum.create ();
    digest = 0x4bf29ce484222325;
    last_write = Hashtbl.create 4096;
  }

let mix h x = (h lxor x) * 0x100000001b3

(* Wrap every page write of [spec] so the value it actually writes is
   captured; retries overwrite the cell, so it ends holding what the
   committing attempt wrote. *)
let capture_writes (spec : Sut.txn_spec) =
  let cells = ref [] in
  let ops =
    List.map
      (function
        | Sut.Rmw (p, f) ->
            let cell = ref Bytes.empty in
            cells := (p, cell) :: !cells;
            Sut.Rmw
              ( p,
                fun old ->
                  let v = f old in
                  cell := v;
                  v )
        | Sut.Write (p, data) as op ->
            cells := (p, ref data) :: !cells;
            op
        | Sut.Read _ as op -> op)
      spec.Sut.ops
  in
  ({ spec with Sut.ops }, !cells)

let record r ~t1 ~dt (result : Sut.exec_result) =
  let i = r.completed in
  Float.Array.set r.completion_ms i t1;
  r.completed <- i + 1;
  r.attempts <- r.attempts + result.Sut.attempts;
  Ledger.Sum.add r.total_ms dt;
  r.digest <- mix (mix r.digest (Int64.to_int (Int64.bits_of_float dt))) result.Sut.attempts;
  if result.Sut.committed then begin
    Bytes.set r.committed_at i '1';
    Float.Array.set r.latencies r.committed dt;
    r.committed <- r.committed + 1
  end

(* Throughput is measured between the 10%-th and the 90%-th completion:
   the steady state. [Driver.report.elapsed_ms] would include the
   clients' final think times after the last admission, and the last
   completions are stragglers finishing after new work stopped arriving
   (seconds long on xshard-bank), which made a window ending at the last
   completion swing with the seed. *)
let window_bounds txns = (max 1 (txns / 10), max 1 (txns - (txns / 10)))

let window r =
  let first, last = window_bounds r.completed in
  let commits = ref 0 in
  for i = first to last - 1 do
    if Bytes.get r.committed_at i = '1' then incr commits
  done;
  ( !commits,
    Float.Array.get r.completion_ms (last - 1) -. Float.Array.get r.completion_ms (first - 1) )

(* {2 Results} *)

type result = {
  seed : int;
  traced : bool;
  setup_s : float;
  run_cpu_s : float;  (** User + system CPU of [Driver.run]. *)
  run_ref_s : float;  (** The same, calibrated: reference CPU seconds ({!Calib}). *)
  unit_ms : float;  (** Median time of the round's calibration unit. *)
  run_wall_s : float;
  run_words : float;  (** Minor words allocated during [Driver.run]. *)
  heap_mb : float;
  admitted : int;
  committed : int;
  attempts : int;
  given_up : int;
  events : int;
  digest : int;
  window_commits : int;  (** Commits after the 10%-th completion, up to the 90%-th. *)
  window_ms : float;  (** From the 10%-th completion to the 90%-th. *)
  latencies : float array;  (** Committed transactions' latencies, ascending. *)
  failures : string list;
  layers : (string * string * float) list;  (** Per-layer (name, unit, value). *)
}

(* The simulated outcome: identical across repeats and between traced and
   untraced rounds of one seed, or the run is not deterministic. *)
let fingerprint r = (r.admitted, r.committed, r.attempts, r.given_up, r.events, r.digest)

let request_kinds =
  [
    "create_version"; "read_page"; "write_page"; "commit"; "abort_version"; "create_file";
    "txn_mark"; "txn_open"; "txn_seal"; "txn_cas";
  ]

let server_counter_names =
  [
    "commits.ok"; "commits.fastpath"; "commits.merged"; "commits.conflict";
    "commits.shortcircuit"; "versions.created"; "pages.copied"; "serialise.pages_visited";
    "cache.hits"; "cache.misses"; "cache.evictions"; "cache.writebacks";
  ]

let server_counters env =
  List.map
    (fun name ->
      (name, List.fold_left (fun acc s -> acc + Counter.get (Server.counters s) name) 0 env.servers))
    server_counter_names

type disk_totals = { reads : int; writes : int; busy_ms : float }

let disk_totals disks =
  List.fold_left
    (fun acc d ->
      let s = Disk.stats d in
      { reads = acc.reads + s.Disk.reads; writes = acc.writes + s.Disk.writes;
        busy_ms = acc.busy_ms +. s.Disk.busy_ms })
    { reads = 0; writes = 0; busy_ms = 0.0 }
    disks

let store_blocks env =
  List.fold_left
    (fun acc s ->
      match (Pagestore.store (Server.pagestore s)).Store.list_blocks () with
      | Ok blocks -> acc + List.length blocks
      | Error msg -> failwith ("list_blocks: " ^ msg))
    0 env.servers

(* {2 The round}

   Host time is taken in stretches with a calibration unit ({!Calib})
   between each two, and charged in reference seconds; the units
   themselves are charged to nothing. *)

let segments = 256
let setup_repeats = 5
let setup_budget_s = 0.5
let setup_max = 100

(* A list built newest first, as an array oldest first. *)
let ordered l = Array.of_list (List.rev l)

let sum a = Array.fold_left ( +. ) 0.0 a

let run ?(scale = 1.0) ~seed ~traced (w : Workloads.t) =
  let w = Workloads.scaled w scale in
  let ledger = Ledger.create () in
  Calib.prepare ();
  (* Set-up is repeated — at least [setup_repeats] times, and until
     [setup_budget_s] is spent, so that the first builds, which still grow
     the heap, are outvoted and millisecond set-ups get enough samples —
     and the median calibrated build kept. The last service built is the
     one measured. A scaled-down round scales this effort down too. *)
  let repeats = max 1 (int_of_float (Float.round (float_of_int setup_repeats *. scale))) in
  let budget = setup_budget_s *. scale in
  let build () =
    let start = Clock.wall_s () in
    let engine = Engine.create () in
    let trace =
      if traced then Trace.stream ~now:(fun () -> Engine.now engine) (Ledger.on_event ledger)
      else Trace.null
    in
    Engine.set_trace engine trace;
    let env = setup w engine ~seed ~trace ledger in
    (Clock.wall_s () -. start, engine, env)
  in
  let rec builds n spent times units =
    let t, engine, env = build () in
    let times = t :: times and units = Calib.unit_s () :: units and spent = spent +. t in
    if n + 1 >= repeats && (spent >= budget || n + 1 >= setup_max) then
      (times, units, engine, env)
    else builds (n + 1) spent times units
  in
  let times, setup_units, engine, env = builds 0 0.0 [] [ Calib.unit_s () ] in
  let setup_s =
    Calib.median (Array.to_list (Calib.charge (ordered times) (ordered setup_units)))
  in
  let r = recorder w.txns in
  let window_first, window_last = window_bounds w.txns in
  (* The run's CPU time is taken in [segments] stretches of equal
     transaction counts. *)
  let seg_every = max 1 (w.txns / segments) in
  let spans = ref [] and units = ref [] and span_start = ref 0.0 in
  let boundary () =
    spans := (Clock.cpu_s () -. !span_start) :: !spans;
    units := Calib.unit_s () :: !units;
    span_start := Clock.cpu_s ()
  in
  let exec spec ~max_retries =
    let t0 = Engine.now engine in
    let spec, cells = capture_writes spec in
    let result = env.sut.Sut.exec spec ~max_retries in
    let t1 = Engine.now engine in
    record r ~t1 ~dt:(t1 -. t0) result;
    if r.completed mod seg_every = 0 && r.completed < w.txns then boundary ();
    if r.completed = window_first then Ledger.set_window ledger true;
    if r.completed = window_last then Ledger.set_window ledger false;
    if result.Sut.committed then
      List.iter (fun (p, cell) -> Hashtbl.replace r.last_write (spec.Sut.file, p) !cell) cells;
    result
  in
  let policy = { Core_gc.retain_committed = w.retain; reshare = false } in
  let on_progress n =
    if n mod w.gc_every = 0 then List.iter (Ledger.collect ledger ~policy) env.servers
  in
  let config =
    {
      Driver.clients = w.clients;
      duration_ms = Float.max_float;
      think_ms = w.think_ms;
      max_retries = Workloads.max_retries;
      seed;
      max_txns = w.txns;
    }
  in
  let counters0 = server_counters env in
  let disks0 = disk_totals env.disks in
  let events0 = Engine.events_executed engine in
  let encodes0 = Page.fresh_encodes () in
  Ledger.start ledger;
  units := [ Calib.unit_s () ];
  let wall0 = Clock.wall_s () and words0 = Clock.minor_words () in
  span_start := Clock.cpu_s ();
  let report =
    Driver.run engine config { env.sut with Sut.exec } ~gen:env.gen ~on_progress
  in
  let run_words = Clock.minor_words () -. words0 in
  boundary ();
  let spans = ordered !spans and units = ordered !units in
  let run_cpu_s = sum spans and run_ref_s = sum (Calib.charge spans units) in
  (* Every unit but the first ran inside the wall-clock bracket. *)
  let run_wall_s = Clock.wall_s () -. wall0 -. (sum units -. units.(0)) in
  Ledger.stop ledger;
  let heap_mb = Clock.heap_peak_mb () in
  let events = Engine.events_executed engine - events0 in
  let encodes = Page.fresh_encodes () - encodes0 in
  let counters =
    List.map2 (fun (name, after) (_, before) -> (name, after - before)) (server_counters env)
      counters0
  in
  let disks = disk_totals env.disks in
  let sut_stats = env.sut.Sut.stats () in
  let blocks = store_blocks env in
  (* {3 Checks} *)
  let failures = ref (List.rev ledger.Ledger.gc_errors) in
  let fail fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  if report.Driver.committed + report.Driver.given_up <> w.txns || r.completed <> w.txns then
    fail "ran %d transactions (driver: %d committed + %d given up), expected %d" r.completed
      report.Driver.committed report.Driver.given_up w.txns;
  if report.Driver.committed <> r.committed || report.Driver.attempts <> r.attempts then
    fail "driver report disagrees with the recorder";
  (* Last writer: completion order is commit order, because each file
     lives on one FIFO server whose replies all take the same latency. *)
  let lost =
    Det.fold_sorted
      (fun (file, page) expected acc ->
        if Bytes.equal (env.sut.Sut.read_page file page) expected then acc
        else (file, page) :: acc)
      r.last_write []
  in
  (match List.rev lost with
  | [] -> ()
  | (file, page) :: _ ->
      fail "%d pages do not hold their last acknowledged write (first: page %d of file %d)"
        (List.length lost) page file);
  List.iter (fun msg -> fail "%s" msg) (env.audit ());
  (* {3 The latency breakdown}

     Σ reply − Σ request times is the total RPC round-trip time. Of each
     round trip, 2·latency is on the wire and proc + disk time is service;
     the rest is queueing behind the server's other requests, whose
     occupancy includes the reply latency (see [Rpc.pump]). Whatever
     transaction latency is not round trips is client back-off. Queue and
     back-off are remainders, so the four parts add up to the latency by
     construction; what is checked is that neither remainder is negative
     and that back-off is 0 where nothing backs off — there the measured
     round trips alone account for every transaction's latency. *)
  let committed = r.committed in
  let per x = if committed = 0 then 0.0 else x /. float_of_int committed in
  let per_i x = per (float_of_int x) in
  let total_ms = Ledger.Sum.value r.total_ms in
  let rtt_ms = Ledger.Sum.value ledger.Ledger.rtt in
  let sends = ledger.Ledger.sends in
  let wire_ms = float_of_int sends *. 2.0 *. w.latency_ms in
  let storage_ms = Ledger.Sum.value ledger.Ledger.storage_ms in
  let service_ms = (float_of_int sends *. w.proc_ms) +. storage_ms in
  let queue_ms = rtt_ms -. wire_ms -. service_ms in
  let backoff_ms = total_ms -. rtt_ms in
  let tolerance = 1e-9 *. Float.max 1.0 total_ms in
  if traced then begin
    if ledger.Ledger.timeouts <> 0 then fail "%d RPC timeouts" ledger.Ledger.timeouts;
    if queue_ms < -.tolerance then fail "negative RPC queueing time %.9g ms" queue_ms;
    if env.single_file && Float.abs backoff_ms > tolerance then
      fail "single-file transactions backed off for %.9g ms" backoff_ms;
    if backoff_ms < -.tolerance then fail "negative back-off %.9g ms" backoff_ms
  end;
  let window_commits, window_ms = window r in
  (* Disk time is only measured (and only non-zero) behind the single
     server's handler wrapper. *)
  let busiest =
    List.fold_left
      (fun acc name ->
        let busy =
          (float_of_int (Ledger.count ledger.Ledger.served name) *. (w.proc_ms +. w.latency_ms))
          +. Ledger.Sum.value ledger.Ledger.storage_window_ms
        in
        Float.max acc busy)
      0.0 env.rpc_servers
  in
  let counter name = List.assoc name counters in
  let stat name = match List.assoc_opt name sut_stats with Some v -> v | None -> 0 in
  let requests = counter "commits.ok" + counter "commits.conflict" in
  let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let shard_skew =
    match env.cluster with
    | None -> 1.0
    | Some c ->
        let commits = List.init (Cluster.nshards c) (Cluster.shard_commits c) in
        let total = List.fold_left ( + ) 0 commits in
        if total = 0 then 1.0
        else
          float_of_int (List.fold_left max 0 commits)
          /. (float_of_int total /. float_of_int (Cluster.nshards c))
  in
  let other_requests =
    Det.fold_sorted
      (fun op n acc -> if List.mem op request_kinds then acc else acc + !n)
      ledger.Ledger.ops 0
  in
  let layers =
    [
      ("sim.events_per_commit", "events/txn", per_i events);
      ( "sim.host_ns_per_event",
        "ns/event",
        if events = 0 then 0.0 else run_ref_s *. 1e9 /. float_of_int events );
      ("driver.backoff_ms_per_commit", "ms/txn", per backoff_ms);
      ("rpc.requests_per_commit", "req/txn", per_i sends);
    ]
    @ List.map
        (fun op ->
          ("rpc.req." ^ op ^ "_per_commit", "req/txn", per_i (Ledger.count ledger.Ledger.ops op)))
        request_kinds
    @ [
        ("rpc.req.other_per_commit", "req/txn", per_i other_requests);
        ("rpc.wire_ms_per_commit", "ms/txn", per wire_ms);
        ("rpc.service_ms_per_commit", "ms/txn", per service_ms);
        ("rpc.queue_ms_per_commit", "ms/txn", per queue_ms);
        ("rpc.busiest_utilisation", "ratio", if window_ms > 0.0 then busiest /. window_ms else 0.0);
        ("rpc.timeouts", "count", float_of_int ledger.Ledger.timeouts);
        ("cluster.shard_skew", "ratio", shard_skew);
        ( "cluster.forwarded",
          "count",
          match env.cluster with
          | Some c -> float_of_int (Counter.get (Cluster.counters c) "client.forwarded")
          | None -> 0.0 );
        ("server.conflict_ratio", "ratio", share (counter "commits.conflict") requests);
        ("server.fastpath_ratio", "ratio", share (counter "commits.fastpath") requests);
        ("server.merged_ratio", "ratio", share (counter "commits.merged") requests);
        ("server.shortcircuit_ratio", "ratio", share (counter "commits.shortcircuit") requests);
        ("server.versions_per_commit", "1/txn", per_i (counter "versions.created"));
        ("server.pages_copied_per_commit", "pages/txn", per_i (counter "pages.copied"));
        ("server.serialise_pages_per_commit", "pages/txn", per_i (counter "serialise.pages_visited"));
        ("server.commit_host_us", "us/txn", per (ledger.Ledger.commit.Ledger.seconds *. 1e6));
        ("server.commit_words", "words/txn", per ledger.Ledger.commit.Ledger.words);
        ( "server.handler_host_us_per_commit",
          "us/txn",
          per (ledger.Ledger.handler.Ledger.seconds *. 1e6) );
        ("server.handler_words_per_commit", "words/txn", per ledger.Ledger.handler.Ledger.words);
        ( "pagestore.hit_ratio",
          "ratio",
          share (counter "cache.hits") (counter "cache.hits" + counter "cache.misses") );
        ("pagestore.misses_per_commit", "1/txn", per_i (counter "cache.misses"));
        ("pagestore.evictions_per_commit", "1/txn", per_i (counter "cache.evictions"));
        ("pagestore.writebacks_per_commit", "1/txn", per_i (counter "cache.writebacks"));
        ("page.encodes_per_commit", "1/txn", per_i encodes);
        ("store.reads_per_commit", "1/txn", per_i ledger.Ledger.store_reads);
        ("store.writes_per_commit", "1/txn", per_i ledger.Ledger.store_writes);
        ("store.batches_per_commit", "1/txn", per_i ledger.Ledger.store_batches);
        ("store.host_us_per_commit", "us/txn", per (ledger.Ledger.store.Ledger.seconds *. 1e6));
        ( "store.bytes_written_per_user_byte",
          "ratio",
          share ledger.Ledger.store_bytes (committed * env.user_bytes_per_commit) );
        ("store.blocks_per_live_page", "blocks/page", share blocks env.user_pages);
        ("stable.legs_per_commit", "1/txn", per_i ledger.Ledger.legs);
        ("disk.reads_per_commit", "1/txn", per_i (disks.reads - disks0.reads));
        ("disk.writes_per_commit", "1/txn", per_i (disks.writes - disks0.writes));
        ("disk.busy_ms_per_commit", "ms/txn", per (disks.busy_ms -. disks0.busy_ms));
        ("txn.round_trips_per_commit", "req/txn", per_i (stat "txn.round_trips"));
        ("txn.coordinated_ratio", "ratio", per_i (stat "txn.coordinated"));
        ("txn.stage_retries_per_commit", "1/txn", per_i (stat "txn.stage_retries"));
        ( "txn.resolves_per_commit",
          "1/txn",
          per_i (stat "txn.resolved.forward" + stat "txn.resolved.back") );
        ("txn.force_aborts", "count", float_of_int (stat "txn.force_aborts"));
        ("txn.stage_ms_per_commit", "ms/txn", per (Ledger.sim_ms ledger "txn.stage"));
        ("txn.decide_ms_per_commit", "ms/txn", per (Ledger.sim_ms ledger "txn.decide"));
        ("txn.resolve_ms_per_commit", "ms/txn", per (Ledger.sim_ms ledger "txn.resolve"));
        ( "gc.host_share",
          "ratio",
          if run_wall_s > 0.0 then ledger.Ledger.gc.Ledger.seconds /. run_wall_s else 0.0 );
        ("gc.words_per_commit", "words/txn", per ledger.Ledger.gc.Ledger.words);
        ("gc.blocks_freed_per_commit", "1/txn", per_i ledger.Ledger.gc_freed);
        ("trace.events_per_commit", "events/txn", per_i ledger.Ledger.events);
      ]
  in
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then fail "per-layer %s is not finite" name)
    layers;
  let latencies = Array.init committed (Float.Array.get r.latencies) in
  Array.sort Float.compare latencies;
  {
    seed;
    traced;
    setup_s;
    run_cpu_s;
    run_ref_s;
    unit_ms = Calib.median (Array.to_list units) *. 1e3;
    run_wall_s;
    run_words;
    heap_mb;
    admitted = r.completed;
    committed;
    attempts = r.attempts;
    given_up = report.Driver.given_up;
    events;
    digest = r.digest;
    window_commits;
    window_ms;
    latencies;
    failures = !failures;
    layers;
  }
