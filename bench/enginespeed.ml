(* Raw engine speed: wall-clock throughput of the simulated stack.

   Unlike every other experiment, the headline numbers here are
   wall-clock (events and commits per host second) and therefore
   machine-dependent: they are published under the ".reported" suffix
   the baseline checker ignores. The outcome metrics (committed,
   attempts, events executed) are deterministic and baseline-checked
   like everything else, which pins the *workload* while the wall-clock
   tracks the implementation.

   M2 — a sustained OCC workload through the full remote stack, sized so
   the page codec and allocator dominate: the bench that justifies the
   encode-once / decoded-cache hot path work (EXPERIMENTS.md M2). Its
   deterministic request and redo counts pin the message shape of the
   shared OCC client loop: two messages for the first attempt, one per
   redo. A return to one request per page operation moves the requests
   far past the baseline tolerance, and a redo path that silently stops
   being used moves the redos to zero.

   A6 — the million-transaction scenario: 1M transactions offered by
   10k Zipf clients against a 4-shard cluster, with the collector run
   synchronously every few tens of thousands of commits so the store
   stays bounded. Outcomes must be bit-identical with tracing off and
   on (the a4 observer argument at three orders of magnitude more
   events), and the host GC's allocation totals are published as
   reported-only metrics. *)

open Exp_util
module Engine = Afs_sim.Engine
module Server = Afs_core.Server
module Store = Afs_core.Store
module Page = Afs_core.Page
module Core_gc = Afs_core.Gc
module Remote = Afs_rpc.Remote
module Cluster = Afs_cluster.Cluster
module Trace = Afs_trace.Trace
open Afs_workload

let wall_ms f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1_000_000.0)

let per_second count ms = if ms <= 0.0 then 0.0 else float_of_int count /. (ms /. 1000.0)

(* M2 — fixed-duration closed loop over one remote server. The payload is
   large enough (1 KiB) that page encode/decode is the dominant per-event
   cost, which is exactly the path this bench exists to watch. *)
let m2 () =
  banner "m2-engine-speed" "Wall-clock events/s and commits/s of the hot path"
    "ROADMAP: raw engine speed — the simulator must be limited by the protocol";
  let shape =
    {
      Workload.nfiles = 48;
      pages_per_file = 16;
      read_pages = 2;
      rmw_pages = 2;
      payload_bytes = 1024;
      file_theta = 0.6;
      page_theta = 0.6;
    }
  in
  let config =
    {
      Driver.default_config with
      clients = 32;
      duration_ms = 60_000.0;
      think_ms = 2.0;
    }
  in
  (* Low latency and a long run: the serialised server stays saturated for
     60 simulated seconds, so the host-time sample is large enough for the
     before/after comparison to be meaningful. *)
  let run () =
    let engine = Engine.create () in
    (* Store writes are the write-amplification gate: a commit writes its
       own pages and its reference in one batch, and a doomed attempt
       writes nothing. *)
    let store, io = Store.counting (Store.memory ()) in
    let srv = Server.create store in
    let files = ok (Workload.setup_pages srv shape ~initial:(Bytes.make 1024 '0')) in
    let host = Remote.host ~latency_ms:0.5 engine ~name:"afs" srv in
    let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
    let encodes0 = Page.fresh_encodes () and _, writes0 = io () in
    let words0 = Stdlib.Gc.minor_words () in
    let report, ms = wall_ms (fun () -> Driver.run engine config sut ~gen:(Workload.make shape)) in
    let words = Stdlib.Gc.minor_words () -. words0 in
    let _, writes1 = io () in
    ( report,
      ms,
      words,
      Engine.events_executed engine,
      Page.fresh_encodes () - encodes0,
      writes1 - writes0,
      Remote.requests_served host,
      Remote.redos_served host )
  in
  (* Three independent repeats. The deterministic outcomes must agree
     exactly — each repeat re-checks that the run is a pure function of
     the seed — and the fastest wall time is the one reported. The
     minimum of three repeats in one process does not remove the drift
     between processes: back-to-back runs of the same tree ranged from
     2281 to 2908 ms on a 2-vCPU VM. So this figure is informational; a
     host regression shows only in alternating before/after pairs run as
     separate processes (afsbench). The minor words a run allocates, by
     contrast, are a pure function of the code and the seed, the same in
     every repeat and process, so they are gated like the outcomes. *)
  let report, ms1, words, events, encodes, writes, requests, redos = run () in
  let r2, ms2, words2, ev2, enc2, wr2, rq2, rd2 = run () in
  let r3, ms3, words3, ev3, enc3, wr3, rq3, rd3 = run () in
  let repeats_identical =
    report.Driver.committed = r2.Driver.committed
    && report.Driver.committed = r3.Driver.committed
    && report.Driver.attempts = r2.Driver.attempts
    && report.Driver.attempts = r3.Driver.attempts
    && events = ev2 && events = ev3 && encodes = enc2 && encodes = enc3
    && writes = wr2 && writes = wr3 && requests = rq2 && requests = rq3
    && redos = rd2 && redos = rd3 && words = words2 && words = words3
  in
  let words_per_commit = words /. float_of_int (max 1 report.Driver.committed) in
  let ms = Float.min ms1 (Float.min ms2 ms3) in
  table
    [ "metric"; "value" ]
    [
      [ "committed (deterministic)"; string_of_int report.Driver.committed ];
      [ "attempts (deterministic)"; string_of_int report.Driver.attempts ];
      [ "events executed (deterministic)"; string_of_int events ];
      [ "fresh page encodes (deterministic)"; string_of_int encodes ];
      [ "store writes (deterministic)"; string_of_int writes ];
      [ "requests served (deterministic)"; string_of_int requests ];
      [ "redos served (deterministic)"; string_of_int redos ];
      [ "minor words per commit (deterministic)"; f1 words_per_commit ];
      [ "repeats identical (deterministic)"; (if repeats_identical then "yes" else "NO (bug!)") ];
      [ "wall ms (reported, min of 3)"; f1 ms ];
      [ "events/s wall (reported)"; f1 (per_second events ms) ];
      [ "commits/s wall (reported)"; f1 (per_second report.Driver.committed ms) ];
    ];
  metric_i "m2-engine-speed" "committed" report.Driver.committed;
  metric_i "m2-engine-speed" "attempts" report.Driver.attempts;
  metric_i "m2-engine-speed" "given_up" report.Driver.given_up;
  metric_i "m2-engine-speed" "events" events;
  metric_i "m2-engine-speed" "page_encodes" encodes;
  metric_i "m2-engine-speed" "store_writes" writes;
  metric_i "m2-engine-speed" "requests" requests;
  metric_i "m2-engine-speed" "redos" redos;
  metric_i "m2-engine-speed" "repeats_identical" (if repeats_identical then 1 else 0);
  metric "m2-engine-speed" "minor_words_per_commit" words_per_commit;
  metric "m2-engine-speed" "wall_ms.reported" ms;
  metric "m2-engine-speed" "events_per_s.reported" (per_second events ms);
  metric "m2-engine-speed" "commits_per_s.reported" (per_second report.Driver.committed ms);
  note "wall-clock numbers are machine-dependent (reported, never baseline-checked);";
  note "the deterministic outcome metrics pin the workload they were measured on"

(* A6 — the million-transaction run. Count-driven (the driver stops the
   clients after [max_txns] completed transactions), so the figure "1M
   transactions" is exact and seed-stable rather than a duration
   artefact. The collector runs synchronously on every shard each
   [gc_stride] transactions; retention is generous so no in-flight
   transaction can lose its base version.

   The cluster must be *stable* for this to finish in CI-tolerable time:
   a serialised shard is occupied for proc + storage + reply latency per
   request, so WAN-class latency (2 ms) caps four shards at ~450 txn/s
   against ~100k offered — congestion collapse, sim queues growing
   without bound and every OCC window stretching until almost every
   commit conflicts. LAN-class numbers (0.25 ms latency, 0.05 ms proc)
   and an 8 s mean think time hold utilisation near 50%, where windows
   stay at a few milliseconds and retries are rare (~0.1%).

   A6_TXNS / A6_CLIENTS environment overrides shrink the run for local
   bisection; baseline metrics are only valid at the defaults. *)
let a6 () =
  banner "a6-million" "1M transactions, 10k Zipf clients, 4 shards, GC interleaved"
    "ROADMAP: million-transaction runs as the standard bench size";
  let shards = 4 in
  let max_txns =
    match Sys.getenv_opt "A6_TXNS" with Some v -> int_of_string v | None -> 1_000_000
  in
  let gc_stride = 100_000 in
  let shape =
    {
      Workload.nfiles = 4096;
      pages_per_file = 8;
      read_pages = 1;
      rmw_pages = 1;
      payload_bytes = 48;
      file_theta = 0.6;
      page_theta = 0.0;
    }
  in
  let config =
    {
      Driver.default_config with
      clients =
        (match Sys.getenv_opt "A6_CLIENTS" with Some v -> int_of_string v | None -> 10_000);
      duration_ms = Float.max_float;
      think_ms = 8_000.0;
      max_txns;
    }
  in
  (* Retention is sized to the in-flight window: a transaction holds its
     basis for a handful of milliseconds while commits arrive at ~1.2/ms,
     so retaining 16 committed versions per file guarantees no attempt
     ever loses its basis to the collector while keeping the store (and
     the collector's walks) small. *)
  let gc_policy = { Core_gc.retain_committed = 16; reshare = false } in
  let run tracing =
    let engine = Engine.create () in
    let tr = if tracing then Trace.ring ~now:(fun () -> Engine.now engine) () else Trace.null in
    Engine.set_trace engine tr;
    let cluster = Cluster.create ~trace:tr ~latency_ms:0.25 ~proc_ms:0.05 engine ~shards in
    let files = ok (Workload.setup_cluster cluster shape ~initial:(Bytes.make 48 '0')) in
    let sut = Sut.afs_cluster (Afs_cluster.Cluster_client.connect cluster) ~files in
    let servers =
      List.map Afs_cluster.Shard.server (Cluster.shards cluster)
    in
    let collected = ref 0 in
    let on_progress done_txns =
      if done_txns mod gc_stride = 0 then begin
        List.iter
          (fun srv ->
            match Core_gc.collect ~policy:gc_policy srv with
            | Ok stats -> collected := !collected + stats.Core_gc.blocks_freed
            | Error _ -> ())
          servers
      end
    in
    let report, ms =
      wall_ms (fun () ->
          Driver.run engine config sut ~gen:(Workload.make shape) ~on_progress)
    in
    (report, ms, Engine.events_executed engine, !collected)
  in
  let report, ms, events, freed = run false in
  let traced_report, traced_ms, traced_events, _ = run true in
  let identical =
    report.Driver.committed = traced_report.Driver.committed
    && report.Driver.given_up = traced_report.Driver.given_up
    && report.Driver.attempts = traced_report.Driver.attempts
    && report.Driver.mean_latency_ms = traced_report.Driver.mean_latency_ms
    && report.Driver.p50_ms = traced_report.Driver.p50_ms
    && report.Driver.p95_ms = traced_report.Driver.p95_ms
    && report.Driver.p99_ms = traced_report.Driver.p99_ms
    && report.Driver.retry_histogram = traced_report.Driver.retry_histogram
    && events = traced_events
  in
  let gc = Stdlib.Gc.stat () in
  table
    [ "metric"; "traces off"; "traces on" ]
    [
      [ "committed"; string_of_int report.Driver.committed;
        string_of_int traced_report.Driver.committed ];
      [ "given up"; string_of_int report.Driver.given_up;
        string_of_int traced_report.Driver.given_up ];
      [ "attempts"; string_of_int report.Driver.attempts;
        string_of_int traced_report.Driver.attempts ];
      [ "events executed"; string_of_int events; string_of_int traced_events ];
      [ "elapsed sim ms"; f1 report.Driver.elapsed_ms; f1 traced_report.Driver.elapsed_ms ];
      [ "wall ms (reported)"; f1 ms; f1 traced_ms ];
      [ "commits/s wall (reported)"; f1 (per_second report.Driver.committed ms);
        f1 (per_second traced_report.Driver.committed traced_ms) ];
    ];
  metric_i "a6-million" "committed" report.Driver.committed;
  metric_i "a6-million" "given_up" report.Driver.given_up;
  metric_i "a6-million" "attempts" report.Driver.attempts;
  metric_i "a6-million" "events" events;
  metric_i "a6-million" "gc_blocks_freed" freed;
  metric_i "a6-million" "outcomes_identical" (if identical then 1 else 0);
  metric "a6-million" "wall_ms.reported" ms;
  metric "a6-million" "commits_per_s.reported" (per_second report.Driver.committed ms);
  metric "a6-million" "events_per_s.reported" (per_second events ms);
  metric "a6-million" "minor_words.reported" gc.Stdlib.Gc.minor_words;
  metric "a6-million" "major_words.reported" gc.Stdlib.Gc.major_words;
  note "traces-off and traces-on outcomes are %s; the host GC totals are reported"
    (if identical then "bit-identical" else "DIFFERENT (bug!)");
  note "only to watch allocation discipline, never baseline-checked"
