(* Failover experiments for the replication plane. *)

open Exp_util
module Engine = Afs_sim.Engine
module Trace = Afs_trace.Trace
module Cluster = Afs_cluster.Cluster
module Replica = Afs_replica.Replica
module Faults = Afs_cluster.Faults
module Page = Afs_core.Page
module Store = Afs_core.Store
module Stats = Afs_util.Stats

(* R1 — availability, replication lag and zero loss across a primary
   kill. A deterministic Faults schedule crashes one shard's primary
   mid-load and promotes its replica; the full event trace doubles as the
   safety oracle: every commit-time test-and-set the killed shard won
   before the kill must name a block that is still readable — with its
   commit reference set — on the promoted store. Availability is read
   off the same trace as committed transactions per 100 ms window. *)
let r1 () =
  banner "r1-failover" "Availability, lag and zero loss across a primary kill"
    "§3.1: clients do not wait for a restore — they use another server";
  let open Afs_workload in
  let shards = 4 and replicas = 1 in
  let kill_shard = 2 and kill_ms = 3_000.0 and failover_ms = 25.0 in
  let duration_ms = 8_000.0 in
  let window_ms = 100.0 in
  let shape = { Workload.small_updates with nfiles = 32; pages_per_file = 8 } in
  let engine = Engine.create () in
  let events = ref [] in
  let trace =
    Trace.stream ~now:(fun () -> Engine.now engine) (fun e -> events := e :: !events)
  in
  let cluster = Cluster.create ~latency_ms:2.0 ~replicas ~trace engine ~shards in
  let faults = Faults.create cluster in
  Faults.run faults
    [ Faults.At (kill_ms, Faults.Fail_over { shard = kill_shard; after_ms = failover_ms }) ]
    ignore;
  let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
  let config =
    { Driver.default_config with clients = 16; duration_ms; think_ms = 10.0 }
  in
  let report =
    Driver.run engine config
      (Sut.afs_cluster (Afs_cluster.Cluster_client.connect cluster) ~files)
      ~gen:(Workload.make shape)
  in
  (match Faults.fired faults with
  | [ { outcome = Ok _; _ } ] -> ()
  | [ { outcome = Error e; _ } ] -> failwith ("r1-failover: " ^ e)
  | _ -> failwith "r1-failover: the kill never fired");
  let events = List.rev !events in

  (* Span parentage, for attributing points to the shard whose commit
     span encloses them. *)
  let spans = Hashtbl.create 4096 in
  List.iter
    (function
      | Trace.Span_open { id; parent; kind; label; _ } ->
          Hashtbl.replace spans id (parent, kind, label)
      | _ -> ())
    events;
  let rec commit_label span =
    match Hashtbl.find_opt spans span with
    | None -> None
    | Some (parent, kind, label) ->
        if kind = "commit" then Some label else commit_label parent
  in

  (* The zero-loss oracle: every test-and-set the killed shard won before
     the kill names a base version block; after promotion that block must
     still read — from the promoted store — as a page with its commit
     reference set. *)
  let promoted_store =
    Afs_core.Pagestore.store
      (Afs_core.Server.pagestore (Afs_cluster.Shard.server (Cluster.shard cluster kill_shard)))
  in
  let killed_name = Printf.sprintf "shard-%d" kill_shard in
  let won_before_kill = ref 0 and lost = ref 0 in
  List.iter
    (function
      | Trace.Point
          { at_ms; span; payload = Trace.Test_and_set { block; won = true }; _ }
        when at_ms < kill_ms && commit_label span = Some killed_name -> (
          incr won_before_kill;
          match promoted_store.Store.read block with
          | Error _ -> incr lost
          | Ok image -> (
              match Page.decode image with
              | Error _ -> incr lost
              | Ok page ->
                  if page.Page.header.Page.commit_ref = None then incr lost))
      | _ -> ())
    events;

  (* Availability: committed transactions per window, cluster-wide, read
     off the commit-outcome points. *)
  let nwindows = int_of_float (duration_ms /. window_ms) in
  let per_window = Array.make nwindows 0 in
  List.iter
    (function
      | Trace.Point { at_ms; payload = Trace.Commit_outcome { outcome; _ }; _ }
        when outcome = "fastpath" || outcome = "merged" ->
          let w = int_of_float (at_ms /. window_ms) in
          if w >= 0 && w < nwindows then per_window.(w) <- per_window.(w) + 1
      | _ -> ())
    events;
  let idle = Array.fold_left (fun n c -> if c = 0 then n + 1 else n) 0 per_window in
  let availability = 100.0 *. float_of_int (nwindows - idle) /. float_of_int nwindows in
  let kill_w = int_of_float (kill_ms /. window_ms) in
  let around lo hi =
    let t = ref 0 and n = ref 0 in
    for w = max 0 lo to min (nwindows - 1) hi do
      t := !t + per_window.(w);
      incr n
    done;
    float_of_int !t /. float_of_int (max 1 !n)
  in
  let before = around (kill_w - 10) (kill_w - 1) in
  let blackout = around kill_w (kill_w + 9) in
  let after = around (kill_w + 10) (kill_w + 19) in

  (* Replication lag, pooled over every surviving replica. *)
  let lag =
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc r -> Stats.Histogram.merge acc (Replica.lag_histogram r))
          acc
          (Cluster.replicas_of cluster i))
      (Stats.Histogram.create ())
      (List.init shards Fun.id)
  in
  let counters = Cluster.counters cluster in
  let get = Stats.Counter.get counters in

  table
    [ "phase"; "commits/100ms" ]
    [
      [ "steady (1s before kill)"; f2 before ];
      [ "kill + failover (1s)"; f2 blackout ];
      [ "recovered (next 1s)"; f2 after ];
    ];
  table
    [ "metric"; "value" ]
    [
      [ "committed"; string_of_int report.Driver.committed ];
      [ "given up"; string_of_int report.Driver.given_up ];
      [ "availability (% windows with a commit)"; f1 availability ];
      [ "test-and-sets won on killed shard pre-kill"; string_of_int !won_before_kill ];
      [ "of those lost after promotion"; string_of_int !lost ];
      [ "batches shipped"; string_of_int (get "replica.shipped") ];
      [ "batches applied"; string_of_int (get "replica.applied") ];
      [ "fenced publishes"; string_of_int (get "replica.fenced") ];
      [ "replication lag p50 (ms)"; f2 (Stats.Histogram.percentile lag 0.5) ];
      [ "replication lag p95 (ms)"; f2 (Stats.Histogram.percentile lag 0.95) ];
      [ "replication lag max (ms)"; f2 (Stats.Histogram.percentile lag 1.0) ];
    ];
  note "the commit stream is fed synchronously at publish, applied one interval later;";
  note "surviving shards ride out the kill (%d of %d windows idle) and all %d \
        transactions the killed shard committed pre-kill survive promotion."
    idle nwindows !won_before_kill;
  if !lost > 0 then failwith "r1-failover: committed transactions lost across failover";
  if !won_before_kill = 0 then failwith "r1-failover: oracle vacuous (no pre-kill commits)";

  metric_i "r1-failover" "committed" report.Driver.committed;
  metric_i "r1-failover" "given_up" report.Driver.given_up;
  metric "r1-failover" "availability_pct" availability;
  metric_i "r1-failover" "idle_windows" idle;
  metric_i "r1-failover" "won_before_kill" !won_before_kill;
  metric_i "r1-failover" "lost_after_promotion" !lost;
  metric_i "r1-failover" "promotions" (get "promotions");
  metric_i "r1-failover" "shipped" (get "replica.shipped");
  metric "r1-failover" "lag_p50_ms" (Stats.Histogram.percentile lag 0.5);
  metric "r1-failover" "lag_p95_ms" (Stats.Histogram.percentile lag 0.95)
