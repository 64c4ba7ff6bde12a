(* The replication plane: commit-stream shipping, asynchronous apply,
   byte-identity of replica stores, the epoch register as fencing token,
   and — the property failover hinges on — that killing a primary
   mid-load never loses a committed transaction. *)

open Afs_cluster
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng
module Stats = Afs_util.Stats
module P = Afs_util.Pagepath
module Store = Afs_core.Store
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Rpc = Afs_rpc.Rpc
module Replica = Afs_replica.Replica
module Trace = Afs_trace.Trace

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

let digest store =
  match Replica.store_digest store with
  | Ok d -> d
  | Error e -> Alcotest.failf "digest failed: %s" (Errors.to_string e)

(* The store shard [i]'s primary runs on, as its page store holds it. *)
let shard_store cluster i =
  Afs_core.Pagestore.store (Server.pagestore (Shard.server (Cluster.shard cluster i)))

(* {2 Shipping and watermarks} *)

(* The smallest full pipeline: a server over a capture store, one replica
   on the stream. Feeding is synchronous with the commit; application
   happens one interval later; after a flush + drain the two stores are
   byte-identical. *)
let test_ship_apply_watermarks () =
  in_sim (fun engine ->
      let counters = Stats.Counter.create () in
      let primary = Store.memory () in
      let source = Replica.Source.create ~counters engine primary in
      let reg = Replica.Source.register source in
      let r = Replica.create ~counters engine ~shard:0 ~reg () in
      Replica.Source.attach source r;
      let server =
        Server.create ~publish_tap:(Replica.Source.tap source)
          (Replica.Source.capture_store source)
      in
      let f = ok (Server.create_file server ~data:(bytes "root") ()) in
      let v = ok (Server.create_version server f) in
      ignore
        (ok (Server.insert_page server v ~parent:P.root ~index:0 ~data:(bytes "a") ()));
      ok (Server.commit server v);
      Alcotest.(check int) "one batch cut" 1 (Replica.Source.shipped_seq source);
      Alcotest.(check int) "fed synchronously" 1 (Replica.shipped_seq r);
      (* Application is asynchronous: a replica is *behind* until its
         apply event fires, one interval after the feed. *)
      Proc.delay 20.0;
      Alcotest.(check int) "applied" 1 (Replica.applied_seq r);
      Alcotest.(check int) "queue drained" 0 (Replica.queued r);
      Alcotest.(check bool)
        "lag recorded" true
        (Stats.Histogram.count (Replica.lag_histogram r) > 0);
      Replica.Source.flush source;
      Replica.drain r;
      Alcotest.(check bool)
        "byte-identical stores" true
        (digest primary = digest (Replica.store r)))

(* A replica whose store is a stable pair: shipped batches coalesce their
   writes through [write_batch], so the companion hop is paid per run of
   writes, and the result is still byte-identical to the primary. The
   pair's allocator is seeded (blocks come out in a shuffled order), so
   frontier alignment means primary and replica run same-seed pairs. *)
let test_replica_on_stable_pair () =
  in_sim (fun engine ->
      let pair_store () =
        Store.of_stable_pair
          (Afs_stable.Stable_pair.create ~seed:11 ~media:Afs_disk.Media.electronic
             ~blocks:512 ~block_size:32768 ())
      in
      let counters = Stats.Counter.create () in
      let primary = pair_store () in
      let source = Replica.Source.create ~counters engine primary in
      let reg = Replica.Source.register source in
      let r = Replica.create ~counters ~store:(pair_store ()) engine ~shard:0 ~reg () in
      Replica.Source.attach source r;
      let server =
        Server.create ~publish_tap:(Replica.Source.tap source)
          (Replica.Source.capture_store source)
      in
      let f = ok (Server.create_file server ~data:(bytes "root") ()) in
      for i = 0 to 3 do
        let v = ok (Server.create_version server f) in
        ignore
          (ok
             (Server.insert_page server v ~parent:P.root ~index:i
                ~data:(bytes (Printf.sprintf "page %d" i))
                ()));
        ok (Server.commit server v)
      done;
      Replica.Source.flush source;
      Replica.drain r;
      Alcotest.(check (option string)) "replica store healthy" None (Replica.failure r);
      Alcotest.(check bool)
        "stable replica byte-identical" true
        (digest primary = digest (Replica.store r)))

(* Each publish ships once. The gate cuts a publish's pages and
   references before the page store writes them, so the replica applies
   exactly as many block writes as the primary performs. *)
let test_publish_ships_once () =
  in_sim (fun engine ->
      let primary, primary_io = Store.counting (Store.memory ()) in
      let replica, replica_io = Store.counting (Store.memory ()) in
      let counters = Stats.Counter.create () in
      let source = Replica.Source.create ~counters engine primary in
      let reg = Replica.Source.register source in
      let r = Replica.create ~counters ~store:replica engine ~shard:0 ~reg () in
      Replica.Source.attach source r;
      let server =
        Server.create ~publish_tap:(Replica.Source.tap source)
          (Replica.Source.capture_store source)
      in
      let f = ok (Server.create_file server ~data:(bytes "root") ()) in
      for i = 0 to 19 do
        let v = ok (Server.create_version server f) in
        ignore
          (ok
             (Server.insert_page server v ~parent:P.root ~index:i
                ~data:(bytes (Printf.sprintf "page %d" i))
                ()));
        ok (Server.commit server v)
      done;
      Replica.Source.flush source;
      Replica.drain r;
      let _, primary_writes = primary_io () and _, replica_writes = replica_io () in
      Alcotest.(check bool) "the primary wrote" true (primary_writes > 0);
      Alcotest.(check int) "replica writes = primary writes" primary_writes replica_writes;
      Alcotest.(check bool)
        "byte-identical stores" true
        (digest primary = digest (Replica.store r)))

(* {2 Byte-identity under load (property)} *)

(* Whatever the workload mix, client count or shard count, every replica
   store equals its primary's store byte for byte once the stream is
   flushed and drained. *)
let prop_replica_byte_identity =
  QCheck2.Test.make ~name:"replicas byte-identical to primaries after drain" ~count:8
    ~print:
      QCheck2.Print.(
        quad int (pair int int) (pair int float) (pair float float) |> fun p x -> p x)
    QCheck2.Gen.(
      quad (int_bound 9999)
        (pair (int_range 1 3) (int_range 1 2))
        (pair (int_range 2 6) (float_range 0.0 0.9))
        (pair (float_range 300.0 900.0) (float_range 5.0 15.0)))
    (fun (seed, (shards, replicas), (clients, theta), (duration_ms, think_ms)) ->
      let open Afs_workload in
      let shape =
        {
          Workload.small_updates with
          nfiles = 8;
          pages_per_file = 6;
          file_theta = theta;
          page_theta = theta;
        }
      in
      let engine = Engine.create () in
      let cluster = Cluster.create ~latency_ms:1.0 ~replicas engine ~shards in
      let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
      let config =
        { Driver.default_config with clients; duration_ms; think_ms; seed }
      in
      ignore
        (Driver.run engine config
           (Sut.afs_cluster (Cluster_client.connect cluster) ~files)
           ~gen:(Workload.make shape));
      Cluster.flush_replication cluster;
      List.for_all
        (fun i ->
          match Cluster.replication_source cluster i with
          | None -> false
          | Some _ ->
              let primary = digest (shard_store cluster i) in
              List.for_all
                (fun r ->
                  Replica.failure r = None && digest (Replica.store r) = primary)
                (Cluster.replicas_of cluster i))
        (List.init shards Fun.id))

(* The store boundary's ownership rule, guarded end to end: images are
   shared, never copied, so a writer or reader that changed one in place
   would corrupt a store, a replica or a cached page's memo. A mixed
   workload runs over memory stores, with group commit, the collector
   and one replica per shard. Halfway through, a copy of every image is
   kept; at the end, every image kept still equals its copy, some are
   still the very bytes their stores hold, and every replica matches its
   primary. *)
let test_shared_images_never_change () =
  let open Afs_workload in
  let shape =
    { Workload.small_updates with nfiles = 16; pages_per_file = 8; page_theta = 0.9 }
  in
  let engine = Engine.create () in
  let cluster =
    Cluster.create ~latency_ms:1.0 ~group_commit:4 ~replicas:1 engine ~shards:2
  in
  let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
  let duration_ms = 1_200.0 in
  let stores =
    List.concat_map
      (fun i ->
        (match Cluster.replication_source cluster i with
        | Some _ -> [ shard_store cluster i ]
        | None -> Alcotest.fail "shard without a replication source")
        @ List.map Replica.store (Cluster.replicas_of cluster i))
      [ 0; 1 ]
  in
  let snapshot = ref [] and freed = ref 0 in
  ignore
    (Proc.spawn engine (fun () ->
         Proc.delay (duration_ms /. 2.);
         snapshot :=
           List.concat_map
             (fun (store : Store.t) ->
               List.filter_map
                 (fun b ->
                   match store.Store.read b with
                   | Ok image -> Some (store, b, image, Bytes.copy (Helpers.bytes_of image))
                   | Error _ -> None)
                 (Helpers.ok_str (store.Store.list_blocks ())))
             stores));
  ignore
    (Proc.spawn engine (fun () ->
         while Engine.now engine < duration_ms do
           Proc.delay 100.0;
           List.iter
             (fun shard ->
               let stats = ok (Afs_core.Gc.collect (Shard.server shard)) in
               freed := !freed + stats.Afs_core.Gc.blocks_freed)
             (Cluster.shards cluster)
         done));
  let report =
    Driver.run engine
      { Driver.default_config with clients = 6; duration_ms; think_ms = 5.0 }
      (Sut.afs_cluster (Cluster_client.connect cluster) ~files)
      ~gen:(Workload.make shape)
  in
  Alcotest.(check bool) "the workload committed" true (report.Driver.committed > 100);
  Alcotest.(check bool) "the collector freed blocks" true (!freed > 0);
  Alcotest.(check bool) "commits were batched" true
    (List.exists
       (fun shard ->
         Stats.Counter.get (Server.counters (Shard.server shard)) "commits.batches" > 0)
       (Cluster.shards cluster));
  let unchanged =
    List.fold_left
      (fun n ((store : Store.t), b, image, copy) ->
        if not (Bytes.equal (Helpers.bytes_of image) copy) then
          Alcotest.failf "block %d's image changed" b;
        match store.Store.read b with Ok now when now == image -> n + 1 | Ok _ | Error _ -> n)
      0 !snapshot
  in
  Alcotest.(check bool) "images shared across the run" true (unchanged > 0);
  Cluster.flush_replication cluster;
  List.iter
    (fun i ->
      match Cluster.replication_source cluster i with
      | None -> ()
      | Some _ ->
          List.iter
            (fun r ->
              Alcotest.(check bool) "replica matches its primary" true
                (digest (Replica.store r) = digest (shard_store cluster i)))
            (Cluster.replicas_of cluster i))
    [ 0; 1 ]

(* {2 Fencing} *)

(* The regression the design note promises: a deposed primary's delayed
   publish must lose the test-and-set — the transaction is reported
   aborted (Conflict), never silently lost, and never committed over the
   promoted state. *)
let test_fencing_deposed_primary_aborts () =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms:1.0 ~replicas:1 engine ~shards:1 in
      let client = Cluster_client.connect cluster in
      let f = ok (Cluster_client.create_file ~data:(bytes "v0") client) in
      ok (Batch_ops.update client f [ Afs_txn.Txn.Write (P.root, bytes "before") ]);
      let old_server = Shard.server (Cluster.shard cluster 0) in
      (* The delayed publish: a version opened and written on the primary
         that is about to be deposed, its commit still in flight. *)
      let v = ok (Server.create_version old_server f) in
      ok (Server.write_page old_server v P.root (bytes "stale"));
      let p = ok (Cluster.promote cluster 0) in
      Alcotest.(check int) "epoch advanced" 1 p.Cluster.epoch;
      (match Server.commit old_server v with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "deposed primary committed past the fence"
      | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e));
      Alcotest.(check bool)
        "fence counted" true
        (Stats.Counter.get (Cluster.counters cluster) "replica.fenced" >= 1);
      (* Aborted, not lost, not applied: the promoted primary serves the
         last committed state, through the client's rebuilt connection. *)
      Helpers.check_bytes "promoted state intact" "before"
        (ok (Batch_ops.read_current client f P.root));
      (* A second promotion attempt against the old epoch loses the
         test-and-set the same way. *)
      (match Cluster.promote cluster 0 with
      | Error (Errors.Store_failure _) -> () (* no replica left: fine *)
      | Ok _ -> Alcotest.fail "promoted with no replica"
      | Error e -> Alcotest.failf "unexpected: %s" (Errors.to_string e));
      (* No replica is left to feed, so the promoted shard has no source
         and its commits ship nothing. *)
      Alcotest.(check bool) "no source" true (Cluster.replication_source cluster 0 = None);
      let shipped () = Stats.Counter.get (Cluster.counters cluster) "replica.shipped" in
      let before = shipped () in
      ok (Batch_ops.update client f [ Afs_txn.Txn.Write (P.root, bytes "after") ]);
      Alcotest.(check int) "nothing shipped" before (shipped ());
      Helpers.check_bytes "the promoted shard commits" "after"
        (ok (Batch_ops.read_current client f P.root)))

(* The register itself: a test-and-set with a stale expected epoch loses
   with Conflict and moves nothing. *)
let test_stale_promotion_loses () =
  in_sim (fun engine ->
      let counters = Stats.Counter.create () in
      let source = Replica.Source.create ~counters engine (Store.memory ()) in
      let reg = Replica.Source.register source in
      let r1 = Replica.create ~counters engine ~shard:0 ~reg () in
      let r2 = Replica.create ~counters engine ~shard:0 ~reg () in
      Replica.Source.attach source r1;
      Replica.Source.attach source r2;
      ok (Replica.promote r1 ~expected_epoch:0);
      Alcotest.(check int) "winner's epoch" 1 (Replica.epoch r1);
      (match Replica.promote r2 ~expected_epoch:0 with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "two primaries promoted from the same epoch"
      | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e));
      Alcotest.(check int) "register unmoved by the loser" 1
        (Replica.register_epoch reg);
      Alcotest.(check bool) "old source fenced" true (Replica.Source.fenced source))

(* {2 Replicas = 0 is exactly the old cluster} *)

let test_replicas_zero_identical () =
  let open Afs_workload in
  let shape = { Workload.small_updates with nfiles = 16; pages_per_file = 8 } in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 1_200.0; think_ms = 10.0 }
  in
  let gen = Workload.make shape in
  let run ~replicas =
    let engine = Engine.create () in
    let cluster = Cluster.create ~latency_ms:2.0 ~replicas engine ~shards:2 in
    let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
    Driver.run engine config (Sut.afs_cluster (Cluster_client.connect cluster) ~files) ~gen
  in
  let plain = run ~replicas:0 in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:2.0 engine ~shards:2 in
  let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
  let default =
    Driver.run engine config (Sut.afs_cluster (Cluster_client.connect cluster) ~files) ~gen
  in
  Alcotest.(check int) "committed" default.Driver.committed plain.Driver.committed;
  Alcotest.(check int) "given up" default.Driver.given_up plain.Driver.given_up;
  Alcotest.(check int) "attempts" default.Driver.attempts plain.Driver.attempts;
  Alcotest.(check (float 0.0))
    "mean" default.Driver.mean_latency_ms plain.Driver.mean_latency_ms;
  Alcotest.(check (float 0.0)) "p50" default.Driver.p50_ms plain.Driver.p50_ms;
  Alcotest.(check (float 0.0)) "p95" default.Driver.p95_ms plain.Driver.p95_ms;
  Alcotest.(check (float 0.0)) "p99" default.Driver.p99_ms plain.Driver.p99_ms;
  Alcotest.(check (list (pair int int)))
    "retry histogram" default.Driver.retry_histogram plain.Driver.retry_histogram

(* {2 The crash schedule: no committed transaction lost} *)

(* A counter page's next value; a page that is no counter stays as it
   is, and the final count shows it. *)
let increment v =
  match int_of_string_opt (Bytes.to_string v) with
  | Some c -> bytes (string_of_int (c + 1))
  | None -> v

(* Writers increment counter pages while a Faults schedule kills shard
   0's primary mid-load and promotes its replica. Every increment whose
   commit was acknowledged must be readable after failover: the final
   counter of each file equals the number of acknowledged commits. *)
let crash_schedule_one_seed seed =
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:1.0 ~replicas:1 engine ~shards:2 in
  let nfiles = 4 in
  let commits = Array.make nfiles 0 in
  let files = ref [||] in
  let _ =
    Proc.spawn engine (fun () ->
        let client = Cluster_client.connect cluster in
        let fs =
          Array.init nfiles (fun _ ->
              ok (Cluster_client.create_file ~data:(bytes "counter") client))
        in
        Array.iter (fun f -> ok (Batch_ops.add_pages client f [ bytes "0" ])) fs;
        files := fs;
        let rng = Xrng.create seed in
        let spawn_joined, join_all = Proc.joinable engine in
        for w = 0 to 3 do
          let wrng = Xrng.split rng in
          ignore
            (spawn_joined (fun () ->
                 for n = 1 to 10 do
                   Proc.delay (Xrng.float wrng 30.0);
                   let fi = (w + n) mod nfiles in
                   let rec attempt tries =
                     if tries > 40 then () (* writer gave up: not acknowledged *)
                     else
                       match
                         Batch_ops.update ~retries:24 client fs.(fi)
                           [ Afs_txn.Txn.Rmw (P.of_list [ 0 ], increment) ]
                       with
                       | Ok () -> commits.(fi) <- commits.(fi) + 1
                       | Error Errors.Conflict -> () (* retries exhausted: no ack *)
                       | Error _ ->
                           (* Dead or deposed primary: back off and redo
                              against whoever owns the shard by then. *)
                           Proc.delay 25.0;
                           attempt (tries + 1)
                   in
                   attempt 0
                 done))
        done;
        join_all ())
  in
  let kill_ms = 150. +. Xrng.float (Xrng.create seed) 3.0 in
  let faults = Faults.create cluster in
  Faults.run faults
    [ Faults.At (kill_ms, Faults.Fail_over { shard = 0; after_ms = 20.0 }) ]
    (fun () -> Engine.run engine);
  Alcotest.(check (list (pair (float 0.0) bool)))
    "one failover, at its time, promoted" [ (kill_ms, true) ]
    (List.map (fun (f : Faults.firing) -> (f.at_ms, Result.is_ok f.outcome)) (Faults.fired faults));
  let fs = !files in
  Alcotest.(check bool) "setup ran" true (Array.length fs = nfiles);
  Array.iteri
    (fun i f ->
      let _, shard = ok (Cluster.shard_of_cap cluster f) in
      let server = Shard.server shard in
      let v = ok (Server.current_version server f) in
      let final = Bytes.to_string (ok (Server.read_page server v (P.of_list [ 0 ]))) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d file %d: acknowledged commits survive failover" seed i)
        (string_of_int commits.(i))
        final)
    fs

let test_crash_schedule_never_loses_commits () =
  List.iter crash_schedule_one_seed [ 1; 7; 42; 1234 ]

(* {2 Faults: determinism} *)

(* The same schedule fires the same entries at the same virtual times,
   with the same outcomes, and an [At] entry fires exactly on time. *)
let test_faults_deterministic () =
  let schedule =
    Faults.
      [ At (10.0, Crash_shard { shard = 0; down_ms = 5.0 });
        At (5.0, Crash_shard { shard = 1; down_ms = 2.5 });
        At (12.5, Fail_over { shard = 1; after_ms = 20.0 }) ]
  in
  let run () =
    let engine = Engine.create () in
    let faults = Faults.create (Cluster.create ~latency_ms:1.0 ~replicas:1 engine ~shards:2) in
    Faults.run faults schedule (fun () -> Engine.run engine);
    Faults.fired faults
  in
  let first = run () in
  Alcotest.(check bool) "same entries, times and outcomes" true (first = run ());
  Alcotest.(check (list (float 0.0)))
    "each fires exactly on time" [ 5.0; 10.0; 12.5 ]
    (List.sort Float.compare (List.map (fun (f : Faults.firing) -> f.at_ms) first))

(* A trace-keyed kill: two processes emit the same events on one tap;
   only the one that armed the kill dies, inside the emitting call, at
   the first event its matcher accepts, and the kill is recorded as a
   firing. Once [run] returns, nothing it armed fires. *)
let test_faults_kill_at_event () =
  let engine = Engine.create () in
  let faults = Faults.create (Cluster.create engine ~shards:1) in
  let tap = Faults.tap faults in
  let reached = Hashtbl.create 4 in
  let steps name =
    for i = 0 to 3 do
      Hashtbl.replace reached name i;
      ignore (Trace.open_span tap ~kind:"step" ~label:(string_of_int i) () : int);
      Proc.delay 1.0
    done
  in
  let killed = ref false and after = ref false in
  let victim = Faults.Kill_at (1, Faults.Span ("step", Some "2")) in
  (* The bystander runs first at every step, so it meets label "2"
     first: an unscoped kill would take it instead. *)
  let _ = Proc.spawn engine (fun () -> steps "bystander") in
  let _ =
    Proc.spawn engine (fun () ->
        (match Faults.run faults [ victim ] (fun () -> steps "victim") with
        | exception Proc.Killed -> killed := true
        | () -> ());
        (* Armed for a fifth event that comes only after [run] returned. *)
        Faults.run faults [ Faults.Kill_at (5, Faults.Any) ] (fun () -> steps "armed");
        steps "again";
        after := true)
  in
  Engine.run engine;
  Alcotest.(check bool) "the arming process died" true !killed;
  Alcotest.(check (option int)) "at the event" (Some 2) (Hashtbl.find_opt reached "victim");
  Alcotest.(check (option int))
    "bystander untouched" (Some 3) (Hashtbl.find_opt reached "bystander");
  Alcotest.(check bool) "disarmed once [run] returned" true !after;
  Alcotest.(check bool) "recorded as a firing" true
    (Faults.fired faults = [ { entry = victim; at_ms = 2.0; outcome = Ok "killed" } ]);
  (* An invalid entry fails the whole schedule before any entry of it
     is on the engine's queue. *)
  Alcotest.check_raises "a count below 1"
    (Invalid_argument "Faults.run: #0 any -> kill: count below 1") (fun () ->
      Faults.run faults
        Faults.[ At (1.0, Crash_shard { shard = 0; down_ms = 1.0 }); Kill_at (0, Any) ]
        ignore);
  Engine.run engine;
  Alcotest.(check int) "nothing scheduled" 1 (List.length (Faults.fired faults))

(* {2 The replica as a remote service} *)

let test_rpc_promote () =
  in_sim (fun engine ->
      let tr = Trace.ring ~now:(fun () -> Engine.now engine) () in
      Engine.set_trace engine tr;
      let counters = Stats.Counter.create () in
      let source = Replica.Source.create ~counters engine (Store.memory ()) in
      let reg = Replica.Source.register source in
      let r = Replica.create ~counters engine ~shard:0 ~reg () in
      Replica.Source.attach source r;
      let server =
        Server.create ~publish_tap:(Replica.Source.tap source)
          (Replica.Source.capture_store source)
      in
      let f = ok (Server.create_file server ~data:(bytes "root") ()) in
      let v = ok (Server.create_version server f) in
      ok (Server.write_page server v P.root (bytes "new"));
      ok (Server.commit server v);
      let rhost = Replica.host ~latency_ms:1.0 engine ~name:"r0" r in
      (* The request lands before the feed's apply event: the promotion
         drains the queue, and answers the watermark that leaves. *)
      (match Rpc.call rhost 0 with
      | Ok (Ok applied) -> Alcotest.(check int) "applied watermark" 1 applied
      | Ok (Error e) -> Alcotest.failf "promotion refused: %s" (Errors.to_string e)
      | Error e -> Alcotest.failf "promotion unanswered: %a" Rpc.pp_call_error e);
      Alcotest.(check int) "the epoch moved" 1 (Replica.epoch r);
      (match Rpc.call rhost 0 with
      | Ok (Error Errors.Conflict) -> ()
      | _ -> Alcotest.fail "stale promotion won");
      Alcotest.(check int) "both requests labelled promote" 2
        (List.length
           (List.filter
              (function
                | Trace.Point { payload = Trace.Rpc_recv { op = "promote"; _ }; _ } -> true
                | _ -> false)
              (Trace.events tr))))

let () =
  Alcotest.run "replica"
    [
      ( "shipping",
        [
          quick "ship, apply, watermarks, byte identity" test_ship_apply_watermarks;
          quick "stable-pair replica store" test_replica_on_stable_pair;
          QCheck_alcotest.to_alcotest prop_replica_byte_identity;
          quick "each publish ships once" test_publish_ships_once;
          quick "shared images never change" test_shared_images_never_change;
        ] );
      ( "fencing",
        [
          quick "deposed primary's publish aborts, not lost"
            test_fencing_deposed_primary_aborts;
          quick "stale promotion loses the test-and-set" test_stale_promotion_loses;
        ] );
      ( "equivalence",
        [ quick "replicas=0 == unreplicated cluster" test_replicas_zero_identical ] );
      ( "failover",
        [ quick "crash schedule loses no committed txn" test_crash_schedule_never_loses_commits ]
      );
      ( "faults",
        [
          quick "schedules are deterministic" test_faults_deterministic;
          quick "a kill fires at a trace event" test_faults_kill_at_event;
        ] );
      ( "rpc", [ quick "promotion answers the watermark" test_rpc_promote ] );
    ]
