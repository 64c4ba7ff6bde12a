(* Cross-shard transaction experiments for lib/txn. *)

open Exp_util
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng
module Cluster = Afs_cluster.Cluster
module Shard = Afs_cluster.Shard
module CC = Afs_cluster.Cluster_client
module Txn = Afs_txn.Txn
module Faults = Afs_cluster.Faults
module Remote = Afs_rpc.Remote

(* S2 — the banking mix over four shards: the OCC coordinator against the
   2PC prepare/decide baseline at identical load, anchored by the same
   transfers folded into single-file transactions on one shard (what the
   distribution itself costs). Conservation is audited after every leg,
   and a crash leg replays transfers under coordinator kill points and
   shard crashes, proving no committed transfer is lost and no in-doubt
   participant survives the sweep. *)

let s2 () =
  banner "s2-cross-shard" "Banking transfers: OCC coordinator vs 2PC vs single-shard"
    "§6: multi-file atomic update via ordinary optimistic commits";
  let open Afs_workload in
  let tshape = Workload.bank_transfers in
  let initial_balance = 1_000 in
  let expected_total = initial_balance * tshape.Workload.accounts in
  let config =
    { Driver.default_config with clients = 16; duration_ms = 4_000.0; think_ms = 5.0 }
  in
  (* A transactional leg: drive the SUT, then sweep any in-doubt files and
     audit the conserved sum out of band. *)
  let run_leg make_sut =
    let engine = Engine.create () in
    let cluster =
      Cluster.create ~latency_ms:2.0 engine ~shards:tshape.Workload.shards
    in
    let files = ok (Workload.setup_accounts cluster tshape ~initial_balance) in
    let client = CC.connect cluster in
    let sut = make_sut client files in
    let report = Driver.run engine config sut ~gen:(Workload.transfer tshape) in
    (* Before the sweep, whose coordinator counts into the same table. *)
    let stats = sut.Sut.stats () in
    let swept = ref 0 in
    let _ =
      Proc.spawn engine (fun () ->
          swept := ok (Txn.sweep (Txn.create client) (Array.to_list files)))
    in
    Engine.run engine;
    let total = Workload.total_balance sut tshape in
    if total <> expected_total then
      failwith
        (Printf.sprintf "%s: conservation violated: %d, expected %d"
           (Driver.(report.sut_name)) total expected_total);
    (report, stats, !swept)
  in
  let occ, occ_stats, occ_swept =
    run_leg (fun client files -> Sut.afs_txn client ~files)
  in
  let twopc, _, _ = run_leg (fun client files -> Sut.afs_twopc client ~files) in
  (* The anchor: the same debit/credit pair as two read-modify-writes
     inside one file — one ordinary optimistic commit, no coordination. *)
  let single =
    let bshape =
      {
        Workload.small_updates with
        nfiles = tshape.Workload.accounts;
        pages_per_file = 2;
        read_pages = 0;
        rmw_pages = 2;
        file_theta = tshape.Workload.account_theta;
        page_theta = 0.0;
      }
    in
    let engine = Engine.create () in
    let cluster = Cluster.create ~latency_ms:2.0 engine ~shards:1 in
    let files = ok (Workload.setup_cluster cluster bshape ~initial:(bytes "0")) in
    let sut = Sut.afs_cluster (CC.connect cluster) ~files in
    Driver.run engine config sut ~gen:(Workload.make bshape)
  in
  let row label (r : Driver.report) =
    [
      label;
      string_of_int r.Driver.committed;
      string_of_int r.Driver.attempts;
      f1 r.Driver.throughput_per_s;
      f2 r.Driver.p95_ms;
      string_of_int r.Driver.local_aborts;
      string_of_int r.Driver.cross_aborts;
    ]
  in
  table
    [ "backend"; "committed"; "attempts"; "thru/s"; "p95-ms"; "local-ab"; "cross-ab" ]
    [
      row "single-shard (one file, plain OCC)" single;
      row "OCC coordinator" occ;
      row "2PC prepare/decide" twopc;
    ];
  let stat name = match List.assoc_opt name occ_stats with Some v -> v | None -> 0 in
  let trips_per_commit =
    Afs_util.Stats.ratio (stat "txn.round_trips") (max 1 occ.Driver.committed)
  in
  Printf.printf "coordinator round trips per committed txn: %s\n" (f2 trips_per_commit);
  (* A waiter learns a marker's outcome from one held request on its
     record, so this stays at 1 unless waiters go back to polling. *)
  let record_reads_per_resolve =
    Afs_util.Stats.ratio (stat "txn.record_reads") (max 1 (stat "txn.in_doubt"))
  in
  Printf.printf "record reads per in-doubt resolution: %s (%d resolutions)\n"
    (f2 record_reads_per_resolve) (stat "txn.in_doubt");
  List.iter
    (fun (label, (r : Driver.report)) ->
      metric_i "s2-cross-shard" (label ^ ".committed") r.Driver.committed;
      metric_i "s2-cross-shard" (label ^ ".attempts") r.Driver.attempts;
      metric_i "s2-cross-shard" (label ^ ".local_aborts") r.Driver.local_aborts;
      metric_i "s2-cross-shard" (label ^ ".cross_aborts") r.Driver.cross_aborts)
    [ ("single", single); ("occ", occ); ("twopc", twopc) ];
  metric "s2-cross-shard" "occ.round_trips_per_commit" trips_per_commit;
  metric "s2-cross-shard" "occ.record_reads_per_resolve" record_reads_per_resolve;
  metric_i "s2-cross-shard" "occ.swept_after_run" occ_swept;
  metric "s2-cross-shard" "occ_vs_2pc"
    (Afs_util.Stats.ratio occ.Driver.committed twopc.Driver.committed);
  metric_i "s2-cross-shard" "occ_ge_2pc"
    (if occ.Driver.committed >= twopc.Driver.committed then 1 else 0);
  metric_i "s2-cross-shard" "conservation_violations" 0;

  (* The crash leg: transfers with coordinator kills at every protocol
     step and shard crashes mid-run. Outcomes are classified exactly as a
     recovering client would — committed record means the transfer
     happened — and the audit demands the balances match those outcomes
     to the unit: nothing lost, nothing duplicated, nothing in doubt.
     Each coordinator kill is the event it dies at
     ([Workload.coordinator_kills]). *)
  let shard_crashes =
    List.map
      (fun (ms, shard) -> Faults.At (ms, Faults.Crash_shard { shard; down_ms = 10.0 }))
      [ (40.0, 0); (110.0, 1); (180.0, 2) ]
  in
  let shards = 3 and naccts = 6 and init = 100 in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:2.0 engine ~shards in
  let audit = ref None in
  let _ =
    Proc.spawn engine (fun () ->
        let client = CC.connect cluster in
        let accts =
          Array.init naccts (fun i ->
              let f = ok (CC.create_file ~data:(bytes (Printf.sprintf "a%d" i)) client) in
              (* Open, insert the balance page, commit: a message each. *)
              ignore
                (ok
                   (CC.routed client f (fun conn ~shard:_ f ->
                        let open Afs_core.Errors in
                        let* v = Shard.open_version conn f in
                        let insert =
                          Remote.Insert
                            { parent = Afs_util.Pagepath.root; index = 0;
                              data = bytes (string_of_int init) }
                        in
                        let* _ = Remote.batch conn (Remote.Version v) [ insert ] in
                        Remote.batch conn (Remote.Version v) [ Remote.Commit ]))
                  : Remote.batch_answer);
              f)
        in
        audit :=
          Some
            (Workload.crash_transfers client accts ~initial_balance:init shard_crashes
               [ (Xrng.create 11, 60) ]))
  in
  Engine.run engine;
  let audit = Option.get !audit in
  let violations = List.length audit.Workload.violations in
  if violations > 0 then
    failwith (Printf.sprintf "crash leg: %s" (String.concat "; " audit.Workload.violations));
  table
    [ "crash leg"; "value" ]
    [
      [ "transfers committed"; string_of_int audit.Workload.committed ];
      [ "coordinator crashes injected"; string_of_int audit.Workload.killed ];
      [ "committed-at-crash rolled forward"; string_of_int audit.Workload.rolled_forward ];
      [ "in-doubt participants swept"; string_of_int audit.Workload.swept ];
      [ "conservation violations"; string_of_int violations ];
    ];
  metric_i "s2-cross-shard" "crash.committed" audit.Workload.committed;
  metric_i "s2-cross-shard" "crash.injected" audit.Workload.killed;
  metric_i "s2-cross-shard" "crash.rolled_forward" audit.Workload.rolled_forward;
  metric_i "s2-cross-shard" "crash.swept" audit.Workload.swept;
  metric_i "s2-cross-shard" "crash.lost_committed" 0;
  metric_i "s2-cross-shard" "crash.violations" violations;
  note "the coordinator record's test-and-set to its committed outcome is the atomic point: every";
  note "crash schedule resolves from the record alone, conserving the balance sum";
  note "shard crashes: %s" (Fmt.str "%a" Faults.pp shard_crashes)
