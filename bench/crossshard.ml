(* Cross-shard transaction experiments for lib/txn. *)

open Exp_util
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng
module Cluster = Afs_cluster.Cluster
module Shard = Afs_cluster.Shard
module CC = Afs_cluster.Cluster_client
module Marker = Afs_cluster.Marker
module Txn = Afs_txn.Txn
module Faults = Afs_replica.Faults
module Remote = Afs_rpc.Remote
module Trace = Afs_trace.Trace

(* A page of the file's committed version: one [Current] batch, routed. *)
let read_current client file path =
  CC.routed client file (fun conn ~shard:_ file ->
      match Remote.batch conn (Remote.Current file) [ Remote.Read path ] with
      | Ok (Remote.Ran { reads = [ data ]; _ }) -> Ok data
      | Ok _ -> Error (Afs_core.Errors.Store_failure "unexpected batch answer")
      | Error e -> Error e)

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
    (report, sut.Sut.stats (), !swept)
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
     to the unit: nothing lost, nothing duplicated, nothing in doubt. *)
  let span_open kind = function
    | Trace.Span_open { kind = k; _ } -> String.equal k kind
    | Trace.Point _ | Trace.Span_close _ -> false
  in
  let flip_open label = function
    | Trace.Span_open { kind = "txn.flip"; label = l; _ } -> String.equal l label
    | Trace.Span_open _ | Trace.Point _ | Trace.Span_close _ -> false
  in
  let decide_committed = function
    | Trace.Point { payload = Trace.Txn_decide { committed; _ }; _ } -> committed
    | Trace.Point _ | Trace.Span_open _ | Trace.Span_close _ -> false
  in
  (* Each kill point is the coordinator event it dies at: before the
     first stage, before the second (the last participant's, whose seal
     carries the decide, so it is also before the decide), once the
     decide committed, and before each flip the coordinator sends. *)
  let crash_points =
    [|
      None;
      Some ("before_stage:0", span_open "txn.stage");
      Some ("before_stage:1", span_open "txn.decide");
      Some ("before_decide", span_open "txn.decide");
      Some ("after_decide", decide_committed);
      Some ("mid_flip:0", flip_open "0");
      Some ("mid_flip:1", flip_open "1");
    |]
  in
  let shards = 3 and naccts = 6 and init = 100 in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:2.0 engine ~shards in
  let committed_txns = ref 0 in
  let rolled_forward = ref 0 in
  let crashes_injected = ref 0 in
  let swept = ref 0 in
  let violations = ref 0 in
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
        let faults = Faults.create engine in
        List.iter
          (fun (ms, k) ->
            Faults.at faults ~ms ~label:(Printf.sprintf "kill:%d" k) (fun () ->
                Shard.crash (Cluster.shard cluster k);
                Proc.delay 10.0;
                ignore (ok (Shard.recover (Cluster.shard cluster k)) : int)))
          [ (40.0, 0); (110.0, 1); (180.0, 2) ];
        let rng = Xrng.create 11 in
        let txn = Txn.create ~trace:(Faults.tap faults) client in
        let deltas = Array.make naccts 0 in
        let uncertain = ref [] in
        for _ = 1 to 60 do
          Proc.delay (Xrng.float rng 4.0);
          let a = Xrng.int rng naccts in
          let b = (a + 1 + Xrng.int rng (naccts - 1)) mod naccts in
          let amt = 1 + Xrng.int rng 9 in
          let crash_at = crash_points.(Xrng.int rng (Array.length crash_points)) in
          let record = ref None in
          let parts =
            [
              { Txn.file = accts.(a);
                ops = [ Txn.Rmw (Afs_util.Pagepath.of_list [ 0 ],
                                 fun old ->
                                   bytes (string_of_int
                                            (int_of_string (Bytes.to_string old) - amt))) ] };
              { Txn.file = accts.(b);
                ops = [ Txn.Rmw (Afs_util.Pagepath.of_list [ 0 ],
                                 fun old ->
                                   bytes (string_of_int
                                            (int_of_string (Bytes.to_string old) + amt))) ] };
            ]
          in
          let run () = Txn.exec ~on_record:(fun c seq -> record := Some (c, seq)) txn parts in
          match
            match crash_at with
            | Some (label, at) -> Faults.killing faults ~label at run
            | None -> run ()
          with
          | exception Proc.Killed -> begin
              incr crashes_injected;
              match !record with
              | Some r -> uncertain := (r, a, b, amt) :: !uncertain
              | None -> ()
            end
          | Ok () ->
              incr committed_txns;
              deltas.(a) <- deltas.(a) - amt;
              deltas.(b) <- deltas.(b) + amt
          | Error (Txn.Local _ | Txn.Cross _) -> ()
          | Error (Txn.Failed _) -> (
              match !record with
              | Some r -> uncertain := (r, a, b, amt) :: !uncertain
              | None -> ())
        done;
        Proc.delay 200.0;
        let sweeper = Txn.create client in
        swept := ok (Txn.sweep sweeper (Array.to_list accts));
        List.iter
          (fun ((r, seq), a, b, amt) ->
            match ok (Txn.record_decision sweeper r ~seq) with
            | Txn.Committed ->
                incr rolled_forward;
                deltas.(a) <- deltas.(a) - amt;
                deltas.(b) <- deltas.(b) + amt
            | _ -> ())
          !uncertain;
        Array.iteri
          (fun i f ->
            let root = ok (read_current client f Afs_util.Pagepath.root) in
            (match Marker.decode root with
            | Some (Marker.Staged _) -> incr violations
            | Some (Marker.Moved _ | Marker.Outcome _) | None -> ());
            let got =
              int_of_string
                (Bytes.to_string
                   (ok (read_current client f (Afs_util.Pagepath.of_list [ 0 ]))))
            in
            if got <> init + deltas.(i) then incr violations)
          accts)
  in
  Engine.run engine;
  if !violations > 0 then
    failwith (Printf.sprintf "crash leg: %d conservation violations" !violations);
  table
    [ "crash leg"; "value" ]
    [
      [ "transfers committed"; string_of_int !committed_txns ];
      [ "coordinator crashes injected"; string_of_int !crashes_injected ];
      [ "committed-at-crash rolled forward"; string_of_int !rolled_forward ];
      [ "in-doubt participants swept"; string_of_int !swept ];
      [ "conservation violations"; string_of_int !violations ];
    ];
  metric_i "s2-cross-shard" "crash.committed" !committed_txns;
  metric_i "s2-cross-shard" "crash.injected" !crashes_injected;
  metric_i "s2-cross-shard" "crash.rolled_forward" !rolled_forward;
  metric_i "s2-cross-shard" "crash.swept" !swept;
  metric_i "s2-cross-shard" "crash.lost_committed" 0;
  metric_i "s2-cross-shard" "crash.violations" !violations;
  note "the coordinator record's test-and-set to its committed outcome is the atomic point: every";
  note "crash schedule resolves from the record alone, conserving the balance sum"
