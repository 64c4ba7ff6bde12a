(* afs_cli — inspect and demonstrate the Amoeba File Service from the
   command line.

     afs_cli walkthrough          annotated trace of the §5 mechanisms,
                                  with page-tree dumps showing C/R/W/S/M
     afs_cli simulate [...]       run the multi-client workload driver
                                  and print a report row
     afs_cli conflict [...]       build a concurrent schedule and show
                                  the serialisability verdict
     afs_cli trace FILE           summarise a catapult trace written by
                                  simulate --trace

   The store is in-memory: the tool is a demonstrator and debugging aid,
   not a persistence layer. *)

open Cmdliner
open Afs_core
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Errors.to_string e)
let bytes = Bytes.of_string

(* {2 Page-tree dumping} *)

let dump_tree srv version_cap =
  let ps = Server.pagestore srv in
  let vblock = ok (Server.version_block srv version_cap) in
  let rec dump block path flags depth =
    let page = ok (Pagestore.read ps block) in
    Printf.printf "  %-22s block=%-4d %-7s dsize=%-5d %s\n"
      (String.make (2 * depth) ' ' ^ P.to_string path)
      block
      (Fmt.str "%a" Flags.pp flags)
      (Page.dsize page)
      (if Page.is_version_page page then
         Printf.sprintf "[version page, base=%s commit=%s]"
           (match page.Page.header.Page.base_ref with Some b -> string_of_int b | None -> "nil")
           (match page.Page.header.Page.commit_ref with Some b -> string_of_int b | None -> "nil")
       else "");
    Array.iteri
      (fun i (e : Page.ref_entry) -> dump e.Page.block (P.child path i) e.Page.flags (depth + 1))
      page.Page.refs
  in
  let root = ok (Pagestore.read ps vblock) in
  dump vblock P.root root.Page.header.Page.root_flags 0

(* {2 walkthrough} *)

let walkthrough () =
  let store = Store.memory () in
  let srv = Server.create store in
  let say fmt = Printf.printf ("\n--- " ^^ fmt ^^ "\n") in

  say "create a file with three pages; the initial version commits at once";
  let f = ok (Server.create_file srv ~data:(bytes "root data") ()) in
  let v0 = ok (Server.create_version srv f) in
  List.iteri
    (fun i d -> ignore (ok (Server.insert_page srv v0 ~parent:P.root ~index:i ~data:(bytes d) ())))
    [ "alpha"; "beta"; "gamma" ];
  ok (Server.commit srv v0);
  dump_tree srv (ok (Server.current_version srv f));

  say "a new version initially shares every page (all flags clear)";
  let v = ok (Server.create_version srv f) in
  dump_tree srv v;

  say "reading /1 copies it (access implies copy: C+R) and marks the root searched (S)";
  ignore (ok (Server.read_page srv v (P.of_list [ 1 ])));
  dump_tree srv v;

  say "writing /0 copies and marks it written (C+W); /2 stays shared";
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "ALPHA'"));
  dump_tree srv v;

  say "inserting a page sets M (and S) on the root: an explicit structure change";
  ignore (ok (Server.insert_page srv v ~parent:P.root ~index:3 ~data:(bytes "delta") ()));
  dump_tree srv v;

  say "commit: uncontended, so it is a bare test-and-set of the base's commit reference";
  ok (Server.commit srv v);
  dump_tree srv (ok (Server.current_version srv f));

  say "a concurrent pair: A reads /1 and writes /3, B writes /1; B commits first";
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv va (P.of_list [ 1 ])));
  ok (Server.write_page srv va (P.of_list [ 3 ]) (bytes "A's write"));
  ok (Server.write_page srv vb (P.of_list [ 1 ]) (bytes "B's write"));
  ok (Server.commit srv vb);
  Printf.printf "\n  A's version before its doomed commit:\n";
  dump_tree srv va;
  (match Server.commit srv va with
  | Error Errors.Conflict ->
      Printf.printf
        "\n  commit A -> CONFLICT: B wrote /1, which A read (W of committed intersects R\n\
        \  of candidate). A's version was removed; the client redoes the update.\n"
  | Ok () -> Printf.printf "\n  UNEXPECTED: conflict missed\n"
  | Error e -> failwith (Errors.to_string e));

  say "the family tree (committed chain) after everything";
  let chain = ok (Server.committed_chain srv f) in
  Printf.printf "  %s\n"
    (String.concat " -> " (List.map (fun b -> Printf.sprintf "block %d" b) chain));
  Printf.printf "\ncounters:\n";
  List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
    (Afs_util.Stats.Counter.to_list (Server.counters srv))

(* {2 Replication helpers} *)

(* [--kill-primary] fails over a replicated cluster's shard: a run that
   builds none is refused before it starts. *)
let check_kill_primary ~system ~shards ~replicas = function
  | None -> ()
  | Some (k, _) ->
      if system <> "afs" || replicas < 1 then
        failwith "--kill-primary needs --system afs with --replicas >= 1 (nothing to promote)";
      if k < 0 || k >= shards then failwith (Printf.sprintf "--kill-primary: no shard %d" k)

(* Schedule the deterministic crash: kill shard [k]'s RPC host at [ms],
   wait [failover_ms], then promote its first replica. The schedule is
   returned, to report its firing once the run is over. *)
let schedule_kill cluster ~failover_ms = function
  | None -> None
  | Some (k, at_ms) ->
      let module Faults = Afs_cluster.Faults in
      let faults = Faults.create cluster in
      Faults.run faults
        [ Faults.At (at_ms, Faults.Fail_over { shard = k; after_ms = failover_ms }) ]
        ignore;
      Some (k, faults)

(* The failover line: what the promotion answered, and when the primary
   crashed. *)
let report_failover (k, faults) =
  List.iter
    (fun { Afs_cluster.Faults.outcome; at_ms; _ } ->
      Printf.printf "failover: shard %d %s; primary crashed at %.1f ms\n" k
        (Result.fold ~ok:Fun.id ~error:Fun.id outcome)
        at_ms)
    (Afs_cluster.Faults.fired faults)

(* Per-member replication columns: role, epoch, watermarks, lag. A
   primary promoted with no sibling replica left ships to nobody, so it
   has no source and shows dashes. *)
let replication_report ~replicas cluster =
  let module Cluster = Afs_cluster.Cluster in
  let module Replica = Afs_replica.Replica in
  let module H = Afs_util.Stats.Histogram in
  if replicas > 0 then begin
    Printf.printf "\n%-12s %-8s %6s %8s %8s %5s %9s %9s\n" "member" "role" "epoch"
      "shipped" "applied" "lag" "lag-p50" "lag-p95";
    for i = 0 to Cluster.nshards cluster - 1 do
      let epoch, shipped =
        match Cluster.replication_source cluster i with
        | None -> ("-", "-")
        | Some src ->
            ( string_of_int (Replica.Source.born_epoch src),
              string_of_int (Replica.Source.shipped_seq src) )
      in
      Printf.printf "%-12s %-8s %6s %8s %8s %5s %9s %9s\n"
        (Printf.sprintf "shard-%d" i)
        "primary" epoch shipped "-" "-" "-" "-";
      List.iteri
        (fun j r ->
          let lagh = Replica.lag_histogram r in
          let pct p =
            if H.count lagh = 0 then "-" else Printf.sprintf "%.2f" (H.percentile lagh p)
          in
          Printf.printf "%-12s %-8s %6d %8d %8d %5d %9s %9s\n"
            (Printf.sprintf "shard-%d.r%d" i j)
            "replica" (Replica.epoch r) (Replica.shipped_seq r) (Replica.applied_seq r)
            (Replica.shipped_seq r - Replica.applied_seq r)
            (pct 0.5) (pct 0.95))
        (Cluster.replicas_of cluster i)
    done;
    let get = Afs_util.Stats.Counter.get (Cluster.counters cluster) in
    Printf.printf
      "replication: %d batches shipped, %d applied; %d promotions, %d fenced publishes\n"
      (get "replica.shipped") (get "replica.applied") (get "promotions")
      (get "replica.fenced")
  end

(* {2 simulate} *)

(* With [--trace FILE] every event streams straight to a catapult JSON
   document; nothing is buffered beyond the open channel. With [--host]
   the sink also keeps host cost per span kind, timed by the monotonic
   clock in µs; without [--trace] its events go nowhere. *)
let host_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3

let open_trace_sink ?(host = false) engine trace_file =
  let host = if host then Some host_clock else None in
  let now () = Afs_sim.Engine.now engine in
  match trace_file with
  | None ->
      if Option.is_some host then
        Afs_sim.Engine.set_trace engine (Afs_trace.Trace.stream ?host ~now ignore);
      None
  | Some path ->
      let oc = open_out path in
      let w = Afs_trace.Catapult.writer (output_string oc) in
      let tr = Afs_trace.Trace.stream ?host ~now (Afs_trace.Catapult.emit w) in
      Afs_sim.Engine.set_trace engine tr;
      Some (path, oc, w, tr)

(* The host table of a [--host] run: each span kind's spans, own and
   total words and µs per commit, the words outside every span, and the
   oracle that the own and outside words add up to every word allocated
   since the sink was built ([words_before]). The two sides differ only
   by what building the sink and reading it allocate. The sum holds by
   construction while spans nest, so the oracle finds misnested spans
   and nothing else: it does not show that a span covers what it names. *)
let host_report trace ~words_before ~committed =
  let module T = Afs_trace.Trace in
  let outside = T.outside_words trace in
  let total = Stdlib.Gc.minor_words () -. words_before in
  let rows = T.host_costs trace in
  let own = List.fold_left (fun acc (r : T.host_cost) -> acc +. r.T.own_words) 0.0 rows in
  let per x = x /. float_of_int (max 1 committed) in
  Printf.printf "host cost per commit (%d commits):\n" committed;
  Printf.printf "  %-16s %8s %11s %11s %9s %9s\n" "span" "spans" "own words" "total words"
    "own us" "total us";
  List.iter
    (fun (r : T.host_cost) ->
      Printf.printf "  %-16s %8.2f %11.1f %11.1f %9.2f %9.2f\n" r.T.kind
        (per (float_of_int r.T.spans))
        (per r.T.own_words) (per r.T.total_words) (per r.T.own_us) (per r.T.total_us))
    rows;
  Printf.printf "  %-16s %8s %11.1f\n" "outside spans" "" (per outside);
  let sum = own +. outside in
  Printf.printf "host oracle: own %.0f + outside %.0f = %.0f words, run total %.0f words: %s\n"
    own outside sum total
    (if Float.abs (sum -. total) <= 256.0 then "equal" else "DIFFERENT");
  Printf.printf "named spans: %.1f%% of the run's words\n" (100.0 *. own /. Float.max 1.0 sum)

let close_trace_sink = function
  | None -> ()
  | Some (path, oc, w, tr) ->
      Afs_trace.Catapult.finish w;
      close_out oc;
      Printf.printf "trace: %d events -> %s\n" (Afs_trace.Trace.events_emitted tr) path

let simulate system shards replicas clients duration_s think_ms nfiles pages theta
    cross_ratio cache_capacity group_commit kill_primary failover_ms trace_file host =
  check_kill_primary ~system ~shards ~replicas kill_primary;
  let open Afs_workload in
  let shape =
    {
      Workload.small_updates with
      nfiles;
      pages_per_file = pages;
      file_theta = theta;
      page_theta = theta;
    }
  in
  let engine = Afs_sim.Engine.create () in
  let words_before = Stdlib.Gc.minor_words () in
  let trace_sink = open_trace_sink ~host engine trace_file in
  let trace = Afs_sim.Engine.trace engine in
  let config =
    {
      Driver.default_config with
      clients;
      duration_ms = duration_s *. 1000.0;
      think_ms;
    }
  in
  let cluster_ref = ref None in
  let failover = ref None in
  let bare = ref [] in
  let transfer_ctx = ref None in
  let initial_balance = 1_000 in
  let make_cluster () =
    let cluster =
      Afs_cluster.Cluster.create ~latency_ms:2.0 ?cache_capacity ~group_commit
        ~replicas ~trace engine ~shards
    in
    cluster_ref := Some cluster;
    failover := schedule_kill cluster ~failover_ms kill_primary;
    cluster
  in
  let sut, gen =
    match system with
    | "afs" when cross_ratio <> None ->
        (* The cross-shard banking mix, run through the optimistic
           transaction coordinator (lib/txn). *)
        let tshape =
          {
            Workload.bank_transfers with
            accounts = max nfiles (2 * shards);
            objects = 2 * shards;
            shards;
            cross_ratio = Option.get cross_ratio;
            account_theta = theta;
          }
        in
        let cluster = make_cluster () in
        let files = ok (Workload.setup_accounts cluster tshape ~initial_balance) in
        let client = Afs_cluster.Cluster_client.connect cluster in
        transfer_ctx := Some (client, tshape, files);
        (Sut.afs_txn ~trace client ~files, Workload.transfer tshape)
    | "afs" when shards > 1 || replicas > 0 ->
        let cluster = make_cluster () in
        let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
        ( Sut.afs_cluster (Afs_cluster.Cluster_client.connect cluster) ~files,
          Workload.make shape )
    | "afs" ->
        let store = Store.memory () in
        let srv = Server.create ?cache_capacity ~trace store in
        bare := [ srv ];
        let files = ok (Workload.setup_pages srv shape ~initial:(bytes "0")) in
        let host = Afs_rpc.Remote.host ~latency_ms:2.0 ~group_commit engine ~name:"afs" srv in
        (Sut.afs_remote (Afs_rpc.Remote.connect [ host ]) ~fallback:srv ~files,
         Workload.make shape)
    | "2pl" ->
        let backend =
          Afs_baseline.Twopl.create ~vulnerable_after_ms:2000.0 ~trace
            ~clock:(fun () -> Afs_sim.Engine.now engine)
            ()
        in
        ( Sut.twopl ~remote:engine backend ~pages_per_file:shape.Workload.pages_per_file
            ~retry_wait_ms:8.0,
          Workload.make shape )
    | "tso" ->
        let backend = Afs_baseline.Tsorder.create ~trace () in
        ( Sut.tsorder ~remote:engine backend ~pages_per_file:shape.Workload.pages_per_file,
          Workload.make shape )
    | other -> failwith (Printf.sprintf "unknown system %S (afs|2pl|tso)" other)
  in
  let report = Driver.run engine config sut ~gen in
  if host then host_report trace ~words_before ~committed:report.Driver.committed;
  Option.iter report_failover !failover;
  print_endline Driver.header_row;
  print_endline (Driver.report_row report);
  Printf.printf "retries: %s\n" (Driver.retry_histogram_row report);
  Printf.printf "%s\n" (Driver.abort_split_row report);
  (match !transfer_ctx with
  | None -> ()
  | Some (client, tshape, files) ->
      (* Resolve anything a deferred flip left in doubt, then audit the
         conserved total out of band. *)
      let swept = ref 0 in
      ignore
        (Afs_sim.Proc.spawn ~name:"sweeper" engine (fun () ->
             swept := ok (Afs_txn.Txn.sweep (Afs_txn.Txn.create client)
                            (Array.to_list files))));
      Afs_sim.Engine.run engine;
      let total = Workload.total_balance sut tshape in
      let expected = initial_balance * tshape.Workload.accounts in
      Printf.printf "conservation: swept %d in-doubt, total balance %d (expected %d)%s\n"
        !swept total expected
        (if total = expected then "" else "  ** VIOLATION **"));
  let servers =
    (* Read after the run: a promotion replaces a shard's server, and the
       promoted one carries the post-failover commit counters. *)
    match !cluster_ref with
    | Some cluster ->
        List.map Afs_cluster.Shard.server (Afs_cluster.Cluster.shards cluster)
    | None -> !bare
  in
  (match servers with
  | [] -> ()
  | servers ->
      let sum counter =
        List.fold_left
          (fun acc srv -> acc + Afs_util.Stats.Counter.get (Server.counters srv) counter)
          0 servers
      in
      let batches = sum "commits.batches" and members = sum "commits.batch_members" in
      if batches > 0 then
        Printf.printf "group commit: window %d, mean batch size %.2f (%d commits in %d batches)\n"
          group_commit
          (float_of_int members /. float_of_int batches)
          members batches
      else Printf.printf "group commit: off (window %d)\n" group_commit);
  (match !cluster_ref with
  | Some cluster -> replication_report ~replicas cluster
  | None -> ());
  close_trace_sink trace_sink

(* {2 cluster} *)

let cluster_demo shards replicas clients duration_s think_ms nfiles theta rebalance_ms
    trace_file =
  let open Afs_workload in
  let module Cluster = Afs_cluster.Cluster in
  let module Shard = Afs_cluster.Shard in
  let shape =
    { Workload.small_updates with nfiles; file_theta = theta; page_theta = theta }
  in
  let engine = Afs_sim.Engine.create () in
  let trace_sink = open_trace_sink engine trace_file in
  let trace = Afs_sim.Engine.trace engine in
  let cluster = Cluster.create ~latency_ms:2.0 ~replicas ~trace engine ~shards in
  let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
  let sut = Sut.afs_cluster (Afs_cluster.Cluster_client.connect cluster) ~files in
  let duration_ms = duration_s *. 1000.0 in
  let rebalancer = Afs_cluster.Rebalancer.create ~threshold:1.5 ~max_moves:4 cluster in
  ignore
    (Afs_sim.Proc.spawn ~name:"rebalancer" engine (fun () ->
         let rec loop () =
           Afs_sim.Proc.delay rebalance_ms;
           if Afs_sim.Engine.now engine < duration_ms then begin
             ignore (Afs_cluster.Rebalancer.step rebalancer);
             loop ()
           end
         in
         loop ()));
  let config =
    { Driver.default_config with clients; duration_ms; think_ms }
  in
  let report = Driver.run engine config sut ~gen:(Workload.make shape) in
  print_endline Driver.header_row;
  print_endline (Driver.report_row report);
  Printf.printf "retries: %s\n" (Driver.retry_histogram_row report);
  let counters = Cluster.counters cluster in
  let get = Afs_util.Stats.Counter.get counters in
  Printf.printf "\n%-10s %8s %10s %9s %10s\n" "shard" "files" "commits" "migr-in" "migr-out";
  List.iter
    (fun shard ->
      let i = Shard.id shard in
      Printf.printf "%-10s %8d %10d %9d %10d\n" (Shard.name shard)
        (List.length (Shard.resident_files shard))
        (get (Printf.sprintf "shard%d.commits" i))
        (get (Printf.sprintf "shard%d.migrations_in" i))
        (get (Printf.sprintf "shard%d.migrations_out" i)))
    (Cluster.shards cluster);
  Printf.printf
    "\nmigrations: %d done, %d lost races; rebalancer moves: %d; forwards learned: %d\n"
    (get "migrations") (get "migrations.conflict") (get "rebalancer.moves")
    (get "client.forwarded");
  replication_report ~replicas cluster;
  close_trace_sink trace_sink

(* {2 trace} *)

let trace_report file slowest_n =
  let src =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Afs_trace.Catapult.parse src with
  | Error msg -> failwith msg
  | Ok events ->
      let module Q = Afs_trace.Query in
      Printf.printf "%-28s %10s\n" "kind" "count";
      List.iter
        (fun (kind, n) -> Printf.printf "%-28s %10d\n" kind n)
        (Q.kind_counts events);
      let spans = Q.slowest events slowest_n in
      if spans <> [] then begin
        Printf.printf "\nslowest spans:\n";
        Printf.printf "  %-12s %-16s %12s %10s %10s\n" "kind" "label" "start-ms" "dur-ms"
          "self-ms";
        List.iter
          (fun s ->
            Printf.printf "  %-12s %-16s %12.3f %10.3f %10.3f\n" s.Q.kind
              (if s.Q.label = "" then "-" else s.Q.label)
              s.Q.start_ms (Q.duration s) (Q.self_ms events s))
          spans
      end

(* {2 conflict} *)

let conflict_demo reads_a writes_a writes_b =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = ok (Server.create_file srv ()) in
  let v0 = ok (Server.create_version srv f) in
  for i = 0 to 7 do
    ignore (ok (Server.insert_page srv v0 ~parent:P.root ~index:i ~data:(bytes "init") ()))
  done;
  ok (Server.commit srv v0);
  let va = ok (Server.create_version srv f) in
  let vb = ok (Server.create_version srv f) in
  List.iter (fun p -> ignore (ok (Server.read_page srv va (P.of_list [ p ])))) reads_a;
  List.iter (fun p -> ok (Server.write_page srv va (P.of_list [ p ]) (bytes "A"))) writes_a;
  List.iter (fun p -> ok (Server.write_page srv vb (P.of_list [ p ]) (bytes "B"))) writes_b;
  ok (Server.commit srv vb);
  Printf.printf "A reads {%s}, writes {%s}; B writes {%s} and commits first.\n"
    (String.concat "," (List.map string_of_int reads_a))
    (String.concat "," (List.map string_of_int writes_a))
    (String.concat "," (List.map string_of_int writes_b));
  match Server.commit srv va with
  | Ok () -> Printf.printf "verdict: SERIALISABLE — merged; both updates stand.\n"
  | Error Errors.Conflict ->
      Printf.printf "verdict: CONFLICT — B's write set intersects A's read set; A redoes.\n"
  | Error e -> failwith (Errors.to_string e)

(* {2 Command line} *)

let walkthrough_cmd =
  Cmd.v (Cmd.info "walkthrough" ~doc:"Annotated trace of the §5 mechanisms")
    Term.(const walkthrough $ const ())

let clients_arg = Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Concurrent clients")

let duration_arg =
  Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Simulated seconds")

let think_arg = Arg.(value & opt float 20.0 & info [ "think" ] ~doc:"Mean think time (ms)")
let nfiles_arg = Arg.(value & opt int 32 & info [ "files" ] ~doc:"Number of files")

let replicas_arg =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Log-shipping replicas per shard (0 = unreplicated; the report then matches \
           an unreplicated cluster bit for bit)")

let kill_primary_conv =
  let parse s =
    match String.index_opt s '@' with
    | Some i -> (
        try
          Ok
            ( int_of_string (String.sub s 0 i),
              float_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
        with _ -> Error (`Msg "expected SHARD@MS, e.g. 2@3000"))
    | None -> Error (`Msg "expected SHARD@MS, e.g. 2@3000")
  in
  let print ppf (k, ms) = Format.fprintf ppf "%d@%g" k ms in
  Arg.conv (parse, print)

let kill_primary_arg =
  Arg.(
    value
    & opt (some kill_primary_conv) None
    & info [ "kill-primary" ] ~docv:"SHARD@MS"
        ~doc:
          "Crash shard $(i,SHARD)'s primary at simulated time $(i,MS) and fail over to \
           its first replica (requires --system afs with --replicas >= 1)")

let failover_ms_arg =
  Arg.(
    value & opt float 25.0
    & info [ "failover-ms" ] ~docv:"MS"
        ~doc:"Detection delay between the kill and the promotion (simulated ms)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream a Chrome trace-event (catapult) JSON trace of the run to $(docv)")

let host_arg =
  Arg.(
    value & flag
    & info [ "host" ]
        ~doc:
          "Keep host cost per trace span kind (allocation and monotonic time, own and \
           total) and print the table, the words outside every span and the check that \
           they add up to the run's words. The sum holds by construction while spans \
           nest, so the check detects misnested spans only")

let simulate_cmd =
  let system =
    Arg.(value & opt string "afs" & info [ "system" ] ~docv:"afs|2pl|tso" ~doc:"System under test")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard the afs service across N servers (afs only; 1 = single bare server)")
  in
  let pages = Arg.(value & opt int 16 & info [ "pages" ] ~doc:"Pages per file") in
  let theta = Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipf skew (0 = uniform)") in
  let cross_ratio =
    Arg.(
      value
      & opt (some float) None
      & info [ "cross-shard-ratio" ] ~docv:"R"
          ~doc:
            "Switch to the cross-shard banking mix (transfers and moves) run through \
             the optimistic transaction coordinator: fraction $(docv) of transactions \
             pair files on different shards (afs only)")
  in
  let cache_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"BLOCKS"
          ~doc:"Server page-cache capacity in blocks (afs only; default 4096)")
  in
  let group_commit =
    Arg.(
      value & opt int 1
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Commit batch window per server: up to N queued commits validate together and \
             share one stable-storage leg (afs only; 1 = no batching)")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the multi-client workload driver")
    Term.(
      const simulate $ system $ shards $ replicas_arg $ clients_arg $ duration_arg
      $ think_arg $ nfiles_arg $ pages $ theta $ cross_ratio $ cache_capacity
      $ group_commit $ kill_primary_arg $ failover_ms_arg $ trace_arg $ host_arg)

let cluster_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Number of shard servers")
  in
  let theta =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~docv:"SKEW"
          ~doc:"Zipf skew over files (skew is what gives the rebalancer work)")
  in
  let rebalance =
    Arg.(
      value & opt float 250.0
      & info [ "rebalance-every" ] ~docv:"MS" ~doc:"Rebalancer period (simulated ms)")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a skewed workload on a shard cluster with online rebalancing")
    Term.(
      const cluster_demo $ shards $ replicas_arg $ clients_arg $ duration_arg $ think_arg
      $ nfiles_arg $ theta $ rebalance $ trace_arg)

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Catapult JSON trace")
  in
  let slowest =
    Arg.(value & opt int 10 & info [ "slowest" ] ~docv:"N" ~doc:"Show the N slowest spans")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Summarise a trace file written by simulate --trace")
    Term.(const trace_report $ file $ slowest)

let conflict_cmd =
  let ints name doc = Arg.(value & opt (list int) [] & info [ name ] ~doc) in
  Cmd.v (Cmd.info "conflict" ~doc:"Check a two-transaction schedule for serialisability")
    Term.(
      const conflict_demo $ ints "reads-a" "Pages A reads" $ ints "writes-a" "Pages A writes"
      $ ints "writes-b" "Pages B writes (B commits first)")

let () =
  let doc = "Amoeba File Service demonstrator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "afs_cli" ~doc)
          [ walkthrough_cmd; simulate_cmd; cluster_cmd; conflict_cmd; trace_cmd ]))
