(* Ablations of design choices DESIGN.md calls out. *)

open Exp_util
module Server = Afs_core.Server
module Store = Afs_core.Store
module Cache = Afs_core.Cache
module Gc = Afs_core.Gc
module Pagestore = Afs_core.Pagestore
module P = Afs_util.Pagepath
module Xrng = Afs_util.Xrng

let ok_str = function Ok v -> v | Error msg -> failwith msg

(* A1 — the §5.4 concurrency-control administration: a server keeps
   each committed version's flag map, read from its page tree once. Two
   servers share the store: the committing one keeps the maps its
   admissions read, so even its first validation reads no page tree; the
   other learns the committed versions lazily, reading each map once,
   on its first validation, and keeping it for the next. *)
let a1 () =
  banner "a1-flag-cache" "Cache validation: learned versions vs the admitting server"
    "§5.4 (last paragraph): servers can cache the concurrency-control administration";
  let npages = 128 in
  let intervening = 32 in
  let setup () =
    let store, srv, io = counting_server () in
    let other = Server.create ~seed:7 store in
    let f = file_with_pages srv npages in
    let basis = ok (Server.current_block_of_file srv f) in
    let rng = Xrng.create 3 in
    for _ = 1 to intervening do
      let v = ok (Server.create_version srv f) in
      ok (Server.write_page srv v (P.of_list [ Xrng.int rng npages ]) (bytes "x"));
      ok (Server.commit srv v)
    done;
    ok (Pagestore.flush (Server.pagestore srv));
    Pagestore.drop_volatile (Server.pagestore srv);
    (srv, other, f, basis, io)
  in
  let row key label pick_server =
    let srv, other, f, basis, io = setup () in
    let vsrv = pick_server srv other in
    let validate () =
      Pagestore.drop_volatile (Server.pagestore srv);
      Pagestore.drop_volatile (Server.pagestore other);
      let r0, _ = io () in
      ignore (ok (Cache.server_validate vsrv ~file:f ~basis_block:basis));
      let r1, _ = io () in
      r1 - r0
    in
    let first = validate () in
    let later = validate () in
    metric "a1-flag-cache" (key ^ "_first_reads") (float_of_int first);
    metric "a1-flag-cache" (key ^ "_later_reads") (float_of_int later);
    [ label; string_of_int first; string_of_int later ]
  in
  table
    [ "configuration"; "first validation reads"; "repeat validation reads" ]
    [
      row "walk" "learned versions (each map read once, then kept)" (fun _ other -> other);
      row "incremental" "admitting server (maps kept from admission)" (fun srv _ -> srv);
    ];
  note "the admitting server kept every committed version's map from its admission:";
  note "even its FIRST validation reads only the %d chain version pages, no page trees" intervening

(* A2 — garbage collection on/off: space growth and the cost of the
   collector itself. *)
let a2 () =
  banner "a2-gc" "Space growth with and without the garbage collector" "abstract, §5.1";
  let rounds = 400 in
  let run ~gc_every =
    let store = Store.memory () in
    let srv = Server.create store in
    let f = file_with_pages srv 16 in
    let rng = Xrng.create 17 in
    let peak = ref 0 in
    let gc_freed = ref 0 in
    for i = 1 to rounds do
      let v = ok (Server.create_version srv f) in
      (* Reads create shadow copies; the commit reshares them. *)
      (match Server.read_page srv v (P.of_list [ Xrng.int rng 16 ]) with
      | Ok _ -> ()
      | Error _ -> ());
      ok (Server.write_page srv v (P.of_list [ Xrng.int rng 16 ]) (bytes (string_of_int i)));
      ok (Server.commit srv v);
      if gc_every > 0 && i mod gc_every = 0 then begin
        let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 4; reshare = true } srv) in
        gc_freed := !gc_freed + stats.Gc.blocks_freed
      end;
      let used = List.length (ok_str (store.Store.list_blocks ())) in
      if used > !peak then peak := used
    done;
    let final = List.length (ok_str (store.Store.list_blocks ())) in
    [
      (if gc_every = 0 then "no GC" else Printf.sprintf "GC every %d commits" gc_every);
      string_of_int !peak;
      string_of_int final;
      string_of_int !gc_freed;
    ]
  in
  table [ "configuration"; "peak blocks"; "final blocks"; "blocks reclaimed" ]
    [ run ~gc_every:0; run ~gc_every:64; run ~gc_every:8 ];
  note "%d commits on a 16-page file: without collection the store grows without bound" rounds;
  note "(every update shadows its path); frequent collection keeps it near the live set"

(* A3 — the bounded write-back page cache (§5.4 'need not be
   write-through'): store traffic as a function of cache capacity, from
   the degenerate write-through configuration up to a cache larger than
   the working set. Evictions of dirty pages cost an early write-back;
   re-reads of evicted pages cost a miss. *)
let a3 () =
  banner "a3-write-back" "Write-back cache capacity sweep: store traffic vs cache size" "§5.4";
  let npages = 16 in
  let updates = 50 in
  let workload srv f =
    for i = 1 to updates do
      let v = ok (Server.create_version srv f) in
      (* Each update rewrites four spread pages, one of them twice. *)
      for j = 0 to 3 do
        ok
          (Server.write_page srv v
             (P.of_list [ (i + (j * 5)) mod npages ])
             (bytes (string_of_int i)))
      done;
      ok (Server.write_page srv v (P.of_list [ i mod npages ]) (bytes "again"));
      ok (Server.commit srv v)
    done
  in
  let run key label ~cache capacity =
    let store, io = Store.counting (Store.memory ()) in
    let srv = Server.create ~page_cache:cache ?cache_capacity:capacity store in
    let f = file_with_pages srv npages in
    let snap name = counter srv name in
    let h0 = snap "cache.hits" and m0 = snap "cache.misses" in
    let e0 = snap "cache.evictions" in
    let r0, w0 = io () in
    workload srv f;
    let r1, w1 = io () in
    let hits = snap "cache.hits" - h0 and misses = snap "cache.misses" - m0 in
    let evictions = snap "cache.evictions" - e0 in
    metric "a3-write-back" (key ^ "_store_reads") (float_of_int (r1 - r0));
    metric "a3-write-back" (key ^ "_store_writes") (float_of_int (w1 - w0));
    metric "a3-write-back" (key ^ "_evictions") (float_of_int evictions);
    [
      label;
      string_of_int (r1 - r0);
      string_of_int (w1 - w0);
      string_of_int hits;
      string_of_int misses;
      string_of_int evictions;
      pct hits (hits + misses);
    ]
  in
  table
    [ "configuration"; "store reads"; "store writes"; "hits"; "misses"; "evictions"; "hit rate" ]
    [
      run "wt" "write-through (no cache)" ~cache:false None;
      run "cap2" "write-back, capacity 2" ~cache:true (Some 2);
      run "cap4" "write-back, capacity 4" ~cache:true (Some 4);
      run "cap8" "write-back, capacity 8" ~cache:true (Some 8);
      run "cap16" "write-back, capacity 16" ~cache:true (Some 16);
      run "cap64" "write-back, capacity 64" ~cache:true (Some 64);
      run "cap4096" "write-back, default capacity" ~cache:true None;
    ];
  note "tiny caches thrash (evictions force early write-backs and re-reads); once the";
  note "working set fits, the pre-commit flush coalesces rewrites exactly as §5.4.1 argues"

(* M1 — the kept write-set micro-benchmark: validation work after N
   intervening commits depends on how much they wrote, never on the size
   or depth of the page tree they wrote it in. *)
let m1 () =
  banner "m1-validate-after-n"
    "Validation cost: O(pages written per intervening commit), not O(tree)"
    "§5.4 + the server-kept concurrency-control administration";
  let writes_per_commit = 2 in
  let run ~fanout ~depth ~commits =
    let _store, srv, io = counting_server () in
    let f, leaves = deep_file srv ~fanout ~depth in
    let leaves = Array.of_list leaves in
    let nleaves = Array.length leaves in
    let basis = ok (Server.current_block_of_file srv f) in
    for i = 1 to commits do
      let v = ok (Server.create_version srv f) in
      for j = 0 to writes_per_commit - 1 do
        ok (Server.write_page srv v leaves.(((i * 3) + j) mod nleaves) (bytes "m"))
      done;
      ok (Server.commit srv v)
    done;
    ok (Pagestore.flush (Server.pagestore srv));
    Pagestore.drop_volatile (Server.pagestore srv);
    let r0, _ = io () in
    let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
    let r1, _ = io () in
    (nleaves, v.Cache.pages_examined, r1 - r0)
  in
  let depth_row depth =
    let nleaves, examined, reads = run ~fanout:4 ~depth ~commits:8 in
    metric "m1-validate-after-n"
      (Printf.sprintf "examined_depth%d" depth)
      (float_of_int examined);
    metric "m1-validate-after-n" (Printf.sprintf "reads_depth%d" depth) (float_of_int reads);
    [
      Printf.sprintf "4^%d (%d leaves)" depth nleaves;
      "8";
      string_of_int examined;
      string_of_int reads;
    ]
  in
  let commits_row commits =
    let _, examined, reads = run ~fanout:4 ~depth:3 ~commits in
    metric "m1-validate-after-n"
      (Printf.sprintf "examined_n%d" commits)
      (float_of_int examined);
    [ "4^3 (64 leaves)"; string_of_int commits; string_of_int examined; string_of_int reads ]
  in
  table
    [ "tree"; "intervening commits"; "pages examined"; "store reads" ]
    (List.map depth_row [ 2; 3; 4; 5 ] @ List.map commits_row [ 1; 4; 16; 64 ]);
  note "fixed write set (%d leaf pages per commit): pages examined stay constant as the"
    writes_per_commit;
  note "tree grows 4^2 -> 4^5, and scale only with the number of intervening commits"

(* A4 — tracing as an observer: the same seeded workload with the null
   sink, a ring sink and a streaming sink. Tracing charges no simulated
   time, so every outcome metric must be bit-identical across sinks; the
   event count is the (deterministic) volume a traced run produces. *)
let a4 () =
  banner "a4-trace-overhead" "Tracing is an observer: identical outcomes, counted events"
    "DESIGN.md Observability: virtual-time traces cannot perturb the run";
  let module Trace = Afs_trace.Trace in
  let module Engine = Afs_sim.Engine in
  let open Afs_workload in
  let shape = { Workload.small_updates with nfiles = 16; pages_per_file = 8 } in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 2_000.0; think_ms = 10.0 }
  in
  let run make_trace =
    let engine = Engine.create () in
    let tr = make_trace engine in
    Engine.set_trace engine tr;
    let store = Store.memory () in
    let srv = Server.create ~trace:tr store in
    let files = ok (Workload.setup_pages srv shape ~initial:(bytes "00000000")) in
    let host = Afs_rpc.Remote.host ~latency_ms:2.0 engine ~name:"afs" srv in
    let sut = Sut.afs_remote (Afs_rpc.Remote.connect [ host ]) ~fallback:srv ~files in
    let report = Driver.run engine config sut ~gen:(Workload.make shape) in
    (report, Trace.events_emitted tr)
  in
  let null_report, _ = run (fun _ -> Trace.null) in
  let ring_report, ring_events =
    run (fun engine -> Trace.ring ~now:(fun () -> Engine.now engine) ())
  in
  let stream_report, stream_events =
    run (fun engine -> Trace.stream ~now:(fun () -> Engine.now engine) (fun _ -> ()))
  in
  let row label (r : Driver.report) events =
    [
      label;
      string_of_int r.Driver.committed;
      string_of_int r.Driver.attempts;
      f2 r.Driver.mean_latency_ms;
      (match events with Some n -> string_of_int n | None -> "-");
    ]
  in
  table
    [ "sink"; "committed"; "attempts"; "mean-ms"; "events" ]
    [
      row "null (tracing off)" null_report None;
      row "ring" ring_report (Some ring_events);
      row "stream" stream_report (Some stream_events);
    ];
  let same =
    null_report.Driver.committed = ring_report.Driver.committed
    && ring_report.Driver.committed = stream_report.Driver.committed
    && null_report.Driver.attempts = ring_report.Driver.attempts
    && null_report.Driver.mean_latency_ms = ring_report.Driver.mean_latency_ms
  in
  metric_i "a4-trace-overhead" "trace.events" ring_events;
  metric_i "a4-trace-overhead" "outcomes_identical" (if same then 1 else 0);
  metric_i "a4-trace-overhead" "committed" null_report.Driver.committed;
  note "all sinks see the same virtual execution: committed/attempts/latency match exactly;";
  note "a traced run of this workload produces %d events" ring_events
