(* The paper's quantitative prose claims, each turned into a measured
   experiment with the baselines the paper itself names. *)

open Exp_util
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Server = Afs_core.Server
module Store = Afs_core.Store
module Cache = Afs_core.Cache
module Gc = Afs_core.Gc
module Pagestore = Afs_core.Pagestore
module Serialise = Afs_core.Serialise
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Twopl = Afs_baseline.Twopl
module Tsorder = Afs_baseline.Tsorder
module Stable = Afs_stable.Stable_pair
module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module P = Afs_util.Pagepath
module Xrng = Afs_util.Xrng
open Afs_workload

let ok_str = function Ok v -> v | Error msg -> failwith msg

(* The per-version calls over RPC, each one batch: an [Open] batch of no
   steps opens a version, a [Version] batch runs steps on one. *)
let open_version conn file =
  match Remote.batch conn (Remote.Open file) [] with
  | Ok (Remote.Ran { version; _ }) -> Ok version
  | Ok (Remote.Guard_failed _ | Remote.Reopened _ | Remote.Marked _) ->
      Error (Errors.Store_failure "unexpected batch answer")
  | Error e -> Error e

let on_version conn version steps = Result.map ignore (Remote.on_version conn version steps)

(* {2 C1 — OCC vs locking vs timestamps} *)

let c1_run_afs engine shape config =
  let store = Store.memory () in
  let srv = Server.create store in
  let files = ok (Workload.setup_pages srv shape ~initial:(bytes "00000000")) in
  let host = Remote.host ~latency_ms:2.0 engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  Driver.run engine config sut ~gen:(Workload.make shape)

(* Two servers over one store, transactions balanced across them: the
   §5.2 "any server can be allowed to carry out a commit" configuration. *)
let c1_run_afs_pair engine shape config =
  let store = Store.memory () in
  let ports = Afs_core.Ports.create () in
  let srv1 = Server.create ~seed:7 ~ports store in
  let srv2 = Server.create ~seed:7 ~ports store in
  let files = ok (Workload.setup_pages srv1 shape ~initial:(bytes "00000000")) in
  let host1 = Remote.host ~latency_ms:2.0 engine ~name:"afs-1" srv1 in
  let host2 = Remote.host ~latency_ms:2.0 engine ~name:"afs-2" srv2 in
  let conn = Remote.connect ~balance:true [ host1; host2 ] in
  let sut = Sut.afs_remote ~name:"afs-occ-2srv" conn ~fallback:srv1 ~files in
  Driver.run engine config sut ~gen:(Workload.make shape)

let c1_run_twopl engine shape config =
  (* The vulnerability threshold must exceed a healthy transaction's
     duration or prodding turns into mutual slaughter; XDFS prods only
     apparently-stuck holders. *)
  let backend =
    Twopl.create ~vulnerable_after_ms:2_000.0 ~clock:(fun () -> Engine.now engine) ()
  in
  (* [remote]: each lock/read/write/commit is one request to a serialised
     endpoint with the same cost model as the AFS host. *)
  let sut =
    Sut.twopl ~remote:engine backend ~pages_per_file:shape.Workload.pages_per_file
      ~retry_wait_ms:8.0
  in
  Driver.run engine config sut ~gen:(Workload.make shape)

let c1_run_tso engine shape config =
  let backend = Tsorder.create () in
  let sut = Sut.tsorder ~remote:engine backend ~pages_per_file:shape.Workload.pages_per_file in
  Driver.run engine config sut ~gen:(Workload.make shape)

let c1 () =
  banner "c1-occ-vs-locking"
    "Throughput and aborts: optimistic vs XDFS-2PL vs SWALLOW timestamps"
    "§3.1/§6: OCC maximises concurrency for small updates; locking suits large contended ones";
  let config =
    { Driver.default_config with clients = 16; duration_ms = 20_000.0; think_ms = 20.0 }
  in
  let scenarios =
    [
      ( "small updates, low contention",
        "small",
        { Workload.small_updates with nfiles = 64; pages_per_file = 16 } );
      ( "small updates, hot files (zipf .9)",
        "hot",
        { Workload.small_updates with nfiles = 8; pages_per_file = 16; file_theta = 0.9;
          page_theta = 0.9 } );
      ( "medium updates (8 pages), hot",
        "medium",
        { Workload.small_updates with nfiles = 4; pages_per_file = 32; read_pages = 4;
          rmw_pages = 4; file_theta = 0.9; page_theta = 0.6 } );
      ( "large updates (24 pages), 2 hot files",
        "large",
        { Workload.small_updates with nfiles = 2; pages_per_file = 48; read_pages = 12;
          rmw_pages = 12; file_theta = 0.9; page_theta = 0.4 } );
    ]
  in
  List.iter
    (fun (label, key, shape) ->
      Printf.printf "\n-- %s --\n" label;
      let rows =
        List.map
          (fun run ->
            let report = run (Engine.create ()) shape config in
            let m name v =
              metric_i "c1-occ-vs-locking"
                (Printf.sprintf "%s.%s.%s" report.Driver.sut_name key name)
                v
            in
            m "committed" report.Driver.committed;
            m "attempts" report.Driver.attempts;
            m "given_up" report.Driver.given_up;
            let redo = report.Driver.attempts - report.Driver.committed - report.Driver.given_up in
            [
              report.Driver.sut_name;
              string_of_int report.Driver.committed;
              f1 report.Driver.throughput_per_s;
              pct redo report.Driver.attempts;
              string_of_int report.Driver.given_up;
              f2 report.Driver.mean_latency_ms;
              f2 report.Driver.p99_ms;
            ])
          [ c1_run_afs; c1_run_afs_pair; c1_run_twopl; c1_run_tso ]
      in
      table
        [ "system"; "committed"; "txn/s"; "redo rate"; "starved"; "mean ms"; "p99 ms" ]
        rows)
    scenarios;
  note "afs-occ sends two messages for the first attempt (an Open batch of reads, a";
  note "Version batch of writes + commit) and one per redo (a lost commit answers with the";
  note "redo's reads); xdfs-2pl and swallow-ts send one per access, as their protocols do.";
  note "So OCC leads at every size here, and the lead grows with the update: the redo";
  note "bill stays smaller than the locking side's per-access round trips. The";
  note "§3.1 crossover (locking for large contended updates) shows only at equal message";
  note "counts per access. Timestamps starve old transactions on hot data ('starved')."

(* {2 C2 — crash recovery: no rollback, no lock clearing} *)

let c2 () =
  banner "c2-crash-recovery" "Service resumption after a server crash"
    "§3.1/§6: no rollback, no lock clearing, no intentions lists; clients just redo";
  (* AFS: two servers on one store; crash the primary mid-update and
     measure client-visible downtime in simulated ms. *)
  let afs_row =
    let engine = Engine.create () in
    let store = Store.memory () in
    let ports = Afs_core.Ports.create () in
    let srv1 = Server.create ~seed:3 ~ports store in
    let srv2 = Server.create ~seed:3 ~ports store in
    let host1 = Remote.host ~latency_ms:2.0 engine ~name:"afs-1" srv1 in
    let host2 = Remote.host ~latency_ms:2.0 engine ~name:"afs-2" srv2 in
    let conn = Remote.connect [ host1; host2 ] in
    let downtime = ref 0.0 in
    let lost_work = ref 0 in
    let _ =
      Proc.spawn engine (fun () ->
          let f = ok (Remote.create_file conn (bytes "state")) in
          (* Update in flight at crash time. *)
          let v = ok (open_version conn f) in
          ok (on_version conn v [ Remote.Write (P.root, bytes "halfway") ]);
          let crash_at = Engine.now engine in
          Remote.crash_host host1;
          (* Client redoes on the surviving server. *)
          (match on_version conn v [ Remote.Commit ] with
          | Ok () -> ()
          | Error _ ->
              incr lost_work;
              let v = ok (open_version conn f) in
              ok (on_version conn v [ Remote.Write (P.root, bytes "redone") ]);
              ok (on_version conn v [ Remote.Commit ]));
          downtime := Engine.now engine -. crash_at)
    in
    Engine.run engine;
    [ "afs-occ (failover)"; "0"; "0"; "0"; string_of_int !lost_work; f1 !downtime ]
  in
  (* 2PL: price the recovery actions with storage-scale constants — one
     disk write per intention replayed (28.8ms), 1ms per lock cleared,
     5ms per transaction rolled back — then add the restart itself. *)
  let twopl_row in_flight =
    let clock = ref 0.0 in
    let t = Twopl.create ~clock:(fun () -> !clock) () in
    let txns =
      List.init in_flight (fun i ->
          let txn = Twopl.begin_ t in
          for o = 0 to 3 do
            (match Twopl.read t txn ~obj:((i * 16) + o) with Ok _ -> () | Error _ -> ())
          done;
          (match Twopl.write t txn ~obj:((i * 16) + 8) (bytes "wip") with
          | Ok () -> ()
          | Error _ -> ());
          txn)
    in
    (* One of them crashes mid-commit with a six-entry intentions list. *)
    let committer = Twopl.begin_ t in
    for o = 100 to 105 do
      match Twopl.write t committer ~obj:o (bytes "commit me") with Ok () -> () | Error _ -> ()
    done;
    (match Twopl.crash_mid_commit t committer with Ok () -> () | Error _ -> ());
    ignore txns;
    let stats = Twopl.recover t in
    let ms =
      (1.0 *. float_of_int stats.Twopl.locks_cleared)
      +. (5.0 *. float_of_int stats.Twopl.txns_rolled_back)
      +. (28.8 *. float_of_int stats.Twopl.intentions_replayed)
    in
    [
      Printf.sprintf "xdfs-2pl (%d txns in flight)" in_flight;
      string_of_int stats.Twopl.locks_cleared;
      string_of_int stats.Twopl.txns_rolled_back;
      string_of_int stats.Twopl.intentions_replayed;
      string_of_int (in_flight + 1);
      f1 ms;
    ]
  in
  table
    [ "system"; "locks cleared"; "rollbacks"; "intentions replayed"; "updates redone";
      "downtime ms" ]
    [ afs_row; twopl_row 4; twopl_row 16; twopl_row 64 ];
  note "AFS downtime is one failed round trip plus the redo — constant; 2PL recovery work";
  note "grows linearly with in-flight transactions, and the service is down meanwhile"

(* {2 C3 — cache validation cost} *)

let c3 () =
  banner "c3-cache-validation" "Cache validation cost vs what actually changed"
    "§5.4: cost ~ |intersection|; unshared file => null operation; no unsolicited messages";
  let npages = 256 in
  let run ~intervening ~pages_per_commit =
    let store, srv, io = counting_server () in
    ignore store;
    let f = file_with_pages srv npages in
    let basis = ok (Server.current_block_of_file srv f) in
    let rng = Xrng.create 5 in
    for _ = 1 to intervening do
      let v = ok (Server.create_version srv f) in
      for _ = 1 to pages_per_commit do
        ok
          (Server.write_page srv v (P.of_list [ Xrng.int rng npages ]) (bytes "change"))
      done;
      ok (Server.commit srv v)
    done;
    ok (Pagestore.flush (Server.pagestore srv));
    Pagestore.drop_volatile (Server.pagestore srv);
    let r0, _ = io () in
    let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
    let r1, _ = io () in
    let key = Printf.sprintf "n%d_p%d" intervening pages_per_commit in
    metric "c3-cache-validation" (key ^ "_invalid")
      (float_of_int (List.length v.Cache.invalid));
    metric "c3-cache-validation" (key ^ "_reads") (float_of_int (r1 - r0));
    [
      string_of_int intervening;
      string_of_int pages_per_commit;
      string_of_int (List.length v.Cache.invalid);
      string_of_int (r1 - r0);
    ]
  in
  let rows =
    [ run ~intervening:0 ~pages_per_commit:0 ]
    @ List.map (fun n -> run ~intervening:n ~pages_per_commit:1) [ 1; 4; 16; 64 ]
    @ [ run ~intervening:4 ~pages_per_commit:16 ]
  in
  table
    [ "intervening commits"; "pages/commit"; "paths invalidated"; "store reads (cost)" ]
    rows;
  note "row 1 is the unshared-file case: zero reads beyond the currency check — the";
  note "validation is a null operation. Cost scales with changes, not with the %d-page file" npages

(* {2 C4 — serialisability test cost} *)

let c4 () =
  banner "c4-serialise-cost" "Serialisability test cost vs the two update sizes"
    "§5.2: one pass, skipping unvisited branches; fast when either update is small";
  let fanout = 8 and depth = 4 in
  let sizes = [ 1; 8; 64; 512 ] in
  let rows =
    List.concat_map
      (fun size_b ->
        List.map
          (fun size_c ->
            let _store, srv, _ = counting_server () in
            let f, leaves = deep_file srv ~fanout ~depth in
            let leaves = Array.of_list leaves in
            let vb = ok (Server.create_version srv f) in
            let vc = ok (Server.create_version srv f) in
            (* Interleaved disjoint leaves (candidate even, committed odd
               slots): no conflict, but the two access patterns share as
               much interior path as their sizes allow — the worst case
               for the walk. *)
            let nleaves = Array.length leaves in
            for i = 0 to size_b - 1 do
              ok (Server.write_page srv vb leaves.(2 * i mod nleaves) (bytes "b"))
            done;
            for i = 0 to size_c - 1 do
              ok (Server.write_page srv vc leaves.(((2 * i) + 1) mod nleaves) (bytes "c"))
            done;
            ok (Server.commit srv vc);
            let before = counter srv "serialise.pages_visited" in
            ok (Server.commit srv vb);
            let visited = counter srv "serialise.pages_visited" - before in
            metric "c4-serialise-cost"
              (Printf.sprintf "visited_b%d_c%d" size_b size_c)
              (float_of_int visited);
            [ string_of_int size_b; string_of_int size_c; string_of_int visited;
              f2 (float_of_int visited /. float_of_int (min size_b size_c + 1)) ])
          sizes)
      sizes
  in
  table
    [ "candidate pages"; "committed pages"; "pages visited"; "visited/min(sizes)" ]
    rows;
  note "tree has %d pages; the walk only descends branches BOTH updates copied, so cost"
    (int_of_float (float_of_int (Array.fold_left ( * ) 1 [| fanout; fanout; fanout; fanout |])));
  note "tracks the smaller update, exactly as §5.2 argues"

(* {2 C5 — stable storage} *)

let ok_stable = function Ok v -> v | Error e -> failwith (Fmt.str "%a" Stable.pp_error e)

let c5 () =
  banner "c5-stable-storage" "Dual-server stable storage: overhead, collisions, recovery"
    "§4: write companion-first; collisions detected before damage; compare-notes recovery";
  (* Write overhead vs a plain single-disk block server, each read off
     its layer's clock. The block server's allocation touches no disk:
     only the writes are timed. *)
  let plain_ms =
    let module B = Afs_block.Block_server in
    let disk = Disk.create ~media:Media.magnetic ~blocks:1024 ~block_size:32768 () in
    let bs = B.create ~disk () in
    let total = ref 0.0 in
    for _ = 1 to 100 do
      match B.allocate bs 1 with
      | Ok b ->
          let before = B.busy_ms bs in
          ignore (B.write bs 1 b (Bytes.make 4096 'x'));
          total := !total +. (B.busy_ms bs -. before)
      | Error _ -> ()
    done;
    !total /. 100.0
  in
  let stable_ms =
    let pair = Stable.create ~media:Media.magnetic ~blocks:1024 ~block_size:32768 () in
    for _ = 1 to 100 do
      ignore (ok_stable (Stable.allocate_write pair 0 (Bytes.make 4096 'x')))
    done;
    Stable.busy_ms pair /. 100.0
  in
  metric "c5-stable-storage" "plain_ms_per_4k_write" plain_ms;
  metric "c5-stable-storage" "stable_ms_per_4k_write" stable_ms;
  table [ "write path"; "ms per 4K allocate+write" ]
    [
      [ "plain block server (1 copy)"; f2 plain_ms ];
      [ "stable pair (2 copies + 1 hop)"; f2 stable_ms ];
      [ "overhead factor"; f2 (stable_ms /. plain_ms) ];
    ];
  (* Collision rate: interleaved allocations from both servers over a
     small address space, driving the protocol steps directly. *)
  Printf.printf "\nallocate collisions (two servers, interleaved tentative choices):\n";
  let collision_rows =
    List.map
      (fun blocks ->
        let pair = Stable.create ~seed:77 ~blocks ~block_size:256 () in
        let collisions = ref 0 and attempts = ref 0 in
        (let quota = blocks * 2 / 5 in
         for _ = 1 to quota do
           (* Both servers choose tentatively before either shadow-writes:
              the §4 race, forced. *)
           incr attempts;
           let a = Stable.tentative_allocate pair 0 in
           let b = Stable.tentative_allocate pair 1 in
           match (a, b) with
           | Ok ba, Ok bb ->
               (match Stable.shadow_write pair ~primary:0 ba (bytes "a") with
               | Error (Stable.Collision _) ->
                   incr collisions;
                   Stable.abort_tentative pair 0 ba
               | Ok seq -> ignore (Stable.local_write_seq pair 0 ba (bytes "a") seq)
               | Error _ -> ());
               (match Stable.shadow_write pair ~primary:1 bb (bytes "b") with
               | Error (Stable.Collision _) ->
                   incr collisions;
                   Stable.abort_tentative pair 1 bb
               | Ok seq -> ignore (Stable.local_write_seq pair 1 bb (bytes "b") seq)
               | Error _ -> ())
           | _ -> ()
         done);
        let invariant =
          match Stable.verify_companion_invariant pair with Ok () -> "holds" | Error _ -> "BROKEN"
        in
        [ string_of_int blocks; string_of_int !attempts; string_of_int !collisions;
          pct !collisions (2 * !attempts); invariant ])
      [ 16; 64; 256; 1024 ]
  in
  table [ "address space"; "paired attempts"; "collisions"; "collision rate"; "invariant" ]
    collision_rows;
  (* Recovery after an outage. *)
  Printf.printf "\nrecovery after outage (writes continue on the survivor):\n";
  let recovery_rows =
    List.map
      (fun writes_during_outage ->
        let pair = Stable.create ~blocks:4096 ~block_size:1024 () in
        let blocks_written =
          List.init 64 (fun i -> ok_stable (Stable.allocate_write pair 0 (bytes (string_of_int i))))
        in
        Stable.crash pair 1;
        for i = 0 to writes_during_outage - 1 do
          ignore
            (ok_stable
               (Stable.write pair 0 (List.nth blocks_written (i mod 64)) (bytes "updated")))
        done;
        let before = Stable.busy_ms pair in
        let repaired = ok_stable (Stable.restart pair 1) in
        let cost_ms = Stable.busy_ms pair -. before in
        metric "c5-stable-storage"
          (Printf.sprintf "recovery_ms_after_%d_writes" writes_during_outage)
          cost_ms;
        [ string_of_int writes_during_outage; string_of_int repaired; f1 cost_ms ])
      [ 0; 16; 64; 256 ]
  in
  table [ "writes during outage"; "blocks repaired"; "recovery cost ms" ] recovery_rows;
  (* What a commit costs stable storage: a fixed stream of updates, each
     reading six pages of a 16-page file and read-modify-writing a
     seventh, through the file server over a stable pair. Every leg is
     one disk write, counted from the pair's trace. *)
  Printf.printf "\nstable storage per commit (6 reads + 1 read-modify-write, 200 updates):\n";
  let legs = ref 0 in
  let trace =
    Afs_trace.Trace.stream
      ~now:(fun () -> 0.0)
      (function
        | Afs_trace.Trace.Point { payload = Afs_trace.Trace.Stable_leg _; _ } -> incr legs
        | _ -> ())
  in
  let pair = Stable.create ~media:Media.electronic ~trace ~blocks:4096 ~block_size:4096 () in
  let store, io = Store.counting (Store.of_stable_pair pair) in
  let srv = Server.create store in
  let npages = 16 and updates = 200 in
  let f = file_with_pages srv npages in
  let legs0 = !legs and _, writes0 = io () in
  let words0 = Stdlib.Gc.minor_words () in
  for i = 1 to updates do
    let v = ok (Server.create_version srv f) in
    for r = 1 to 6 do
      ignore (ok (Server.read_page srv v (P.of_list [ (i + r) mod npages ])))
    done;
    let target = P.of_list [ i mod npages ] in
    let old = ok (Server.read_page srv v target) in
    ok (Server.write_page srv v target (Bytes.cat old (bytes "+")));
    ok (Server.commit srv v)
  done;
  (* The loop runs in one process with no clock or scheduler, so the
     words it allocates are a pure function of the code, gated like the
     counters: stable reads that answer the disk's own bytes show here. *)
  let words_per_commit = (Stdlib.Gc.minor_words () -. words0) /. float_of_int updates in
  let per_commit n = float_of_int n /. float_of_int updates in
  let legs_per_commit = per_commit (!legs - legs0) in
  let store_writes_per_commit = per_commit (snd (io ()) - writes0) in
  metric "c5-stable-storage" "legs_per_commit" legs_per_commit;
  metric "c5-stable-storage" "store_writes_per_commit" store_writes_per_commit;
  metric "c5-stable-storage" "minor_words_per_commit" words_per_commit;
  table [ "stable legs / commit"; "store writes / commit"; "minor words / commit" ]
    [ [ f2 legs_per_commit; f2 store_writes_per_commit; f1 words_per_commit ] ];
  note "overhead ~2x + a network hop buys: reads survive one disk loss, writes survive";
  note "one server loss, and collisions are caught at the companion before any damage;";
  note "a commit writes its version page, its written page and its commit reference,";
  note "two legs each: allocation is the first write, and read copies are reshared"

(* {2 C6 — super-file locking keeps unrelated work flowing} *)

let c6 () =
  banner "c6-superfile-locking" "Small-file updates during a super-file update"
    "§5.3: unaccessed sub-files stay updatable; locks warn where conflicts are certain";
  let subfiles = 8 in
  let rows =
    List.map
      (fun touched ->
        let store = Store.memory () in
        let srv = Server.create store in
        let subs = List.init subfiles (fun _ -> file_with_pages srv 4) in
        let super = ok (Afs_core.Superfile.make srv ~subfiles:subs ()) in
        let u = ok (Afs_core.Superfile.begin_update srv super) in
        for i = 0 to touched - 1 do
          let sv = ok (Afs_core.Superfile.touch_subfile u ~index:i) in
          ok (Server.write_page srv sv (P.of_list [ 0 ]) (bytes "super"))
        done;
        (* Now 100 small updates across all sub-files. *)
        let committed = ref 0 and blocked = ref 0 in
        let rng = Xrng.create 9 in
        for _ = 1 to 100 do
          let target = List.nth subs (Xrng.int rng subfiles) in
          match Server.create_version srv target with
          | Ok v ->
              ok (Server.write_page srv v (P.of_list [ Xrng.int rng 4 ]) (bytes "small"));
              (match Server.commit srv v with Ok () -> incr committed | Error _ -> ())
          | Error (Errors.Locked_out _) -> incr blocked
          | Error e -> failwith (Errors.to_string e)
        done;
        ok (Afs_core.Superfile.commit u);
        [ string_of_int touched; string_of_int !committed; string_of_int !blocked;
          pct !blocked 100 ]
      )
      [ 0; 2; 4; 8 ]
  in
  table
    [ "sub-files locked by super update"; "small updates committed"; "blocked"; "blocked rate" ]
    rows;
  note "blocking tracks exactly the touched fraction (k/8): locking is surgical, not global"

(* {2 C7 — write-once media} *)

let c7 () =
  banner "c7-write-once" "A versioned store on write-once (optical) media"
    "§6: the version mechanism + a pre-commit cache is an ideal file store for optical disks";
  let updates = 300 in
  let run_hybrid ~cache =
    let store, worm_stats = Store.worm_hybrid ~blocks:200_000 ~block_size:33000 () in
    let srv = Server.create ~page_cache:cache store in
    let f = file_with_pages srv 16 in
    let rng = Xrng.create 4 in
    for i = 1 to updates do
      let v = ok (Server.create_version srv f) in
      ok (Server.write_page srv v (P.of_list [ Xrng.int rng 16 ]) (bytes (string_of_int i)));
      ok (Server.commit srv v)
    done;
    ok (Pagestore.flush (Server.pagestore srv));
    let s = worm_stats () in
    let readable =
      let cur = ok (Server.current_version srv f) in
      match Server.read_page srv cur (P.of_list [ 0 ]) with Ok _ -> "yes" | Error _ -> "no"
    in
    [ (if cache then "optical bulk + magnetic index, cache" else "same, write-through");
      string_of_int s.Store.bulk_writes; string_of_int s.Store.bulk_blocks;
      string_of_int s.Store.index_writes; string_of_int s.Store.index_blocks; readable ]
  in
  let run_magnetic () =
    let disk = Disk.create ~media:Media.magnetic ~blocks:200_000 ~block_size:33000 () in
    let bs = Afs_block.Block_server.create ~disk () in
    let store = Store.of_block_server bs ~account:1 in
    let srv = Server.create store in
    let f = file_with_pages srv 16 in
    let rng = Xrng.create 4 in
    for i = 1 to updates do
      let v = ok (Server.create_version srv f) in
      ok (Server.write_page srv v (P.of_list [ Xrng.int rng 16 ]) (bytes (string_of_int i)));
      ok (Server.commit srv v)
    done;
    let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 4; reshare = true } srv) in
    ok (Pagestore.flush (Server.pagestore srv));
    let s = Disk.stats disk in
    [ Printf.sprintf "all-magnetic + GC (reclaimed %d)" stats.Gc.blocks_freed;
      string_of_int s.Disk.writes; string_of_int s.Disk.blocks_in_use; "-"; "-"; "yes" ]
  in
  table
    [ "configuration"; "bulk writes"; "bulk blocks"; "index writes"; "index blocks";
      "readable" ]
    [ run_hybrid ~cache:true; run_hybrid ~cache:false; run_magnetic () ];
  note "%d one-page updates on a 16-page file. Only version pages ever need rewriting" updates;
  note "(commit references and flags), and they migrate to the small magnetic index —";
  note "Figure 2's 'top of the tree on magnetic media'. Every data page is etched exactly";
  note "once; history accumulates naturally on the WORM platter, unreclaimed by design"

(* {2 C8 — starvation of large updates and the soft-lock cure} *)

let c8 () =
  banner "c8-starvation" "A large update racing a stream of small ones"
    "§6: starvation can occur; the (soft) locking mechanism wards it off";
  let npages = 64 in
  let big_pages = 32 in
  let run ~seed ~small_every ~use_hint =
    let store = Store.memory () in
    let srv = Server.create store in
    let f = file_with_pages srv npages in
    let rng = Xrng.create seed in
    let ports = Server.ports srv in
    let small_round i =
      (* [small_every] small updates arrive between each big attempt. *)
      for _ = 1 to small_every do
        match Server.create_version ~respect_hints:use_hint srv f with
        | Ok v ->
            let p = Xrng.int rng npages in
            (match Server.read_page srv v (P.of_list [ p ]) with Ok _ -> () | Error _ -> ());
            ok (Server.write_page srv v (P.of_list [ p ]) (bytes (string_of_int i)));
            (match Server.commit srv v with Ok () -> () | Error _ -> ())
        | Error (Errors.Locked_out _) -> () (* Honouring the hint. *)
        | Error e -> failwith (Errors.to_string e)
      done
    in
    let rec big_attempt n =
      if n > 200 then None
      else begin
        let port = if use_hint then Afs_core.Ports.fresh ports else 0 in
        match Server.create_version ~updater_port:port srv f with
        | Error _ -> None
        | Ok v ->
            (* The big update reads and rewrites half the file. *)
            for p = 0 to big_pages - 1 do
              (match Server.read_page srv v (P.of_list [ p ]) with Ok _ -> () | Error _ -> ());
              ok (Server.write_page srv v (P.of_list [ p ]) (bytes "big"))
            done;
            small_round n;
            (match Server.commit srv v with
            | Ok () ->
                if use_hint then Afs_core.Ports.kill ports port;
                Some n
            | Error Errors.Conflict ->
                if use_hint then Afs_core.Ports.kill ports port;
                big_attempt (n + 1)
            | Error e -> failwith (Errors.to_string e))
      end
    in
    big_attempt 1
  in
  let trials = 30 in
  let summarise ~small_every ~use_hint =
    let total = ref 0 and starved = ref 0 in
    for seed = 1 to trials do
      match run ~seed ~small_every ~use_hint with
      | Some attempts -> total := !total + attempts
      | None ->
          incr starved;
          total := !total + 200
    done;
    Printf.sprintf "%.1f%s"
      (float_of_int !total /. float_of_int trials)
      (if !starved > 0 then Printf.sprintf " (%d starved)" !starved else "")
  in
  let rows =
    List.map
      (fun small_every ->
        [
          string_of_int small_every;
          summarise ~small_every ~use_hint:false;
          summarise ~small_every ~use_hint:true;
        ])
      [ 0; 1; 2; 4; 8 ]
  in
  table
    [ "small updates per big attempt"; "mean attempts (plain OCC)";
      "mean attempts (soft lock)" ]
    rows;
  note "with the top-lock hint honoured, small updates pause while the big one holds the";
  note "hint, so it lands on attempt 1; plain OCC retries grow with the interference rate"

(* {2 C9 — one-page files pay nothing} *)

let c9 () =
  banner "c9-one-page-files" "Whole-file writes: the one-page fast path"
    "§6: a 32K page often holds a whole file; writing such files has no CC overhead";
  let engine = Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let host = Remote.host ~latency_ms:2.0 engine ~name:"afs" srv in
  let conn = Remote.connect [ host ] in
  let results = ref [] in
  let _ =
    Proc.spawn engine (fun () ->
        List.iter
          (fun npages ->
            (* A file of [npages] pages rewritten completely. *)
            let f = ok (Remote.create_file conn (bytes "seed")) in
            let v0 = ok (open_version conn f) in
            for i = 0 to npages - 2 do
              ok
                (on_version conn v0
                   [ Remote.Insert { parent = P.root; index = i; data = bytes "x" } ])
            done;
            ok (on_version conn v0 [ Remote.Commit ]);
            let t0 = Engine.now engine in
            let rounds = 10 in
            for _ = 1 to rounds do
              let v = ok (open_version conn f) in
              ok (on_version conn v [ Remote.Write (P.root, bytes "rewrite") ]);
              for i = 0 to npages - 2 do
                ok (on_version conn v [ Remote.Write (P.of_list [ i ], bytes "rewrite") ])
              done;
              ok (on_version conn v [ Remote.Commit ])
            done;
            let ms = (Engine.now engine -. t0) /. float_of_int rounds in
            results := (npages, ms) :: !results)
          [ 1; 2; 4; 16; 64 ])
  in
  Engine.run engine;
  let rows =
    List.rev_map
      (fun (npages, ms) ->
        [ string_of_int npages; f1 ms; f2 (ms /. float_of_int npages) ])
      !results
  in
  table [ "file size (pages)"; "ms per whole-file write"; "ms per page" ] rows;
  note "a one-page file costs 3 round trips (create version, write, commit) and the commit";
  note "is a bare test-and-set: no locks were taken, no validation work was done"
