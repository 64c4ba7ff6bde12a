(* afs_trace: sinks, structural queries, catapult export/import, and the
   trace-derived oracles — F5's "uncontended commit is one test-and-set"
   and C2's "AFS recovery does no rollback/replay work" — that aggregate
   counters cannot express. *)

open Afs_core
module Trace = Afs_trace.Trace
module Query = Afs_trace.Query
module Catapult = Afs_trace.Catapult

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let clock_ring ?capacity () =
  let now = ref 0.0 in
  (now, Trace.ring ?capacity ~now:(fun () -> !now) ())

(* {2 Sinks} *)

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null);
  Trace.point Trace.null (Trace.Rollback { txns = 3 });
  let id = Trace.open_span Trace.null ~kind:"x" () in
  Alcotest.(check int) "disabled span id is 0" 0 id;
  Trace.close_span Trace.null id;
  Alcotest.(check int) "ran the thunk" 41 (Trace.span Trace.null ~kind:"x" (fun () -> 41));
  Alcotest.(check int) "no events" 0 (List.length (Trace.events Trace.null));
  Alcotest.(check int) "nothing emitted" 0 (Trace.events_emitted Trace.null)

let test_ring_sink_records_in_order () =
  let now, tr = clock_ring () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  let s = Trace.open_span tr ~kind:"commit" ~label:"v1" () in
  now := 5.0;
  Trace.point tr (Trace.Test_and_set { block = 7; won = true });
  now := 9.0;
  Trace.close_span tr s;
  match Trace.events tr with
  | [ Trace.Span_open o; Trace.Point p; Trace.Span_close c ] ->
      Alcotest.(check bool) "seqs increase" true (o.seq < p.seq && p.seq < c.seq);
      Alcotest.(check (float 0.0)) "open at 0" 0.0 o.at_ms;
      Alcotest.(check (float 0.0)) "point at 5" 5.0 p.at_ms;
      Alcotest.(check (float 0.0)) "close at 9" 9.0 c.at_ms;
      Alcotest.(check string) "point kind" "commit.test_and_set"
        (Trace.kind_of_payload p.payload)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_ring_sink_keeps_newest_window () =
  let _, tr = clock_ring ~capacity:4 () in
  for i = 1 to 10 do
    Trace.point tr (Trace.Rollback { txns = i })
  done;
  let evs = Trace.events tr in
  Alcotest.(check int) "bounded" 4 (List.length evs);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  Alcotest.(check int) "emitted counts everything" 10 (Trace.events_emitted tr);
  match evs with
  | Trace.Point { payload = Trace.Rollback { txns }; _ } :: _ ->
      Alcotest.(check int) "oldest survivor is event 7" 7 txns
  | _ -> Alcotest.fail "expected rollback points"

let test_stream_sink_delivers_each_event () =
  let got = ref [] in
  let tr = Trace.stream ~now:(fun () -> 1.0) (fun e -> got := e :: !got) in
  Trace.span tr ~kind:"outer" (fun () -> Trace.point tr (Trace.Gc_phase { phase = "mark"; count = 3 }));
  Alcotest.(check int) "three callbacks" 3 (List.length !got);
  Alcotest.(check int) "stream buffers nothing" 0 (List.length (Trace.events tr))

(* {2 Queries} *)

let test_query_span_nesting_and_self_time () =
  let now, tr = clock_ring () in
  Trace.span tr ~kind:"outer" (fun () ->
      now := 2.0;
      Trace.span tr ~kind:"inner" (fun () -> now := 6.0);
      now := 10.0);
  let evs = Trace.events tr in
  let outer = List.hd (Query.spans_of_kind evs "outer") in
  let inner = List.hd (Query.spans_of_kind evs "inner") in
  Alcotest.(check int) "outer is a root" 0 outer.Query.parent;
  Alcotest.(check int) "inner nests under outer" outer.Query.id inner.Query.parent;
  Alcotest.(check (float 1e-9)) "inner duration" 4.0 (Query.duration inner);
  Alcotest.(check (float 1e-9)) "outer duration" 10.0 (Query.duration outer);
  Alcotest.(check (float 1e-9)) "outer self time" 6.0 (Query.self_ms evs outer);
  Alcotest.(check (float 1e-9)) "critical path" 10.0 (Query.critical_path_ms evs outer)

let test_query_unclosed_and_orphan_spans () =
  let _, tr = clock_ring () in
  let a = Trace.open_span tr ~kind:"a" () in
  Trace.close_span tr (a + 99) (* Orphan close: no matching open. *);
  let spans = Query.spans (Trace.events tr) in
  match spans with
  | [ s ] ->
      Alcotest.(check int) "only the real span" a s.Query.id;
      Alcotest.(check bool) "never closed" true (s.Query.stop_ms = None);
      Alcotest.(check (float 0.0)) "unclosed duration is 0" 0.0 (Query.duration s)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_query_counts_and_slowest () =
  let now, tr = clock_ring () in
  let s1 = Trace.open_span tr ~kind:"txn" ~label:"t1" () in
  now := 3.0;
  Trace.close_span tr s1;
  let s2 = Trace.open_span tr ~kind:"txn" ~label:"t2" () in
  Trace.point tr (Trace.Block_lock { block = 1; won = true });
  Trace.point tr (Trace.Block_lock { block = 1; won = false });
  now := 12.0;
  Trace.close_span tr s2;
  let evs = Trace.events tr in
  Alcotest.(check int) "point count" 2 (Query.count evs "block.lock");
  Alcotest.(check (list (pair string int)))
    "per-kind totals" [ ("block.lock", 2); ("txn", 2) ] (Query.kind_counts evs);
  match Query.slowest evs 1 with
  | [ s ] -> Alcotest.(check string) "slowest is t2" "t2" s.Query.label
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* {2 Catapult export/import} *)

let sample_trace () =
  let now, tr = clock_ring () in
  let s = Trace.open_span tr ~kind:"commit" ~label:"file \"a\"" () in
  now := 1.5;
  Trace.point tr (Trace.Disk_read { media = "magnetic"; block = 9; bytes = 512; cost_ms = 22.5 });
  Trace.point tr (Trace.Cache_drop { file_obj = 3; path = "/0/1" });
  Trace.point tr (Trace.Block_lock { block = 9; won = false });
  now := 4.25;
  Trace.close_span tr s;
  Trace.point tr (Trace.Gc_phase { phase = "sweep"; count = 17 });
  Trace.events tr

let span_repr s =
  ( (s.Query.id, s.Query.parent),
    (s.Query.kind, s.Query.label),
    (s.Query.start_ms, s.Query.stop_ms) )

let test_catapult_roundtrip () =
  let evs = sample_trace () in
  let doc = Catapult.to_string evs in
  match Catapult.parse doc with
  | Error msg -> Alcotest.fail msg
  | Ok evs' ->
      Alcotest.(check int) "event count" (List.length evs) (List.length evs');
      Alcotest.(check (list (pair string int)))
        "kinds survive" (Query.kind_counts evs) (Query.kind_counts evs');
      Alcotest.(check bool) "spans round-trip exactly" true
        (List.map span_repr (Query.spans evs) = List.map span_repr (Query.spans evs'));
      (* Re-rendering the import reproduces the document byte for byte:
         the exporter/importer pair is a fixpoint. *)
      Alcotest.(check string) "render . parse fixpoint" doc (Catapult.to_string evs')

let test_catapult_writer_matches_to_string () =
  let evs = sample_trace () in
  let buf = Buffer.create 256 in
  let w = Catapult.writer (Buffer.add_string buf) in
  List.iter (Catapult.emit w) evs;
  Catapult.finish w;
  Alcotest.(check string) "incremental = batch" (Catapult.to_string evs) (Buffer.contents buf)

let test_catapult_rejects_garbage () =
  (match Catapult.parse "{\"not\": \"an array\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on non-array");
  match Catapult.parse "[{\"ph\":\"B\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on truncated document"

(* {2 F5 oracle: the uncontended fast path} *)

let test_f5_fastpath_is_one_test_and_set () =
  let _, tr = clock_ring () in
  let _, srv = Helpers.fresh_server ~trace:tr () in
  let f = Helpers.file_with_pages srv 3 in
  let mark = Trace.events_emitted tr in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "x"));
  ok (Server.commit srv v);
  let evs = Helpers.events_since tr mark in
  Alcotest.(check int) "exactly one test-and-set" 1 (Query.count evs "commit.test_and_set");
  (match Query.points_of_kind evs "commit.test_and_set" with
  | [ Trace.Test_and_set { won; _ } ] -> Alcotest.(check bool) "and it won" true won
  | _ -> Alcotest.fail "unexpected test-and-set payloads");
  (match Query.points_of_kind evs "commit.outcome" with
  | [ Trace.Commit_outcome { outcome; _ } ] ->
      Alcotest.(check string) "fast path outcome" "fastpath" outcome
  | _ -> Alcotest.fail "expected one outcome");
  Alcotest.(check int) "no serialisation phases ran" 0 (Query.count evs "commit.phase");
  Alcotest.(check int) "one commit span" 1 (List.length (Query.spans_of_kind evs "commit"))

let test_retry_chain_visits_increasing_versions () =
  let _, tr = clock_ring () in
  let _, srv = Helpers.fresh_server ~trace:tr () in
  let f = Helpers.file_with_pages srv 4 in
  let va = ok (Server.create_version srv f) in
  ok (Server.write_page srv va (path [ 0 ]) (bytes "A"));
  (* Two disjoint commits slip in under va, so its commit must chase the
     chain: base (lost), successor (lost), successor's successor (won). *)
  let vb = ok (Server.create_version srv f) in
  ok (Server.write_page srv vb (path [ 1 ]) (bytes "B"));
  ok (Server.commit srv vb);
  let vc = ok (Server.create_version srv f) in
  ok (Server.write_page srv vc (path [ 2 ]) (bytes "C"));
  ok (Server.commit srv vc);
  let mark = Trace.events_emitted tr in
  ok (Server.commit srv va);
  let evs = Helpers.events_since tr mark in
  let tas =
    List.filter_map
      (function Trace.Test_and_set { block; won } -> Some (block, won) | _ -> None)
      (Query.points_of_kind evs "commit.test_and_set")
  in
  Alcotest.(check int) "three attempts" 3 (List.length tas);
  Alcotest.(check (list bool)) "only the last wins" [ false; false; true ] (List.map snd tas);
  let blocks = List.map fst tas in
  Alcotest.(check bool) "version blocks strictly increase" true
    (List.for_all2 ( < ) [ List.nth blocks 0; List.nth blocks 1 ] (List.tl blocks));
  match Query.points_of_kind evs "commit.outcome" with
  | [ Trace.Commit_outcome { outcome; _ } ] -> Alcotest.(check string) "merged" "merged" outcome
  | _ -> Alcotest.fail "expected one outcome"

(* {2 C2 oracle: recovery work in the event stream} *)

let test_c2_afs_recovery_emits_no_rollback_or_replay () =
  let now = ref 0.0 in
  let tr = Trace.ring ~now:(fun () -> !now) () in
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ~trace:tr store in
  let f = Helpers.file_with_pages srv 4 in
  (* Plenty of in-flight work at crash time. *)
  let versions = List.init 6 (fun _ -> ok (Server.create_version srv f)) in
  List.iteri (fun i v -> ok (Server.write_page srv v (path [ i mod 4 ]) (bytes "wip"))) versions;
  Server.crash srv;
  let srv2 = Server.create ~seed:7 ~trace:tr store in
  let recovered =
    ok (Server.recover_from_blocks srv2 (Helpers.ok_str (store.Store.list_blocks ())))
  in
  Alcotest.(check bool) "recovery found the file" true (recovered > 0);
  let evs = Trace.events tr in
  Alcotest.(check bool) "the crash is on record" true (Query.count evs "crash" > 0);
  Alcotest.(check bool) "so is the rebuild" true (Query.count evs "recovery.files" > 0);
  (* The paper's claim, as an absence in the event stream. *)
  Alcotest.(check int) "no rollback" 0 (Query.count evs "recovery.rollback");
  Alcotest.(check int) "no intentions replay" 0 (Query.count evs "recovery.replay")

let test_c2_twopl_recovery_emits_rollback_and_replay () =
  let clock = ref 0.0 in
  let tr = Trace.ring ~now:(fun () -> !clock) () in
  let t = Afs_baseline.Twopl.create ~trace:tr ~clock:(fun () -> !clock) () in
  let txns = List.init 6 (fun i -> (i, Afs_baseline.Twopl.begin_ t)) in
  List.iter
    (fun (i, txn) ->
      ignore (Afs_baseline.Twopl.read t txn ~obj:i);
      ignore (Afs_baseline.Twopl.write t txn ~obj:(i + 10) (bytes "wip")))
    txns;
  let victim = Afs_baseline.Twopl.begin_ t in
  ignore (Afs_baseline.Twopl.write t victim ~obj:100 (bytes "half"));
  ignore (Afs_baseline.Twopl.write t victim ~obj:101 (bytes "applied"));
  (match Afs_baseline.Twopl.crash_mid_commit t victim with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mid-commit crash should start cleanly");
  ignore (Afs_baseline.Twopl.recover t);
  let evs = Trace.events tr in
  (match Query.points_of_kind evs "recovery.rollback" with
  | [ Trace.Rollback { txns } ] -> Alcotest.(check bool) "rolled back work" true (txns > 0)
  | _ -> Alcotest.fail "expected one rollback event");
  match Query.points_of_kind evs "recovery.replay" with
  | [ Trace.Intentions_replay { count } ] ->
      Alcotest.(check int) "replayed the interrupted intentions" 2 count
  | _ -> Alcotest.fail "expected one replay event"

(* {2 Determinism: same seed, byte-identical trace document} *)

let render_run ~seed ~clients ~pages ~theta =
  let open Afs_workload in
  let buf = Buffer.create 4096 in
  let engine = Afs_sim.Engine.create () in
  let w = Catapult.writer (Buffer.add_string buf) in
  let tr = Trace.stream ~now:(fun () -> Afs_sim.Engine.now engine) (Catapult.emit w) in
  Afs_sim.Engine.set_trace engine tr;
  let shape =
    { Workload.small_updates with nfiles = 4; pages_per_file = pages; file_theta = theta; page_theta = theta }
  in
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ~trace:tr store in
  let files = ok (Workload.setup_pages srv shape ~initial:(bytes "0")) in
  let host = Afs_rpc.Remote.host ~latency_ms:2.0 engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Afs_rpc.Remote.connect [ host ]) ~fallback:srv ~files in
  let config =
    { Driver.default_config with clients; duration_ms = 250.0; think_ms = 5.0; seed }
  in
  ignore (Driver.run engine config sut ~gen:(Workload.make shape));
  Catapult.finish w;
  Buffer.contents buf

let prop_trace_deterministic =
  QCheck.Test.make ~name:"same seed and mix give a byte-identical trace" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 0 2))
    (fun (seed, mix) ->
      let clients = [| 1; 3; 4 |].(mix) in
      let pages = [| 4; 8; 6 |].(mix) in
      let theta = [| 0.0; 0.5; 0.9 |].(mix) in
      let a = render_run ~seed ~clients ~pages ~theta in
      let b = render_run ~seed ~clients ~pages ~theta in
      (* A trivial document would make the equality vacuous. *)
      String.length a > 200 && String.equal a b)

(* A sink with host cost on: per kind, words and clock time, own net of
   child spans. A fake clock ticks once per reading, so an outer span
   around one inner span reads three ticks, two of them its own. Own
   and outside words add up to everything allocated since the sink was
   built, the events are those of a sink without host cost, and a
   section that allocates nothing is charged nothing: the probes
   allocate nothing themselves. *)
let test_host_cost_per_kind () =
  let run host =
    let ticks = ref 0.0 in
    let clock () =
      ticks := !ticks +. 1.0;
      !ticks
    in
    let now () = 0.0 in
    let tr = if host then Trace.ring ~host:clock ~now () else Trace.ring ~now () in
    let before = Stdlib.Gc.minor_words () in
    for _ = 1 to 2 do
      Trace.span tr ~kind:"outer" (fun () ->
          ignore (Sys.opaque_identity (Array.make 50 0));
          Trace.span tr ~kind:"inner" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0))))
    done;
    let nothing () = () in
    Trace.costed tr ~kind:"probe" nothing;
    let outside = Trace.outside_words tr in
    (tr, Stdlib.Gc.minor_words () -. before, outside)
  in
  let plain, _, _ = run false in
  Alcotest.(check (list string)) "no host table without host cost" []
    (List.map (fun (r : Trace.host_cost) -> r.Trace.kind) (Trace.host_costs plain));
  let tr, allocated, outside = run true in
  Alcotest.(check bool) "the same events" true (Trace.events tr = Trace.events plain);
  match Trace.host_costs tr with
  | [ inner; outer; probe ] ->
      Alcotest.(check (list string)) "sorted by kind" [ "inner"; "outer"; "probe" ]
        [ inner.Trace.kind; outer.Trace.kind; probe.Trace.kind ];
      Alcotest.(check (float 0.)) "an empty section costs no words" 0.0 probe.Trace.total_words;
      Alcotest.(check int) "two spans each" 2 outer.Trace.spans;
      Alcotest.(check (float 0.)) "inner time, all its own" 2.0 inner.Trace.own_us;
      Alcotest.(check (float 0.)) "outer time" 6.0 outer.Trace.total_us;
      Alcotest.(check (float 0.)) "outer own time" 4.0 outer.Trace.own_us;
      Alcotest.(check (float 0.)) "inner words, all its own" inner.Trace.total_words
        inner.Trace.own_words;
      Alcotest.(check (float 0.)) "outer own words, net of inner"
        (outer.Trace.total_words -. inner.Trace.total_words) outer.Trace.own_words;
      (* Each span also pays its protecting closure, and an outer span
         its inner span's events: at most 64 words a span. *)
      let in_range what lo x =
        if x < lo || x > lo +. 128. then
          Alcotest.failf "%s: %.0f words (want %.0f to %.0f)" what x lo (lo +. 128.)
      in
      in_range "inner own words" (2. *. 101.) inner.Trace.own_words;
      in_range "outer own words" (2. *. 51.) outer.Trace.own_words;
      let own = inner.Trace.own_words +. outer.Trace.own_words in
      if Float.abs (own +. outside -. allocated) > 64. then
        Alcotest.failf "own %.0f + outside %.0f words, but %.0f allocated" own outside allocated
  | rows -> Alcotest.failf "expected three kinds, got %d" (List.length rows)

let () =
  Alcotest.run "trace"
    [
      ( "sinks",
        [
          quick "null sink is inert" test_null_sink;
          quick "ring records in order" test_ring_sink_records_in_order;
          quick "ring keeps the newest window" test_ring_sink_keeps_newest_window;
          quick "stream delivers each event" test_stream_sink_delivers_each_event;
          quick "host cost per span kind" test_host_cost_per_kind;
        ] );
      ( "query",
        [
          quick "span nesting and self time" test_query_span_nesting_and_self_time;
          quick "unclosed and orphan spans" test_query_unclosed_and_orphan_spans;
          quick "counts and slowest" test_query_counts_and_slowest;
        ] );
      ( "catapult",
        [
          quick "round-trip" test_catapult_roundtrip;
          quick "incremental writer" test_catapult_writer_matches_to_string;
          quick "rejects garbage" test_catapult_rejects_garbage;
        ] );
      ( "oracles",
        [
          quick "F5: fast path is one test-and-set" test_f5_fastpath_is_one_test_and_set;
          quick "retry chain visits increasing versions"
            test_retry_chain_visits_increasing_versions;
          quick "C2: afs recovery emits no rollback/replay"
            test_c2_afs_recovery_emits_no_rollback_or_replay;
          quick "C2: 2pl recovery emits both" test_c2_twopl_recovery_emits_rollback_and_replay;
        ] );
      ("determinism", [ QCheck_alcotest.to_alcotest prop_trace_deterministic ]);
    ]
