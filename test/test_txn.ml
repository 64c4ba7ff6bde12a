(* lib/txn: cross-shard atomic transactions built from ordinary
   optimistic commits, plus the prepare/decide 2PC baseline.

   The properties under attack: the coordinator record's commit is the
   transaction-wide atomic point (money is conserved across shards in
   every crash interleaving), in-doubt participants are resolvable by
   any client from the marker and record alone, and the trace of a
   conflict-free commit is deterministic per seed. *)

open Afs_cluster
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Capability = Afs_util.Capability
module Xrng = Afs_util.Xrng
module P = Afs_util.Pagepath
module Server = Afs_core.Server
module Core_gc = Afs_core.Gc
module Errors = Afs_core.Errors
module Trace = Afs_trace.Trace
module Query = Afs_trace.Query
module Catapult = Afs_trace.Catapult
module CC = Cluster_client
module Txn = Afs_txn.Txn

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok

let ok_txn = function
  | Ok v -> v
  | Error (Txn.Local e) -> Alcotest.failf "local abort: %s" (Errors.to_string e)
  | Error (Txn.Cross e) -> Alcotest.failf "cross abort: %s" (Errors.to_string e)
  | Error (Txn.Failed e) -> Alcotest.failf "txn failed: %s" (Errors.to_string e)

(* Run [body] as a simulated process and return its result. *)
let in_sim body =
  let engine = Engine.create () in
  let result = ref None in
  let _ = Proc.spawn engine (fun () -> result := Some (body engine)) in
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* A cluster and a client, with a fault schedule on the same engine for
   the tests that kill a coordinator. *)
let in_faulty_cluster ?(latency_ms = 1.0) ~shards body =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms engine ~shards in
      body (Faults.create cluster) cluster (CC.connect cluster))

let in_cluster ?latency_ms ~shards body = in_faulty_cluster ?latency_ms ~shards (fun _ -> body)

(* Every coordinator over a cluster counts into the cluster's table. *)
let count cluster name = Afs_util.Stats.Counter.get (Cluster.counters cluster) name

(* A coordinator whose events key kills on [faults]. *)
let killable faults client = Txn.create ~trace:(Faults.tap faults) client

(* Run one transaction on [txn], a {!killable} coordinator, under the
   kill schedule [at]. [on_record] as in [Txn.exec]. *)
let exec_killed ?(on_record = fun _ _ -> ()) faults ~at txn parts =
  match Faults.run faults at (fun () -> Txn.exec ~on_record txn parts) with
  | exception Proc.Killed -> ()
  | _ -> Alcotest.fail "crash point never fired"

(* The coordinator crash sites of a two-part transfer: before the
   decide (the last participant's seal carries it, so the first is the
   only one staged), once the decide committed, and before the flip of
   the first participant, which the coordinator sends itself. *)
let before_decide, after_decide, mid_flip =
  Afs_workload.Workload.(before_decide, after_decide, mid_flip)

(* One-page balance accounts, placed round-robin by [CC.create_file]. *)
let setup_accounts client n init =
  Array.init n (fun i ->
      let f = ok (CC.create_file ~data:(bytes (Printf.sprintf "acct%d" i)) client) in
      ok (Batch_ops.add_pages client f [ bytes (string_of_int init) ]);
      f)

let read_balance client f =
  int_of_string (Bytes.to_string (ok (Batch_ops.read_current client f (P.of_list [ 0 ]))))

let money amt old = bytes (string_of_int (int_of_string (Bytes.to_string old) + amt))
let debit amt = Txn.Rmw (P.of_list [ 0 ], money (-amt))
let credit amt = Txn.Rmw (P.of_list [ 0 ], money amt)
let transfer accts a b amt =
  [ { Txn.file = accts.(a); ops = [ debit amt ] };
    { Txn.file = accts.(b); ops = [ credit amt ] } ]

(* {2 Marker codec} *)

let gen_cap =
  QCheck2.Gen.(
    let* port = int_bound 0xFFFFFF in
    let* obj = int_bound 100_000 in
    let* rights = int_bound 255 in
    let* check = int_bound 0x3FFFFFFF in
    return
      {
        Capability.port = Capability.port_of_int port;
        obj;
        rights = Capability.rights_of_int rights;
        check;
      })

(* A capability whose check is any int, negatives and extremes included
   (the one signed field of a marker). *)
let gen_cap_any_check =
  QCheck2.Gen.(
    let* cap = gen_cap in
    let* check = oneof [ int; return min_int; return max_int; int_range (-100) 100 ] in
    return { cap with Capability.check })

let gen_bytes = QCheck2.Gen.(map Bytes.of_string (string_size (int_bound 40)))

let gen_staged =
  QCheck2.Gen.(
    let* record = gen_cap_any_check in
    let* seq = int_bound 100_000 in
    let* old_root = gen_bytes in
    let* writes =
      list_size (int_bound 4)
        (pair
           (map P.of_list (list_size (int_bound 3) (oneof [ int_bound 7; return max_int ])))
           gen_bytes)
    in
    return { Marker.record; seq; old_root; writes })

let gen_outcome =
  QCheck2.Gen.(
    map2
      (fun seq committed -> Marker.Outcome { seq; committed })
      (oneof [ int_bound 1_000_000; return max_int ])
      bool)

(* Every kind of root data the cluster writes, from one generator. *)
let gen_any_marker =
  QCheck2.Gen.(
    oneof
      [
        map (fun cap -> Marker.Moved cap) gen_cap_any_check;
        map (fun m -> Marker.Staged m) gen_staged;
        gen_outcome;
      ])

let roundtrips m = Marker.decode (Marker.encode m) = Some m

let is_staged root =
  match Marker.decode root with Some (Marker.Staged _) -> true | Some _ | None -> false

let prop_marker_roundtrip =
  QCheck2.Test.make ~name:"txn marker: decode . encode = Some" ~count:200
    gen_staged (fun m -> roundtrips (Marker.Staged m))

let prop_outcome_codec =
  QCheck2.Test.make ~name:"record outcome: decode . encode = Some" ~count:500 gen_outcome
    roundtrips

(* Each value decodes to itself, so in particular never as another kind. *)
let prop_every_kind_roundtrip =
  QCheck2.Test.make ~name:"every kind: decode . encode = Some" ~count:500 gen_any_marker
    roundtrips

(* Whatever follows the magic, [decode] answers and never raises: random
   tails, random tails behind a real tag, and real encodings with one
   byte changed or cut short. *)
let prop_decode_total =
  let magic = Helpers.marker_magic in
  QCheck2.Gen.(
    QCheck2.Test.make ~name:"decode is total after the magic" ~count:2000
      (oneof
         [
           map (fun tail -> Bytes.of_string (magic ^ tail)) (string_size (int_bound 64));
           map2
             (fun tag tail -> Bytes.of_string (magic ^ String.make 1 tag ^ tail))
             (oneofl [ 'M'; 'S'; 'O' ]) (string_size (int_bound 64));
           map3
             (fun m at c ->
               let e = Marker.encode m in
               Bytes.set e (at mod Bytes.length e) c;
               e)
             gen_any_marker nat char;
           map2
             (fun m at ->
               let e = Marker.encode m in
               Bytes.sub e 0 (at mod Bytes.length e))
             gen_any_marker nat;
         ])
      (fun data -> match Marker.decode data with Some _ | None -> true))

let test_marker_rejects_garbage () =
  let rejects what data = Alcotest.(check bool) what true (Marker.decode data = None) in
  rejects "plain data" (bytes "hello");
  rejects "empty" Bytes.empty;
  rejects "magic, garbage body" (bytes (Helpers.marker_magic ^ "Sjunk"));
  rejects "unknown tag" (bytes (Helpers.marker_magic ^ "Z"));
  let m =
    Marker.Staged
      {
        Marker.record =
          {
            Capability.port = Capability.port_of_int 7;
            obj = 3;
            rights = Capability.rights_all;
            check = 99;
          };
        seq = 4;
        old_root = bytes "old";
        writes = [ (P.of_list [ 0 ], bytes "w") ];
      }
  in
  rejects "trailing garbage" (Bytes.cat (Marker.encode m) (bytes "x"));
  rejects "truncation"
    (let e = Marker.encode m in
     Bytes.sub e 0 (Bytes.length e - 3));
  let outcome = Marker.encode (Marker.Outcome { seq = 1; committed = true }) in
  let n = Bytes.length outcome in
  rejects "outcome without its flag" (Bytes.sub outcome 0 (n - 1));
  rejects "outcome with trailing garbage" (Bytes.cat outcome (bytes "c"));
  Bytes.set outcome (n - 1) '\002';
  rejects "outcome flag 2" outcome

(* A staged marker whose field at the end is written by hand: the
   magic, tag, record capability and seq, then [tail]. *)
let staged_with_tail tail =
  let w = Afs_util.Wire.Writer.create () in
  String.iter (fun c -> Afs_util.Wire.Writer.u8 w (Char.code c)) (Helpers.marker_magic ^ "S");
  List.iter (Afs_util.Wire.Writer.varint w) [ 1; 2 ];
  Afs_util.Wire.Writer.u8 w 3;
  Afs_util.Wire.Writer.u64 w 4L;
  Afs_util.Wire.Writer.varint w 5;
  tail w;
  Afs_util.Wire.Writer.contents w

(* A nine-byte varint whose top bits overflow into OCaml's sign bit. *)
let negative_varint w =
  for _ = 1 to 8 do
    Afs_util.Wire.Writer.u8 w 0xFF
  done;
  Afs_util.Wire.Writer.u8 w 0x7F

(* Length and count fields as large as a varint holds, or overflowed
   negative, answer [None]: no [Bytes.sub] or allocation sized by them
   runs, and no exception escapes. *)
let test_marker_length_overflow () =
  let module W = Afs_util.Wire.Writer in
  let rejects what tail =
    Alcotest.(check bool) what true (Marker.decode (staged_with_tail tail) = None)
  in
  rejects "max_int length rejected" (fun w ->
      W.varint w max_int;
      W.u8 w (Char.code 'x');
      W.varint w 0);
  rejects "overflowed length" (fun w ->
      negative_varint w;
      W.varint w 0);
  rejects "count beyond the input" (fun w ->
      W.sized_bytes w Bytes.empty;
      W.varint w 1_000_000);
  rejects "overflowed page index" (fun w ->
      W.sized_bytes w Bytes.empty;
      W.varint w 1;
      W.varint w 1;
      negative_varint w;
      W.sized_bytes w Bytes.empty);
  Alcotest.(check bool)
    "the same bytes with sane fields decode" true
    (Marker.decode
       (staged_with_tail (fun w ->
            W.sized_bytes w Bytes.empty;
            W.varint w 1;
            W.varint w 1;
            W.varint w 6;
            W.sized_bytes w Bytes.empty))
    <> None)

(* {2 The pure decision logic (C1 critical sections)} *)

let outcome seq committed = Marker.encode (Marker.Outcome { seq; committed })

let test_decision_table () =
  (* A marker with seq N against a record whose newest outcome is M's. *)
  let d data = Txn.decide ~seq:5 ~record_data:data in
  Alcotest.(check bool) "fresh record: pending" true (d (outcome 0 false) = Txn.Pending);
  Alcotest.(check bool) "M<N committed: pending" true (d (outcome 4 true) = Txn.Pending);
  Alcotest.(check bool) "M<N aborted: pending" true (d (outcome 4 false) = Txn.Pending);
  Alcotest.(check bool) "M=N committed" true (d (outcome 5 true) = Txn.Committed);
  Alcotest.(check bool) "M=N aborted" true (d (outcome 5 false) = Txn.Aborted);
  Alcotest.(check bool) "M>N committed: superseded" true (d (outcome 6 true) = Txn.Superseded);
  Alcotest.(check bool) "M>N aborted: superseded" true (d (outcome 9 false) = Txn.Superseded);
  Alcotest.(check bool) "garbage" true (d (bytes "whatever") = Txn.Unknown_record);
  Alcotest.(check bool) "old text outcome" true (d (bytes "txn:5:c") = Txn.Unknown_record);
  let m =
    {
      Marker.record =
        {
          Capability.port = Capability.port_of_int 1;
          obj = 1;
          rights = Capability.rights_all;
          check = 0;
        };
      seq = 1;
      old_root = Bytes.empty;
      writes = [];
    }
  in
  Alcotest.(check bool) "another kind" true
    (d (Marker.encode (Marker.Staged m)) = Txn.Unknown_record);
  Alcotest.(check bool) "committed -> forward" true
    (Txn.resolve m Txn.Committed = Txn.Forward m);
  Alcotest.(check bool) "aborted -> back" true (Txn.resolve m Txn.Aborted = Txn.Back m);
  Alcotest.(check bool) "unknown -> back" true
    (Txn.resolve m Txn.Unknown_record = Txn.Back m);
  Alcotest.(check bool) "pending -> wait" true (Txn.resolve m Txn.Pending = Txn.Wait m);
  Alcotest.(check bool) "superseded -> gone" true (Txn.resolve m Txn.Superseded = Txn.Gone)

(* {2 The happy path} *)

let test_cross_shard_commit () =
  in_cluster ~shards:2 (fun _cluster client ->
      let accts = setup_accounts client 2 100 in
      let txn = Txn.create client in
      ok_txn (Txn.exec txn (transfer accts 0 1 30));
      Alcotest.(check int) "debited" 70 (read_balance client accts.(0));
      Alcotest.(check int) "credited" 130 (read_balance client accts.(1));
      (* No marker survives a completed transaction: ordinary reads pass
         the trap and the root carries its original data. *)
      Array.iteri
        (fun i f ->
          Helpers.check_bytes "root restored"
            (Printf.sprintf "acct%d" i)
            (ok (Batch_ops.read_current client f P.root)))
        accts)

(* One part is one single-file update: no coordinator, no record, no
   coordinator message. *)
let test_single_part_fast_path () =
  in_cluster ~shards:2 (fun cluster client ->
      let accts = setup_accounts client 1 100 in
      let txn = Txn.create client in
      let recorded = ref false in
      ok_txn
        (Txn.exec ~on_record:(fun _ _ -> recorded := true) txn
           [ { Txn.file = accts.(0); ops = [ credit 5 ] } ]);
      Alcotest.(check int) "applied" 105 (read_balance client accts.(0));
      Alcotest.(check int) "committed" 1 (count cluster "txn.committed");
      Alcotest.(check int) "no coordinator" 0 (count cluster "txn.coordinated");
      Alcotest.(check bool) "no record acquired" false !recorded;
      Alcotest.(check int) "no record created" 0 (count cluster "txn.records_created");
      Alcotest.(check int) "no coordinator message" 0 (count cluster "txn.round_trips"))

(* A fully staged transaction and a plain optimistic update colliding:
   whoever commits second must lose, in this order the plain update —
   which finds the file in doubt, waits out the (already decided)
   record, resolves it forward and then succeeds on the result. The
   last participant in capability order seals in the batch that carries
   the decide and flips it, so only the other one is left in doubt. *)
let test_reader_resolves_in_doubt () =
  in_faulty_cluster ~shards:2 (fun faults _cluster client ->
      let accts = setup_accounts client 2 100 in
      let decided, staged = if Capability.compare accts.(0) accts.(1) > 0 then (0, 1) else (1, 0) in
      let after_transfer i = if i = 0 then 70 else 130 in
      let record = ref None in
      exec_killed faults ~at:after_decide
        ~on_record:(fun c _ -> record := Some c)
        (killable faults client) (transfer accts 0 1 30);
      Alcotest.(check int) "flipped by the decide" (after_transfer decided)
        (read_balance client accts.(decided));
      (* The other participant is staged: an opening is trapped. *)
      (match
         CC.routed client accts.(staged) (fun conn ~shard:_ file ->
             Afs_rpc.Remote.batch conn (Afs_rpc.Remote.Open file)
               [ Afs_rpc.Remote.Read P.root; Afs_rpc.Remote.Read (P.of_list [ 0 ]) ])
       with
      | Ok (Afs_rpc.Remote.Marked image) ->
          Alcotest.(check bool)
            "trap names the record" true
            (match (!record, Marker.decode image) with
            | Some c, Some (Marker.Staged { record = r; _ }) -> Capability.equal c r
            | _ -> false)
      | Ok _ -> Alcotest.fail "staged file served an ordinary opening"
      | Error e -> Alcotest.failf "expected Marked, got %s" (Errors.to_string e));
      (* A second, independent client resolves by simply using the file:
         the record says committed, so the resolver rolls forward and the
         transfer lands before its own update. *)
      let other = Txn.create client in
      ok_txn (Txn.exec other [ { Txn.file = accts.(staged); ops = [ credit 1 ] } ]);
      Alcotest.(check int) "transfer rolled forward, then +1" (after_transfer staged + 1)
        (read_balance client accts.(staged));
      Alcotest.(check int) "nothing else in doubt" 0
        (ok (Txn.sweep other (Array.to_list accts))))

(* The workloads' cluster backend meets the same in-doubt file: its
   single-file update waits out the decided record, the transfer is
   rolled forward, and the update lands after it, with no abort
   counted. *)
let test_afs_cluster_waits_out_marker () =
  in_faulty_cluster ~shards:2 (fun faults _cluster client ->
      let accts = setup_accounts client 2 100 in
      let staged = if Capability.compare accts.(0) accts.(1) > 0 then 1 else 0 in
      exec_killed faults ~at:after_decide (killable faults client) (transfer accts 0 1 30);
      let open Afs_workload in
      let sut = Sut.afs_cluster client ~files:accts in
      let spec = { Sut.file = staged; ops = [ Sut.Rmw (0, money 1) ]; parts = [] } in
      let r = sut.Sut.exec spec ~max_retries:4 in
      Alcotest.(check bool) "committed" true r.Sut.committed;
      Alcotest.(check int) "one attempt" 1 r.Sut.attempts;
      Alcotest.(check int) "no abort" 0 r.Sut.local_aborts;
      Alcotest.(check int) "transfer rolled forward, then +1"
        ((if staged = 0 then 70 else 130) + 1)
        (read_balance client accts.(staged)))

(* A coordinator dying before the decide leaves a pending record; the
   sweep presumes it dead, force-aborts it, and rolls every participant
   back — the transfer never happened. The last participant's seal
   carries the decide, so the coordinator dies with only the first
   staged. *)
let test_sweep_discards_undecided () =
  in_faulty_cluster ~shards:2 (fun faults _cluster client ->
      let accts = setup_accounts client 2 100 in
      let record = ref None in
      exec_killed faults ~at:before_decide
        ~on_record:(fun c seq -> record := Some (c, seq))
        (killable faults client) (transfer accts 0 1 30);
      let sweeper = Txn.create client in
      Alcotest.(check int) "the staged participant resolved" 1
        (ok (Txn.sweep sweeper (Array.to_list accts)));
      Alcotest.(check int) "rolled back" 100 (read_balance client accts.(0));
      Alcotest.(check int) "rolled back" 100 (read_balance client accts.(1));
      (* The force-abort is durable: the record can never commit now. *)
      match !record with
      | None -> Alcotest.fail "no record observed"
      | Some (r, seq) ->
          Alcotest.(check bool)
            "record force-aborted" true
            (ok (Txn.record_decision sweeper r ~seq) = Txn.Aborted))

(* Crashing mid-flip: the decision stands, the remaining participant is
   rolled forward by recovery. The decide flipped the last participant,
   so the first one's flip is the one the crash cuts off. *)
let test_sweep_completes_decided () =
  in_faulty_cluster ~shards:2 (fun faults _cluster client ->
      let accts = setup_accounts client 2 100 in
      exec_killed faults ~at:(mid_flip 0) (killable faults client) (transfer accts 0 1 30);
      let sweeper = Txn.create client in
      Alcotest.(check int) "one participant left in doubt" 1
        (ok (Txn.sweep sweeper (Array.to_list accts)));
      Alcotest.(check int) "debited" 70 (read_balance client accts.(0));
      Alcotest.(check int) "credited" 130 (read_balance client accts.(1)))

(* The R-on-root fence, in the commit order the trap cannot catch: a
   plain update opened BEFORE the stage commits afterwards — and must
   conflict, because the stage wrote the root that update's version
   recorded R on. *)
let test_stage_fences_prior_versions () =
  in_faulty_cluster ~shards:2 (fun faults cluster client ->
      let accts = setup_accounts client 2 100 in
      let _, shard = ok (Cluster.shard_of_cap cluster accts.(0)) in
      let conn = Cluster.conn cluster (Shard.id shard) in
      let v = ok (Shard.open_version conn accts.(0)) in
      ok (Batch_ops.write conn v (P.of_list [ 0 ]) (bytes "777"));
      exec_killed faults ~at:before_decide (killable faults client) (transfer accts 0 1 30);
      (match Batch_ops.commit conn v with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "pre-stage version committed over a marker"
      | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e));
      let sweeper = Txn.create client in
      ignore (ok (Txn.sweep sweeper (Array.to_list accts)) : int);
      Alcotest.(check int) "staged txn discarded" 100 (read_balance client accts.(0)))

(* Any client may write any root data with an ordinary commit, and the
   shard's location check decodes the root on every opening: root data
   that starts like a marker but does not decode as one must open as
   plain data, not crash the handler or trap the file. *)
let opens_with_root root =
  in_cluster ~shards:2 (fun cluster client ->
      let f = ok (CC.create_file ~data:(bytes "plain") client) in
      ok (Batch_ops.update client f [ Txn.Write (P.root, root) ]);
      let _, shard = ok (Cluster.shard_of_cap cluster f) in
      let conn = Cluster.conn cluster (Shard.id shard) in
      let v = ok (Shard.open_version conn f) in
      Helpers.check_bytes "the root is plain data" (Bytes.to_string root)
        (ok (Batch_ops.read conn v P.root));
      Afs_rpc.Remote.abandon conn v)

let test_overflowing_root_opens () =
  opens_with_root
    (staged_with_tail (fun w ->
         Afs_util.Wire.Writer.varint w max_int;
         Afs_util.Wire.Writer.u8 w (Char.code 'x');
         Afs_util.Wire.Writer.varint w 0))

let test_garbage_roots_open () =
  let magic = Helpers.marker_magic in
  let staged =
    Marker.encode
      (Marker.Staged
         {
           Marker.record =
             {
               Capability.port = Capability.port_of_int 1;
               obj = 1;
               rights = Capability.rights_all;
               check = 0;
             };
           seq = 1;
           old_root = bytes "old";
           writes = [];
         })
  in
  List.iter
    (fun root ->
      Alcotest.(check bool) "not a marker" true (Marker.decode root = None);
      opens_with_root root)
    [
      bytes magic;
      bytes (magic ^ "Z");
      bytes (magic ^ "S\255\255\255");
      Bytes.sub staged 0 (Bytes.length staged - 1);
      Bytes.cat staged (bytes "!");
    ]

(* A part's [Rmw] of a page it already wrote transforms that pending
   write, as the same ops run one by one would: the ops' reads all ride
   the opening batch, ahead of every write. *)
let test_rmw_after_write () =
  in_cluster ~shards:2 (fun _cluster client ->
      let accts = setup_accounts client 2 100 in
      let txn = Txn.create client in
      ok_txn
        (Txn.exec txn
           [ { Txn.file = accts.(0); ops = [ Txn.Write (P.of_list [ 0 ], bytes "10"); credit 5 ] };
             { Txn.file = accts.(1); ops = [ credit 1 ] } ]);
      Alcotest.(check int) "write, then +5" 15 (read_balance client accts.(0));
      Alcotest.(check int) "credited" 101 (read_balance client accts.(1)))

(* {2 The one-part path against the per-op loop}

   A one-part transaction opens with one batch that reads every page its
   ops read and commits the computed writes with a second. Run the same
   random ops one by one, a one-step batch each between an opening and a
   commit, on an identical cluster:
   the answers and every page must agree. Page 3 does not exist, so the
   error answers are compared too. *)
type pop = P_read of int | P_write of int * string | P_rmw of int * string

let gen_pops =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (oneof
         [
           map (fun i -> P_read i) (int_bound 3);
           map2 (fun i c -> P_write (i, String.make 1 c)) (int_bound 3) (char_range 'a' 'e');
           map2 (fun i c -> P_rmw (i, String.make 1 c)) (int_bound 3) (char_range 'a' 'e');
         ]))

let print_pops =
  QCheck2.Print.list (function
    | P_read i -> Printf.sprintf "read %d" i
    | P_write (i, d) -> Printf.sprintf "write %d %s" i d
    | P_rmw (i, d) -> Printf.sprintf "rmw %d +%s" i d)

let page i = P.of_list [ i ]
let append d old = bytes (Bytes.to_string old ^ d)

(* A file with pages 0-2, then [run client file]; answers the result
   and the root and the three pages as committed afterwards. *)
let one_part_run run =
  in_cluster ~shards:2 (fun _cluster client ->
      let f = ok (CC.create_file ~data:(bytes "root") client) in
      ok (Batch_ops.add_pages client f [ bytes "p0"; bytes "p1"; bytes "p2" ]);
      let answer = Result.map_error Errors.to_string (run client f) in
      let pages =
        List.map
          (fun path -> Bytes.to_string (ok (Batch_ops.read_current client f path)))
          (P.root :: List.map page [ 0; 1; 2 ])
      in
      (answer, pages))

let prop_one_part_matches_per_op =
  QCheck2.Test.make ~name:"one-part exec = the same ops one by one" ~count:200
    ~print:print_pops gen_pops (fun pops ->
      let batched =
        one_part_run (fun client f ->
            let ops =
              List.map
                (function
                  | P_read i -> Txn.Read (page i)
                  | P_write (i, d) -> Txn.Write (page i, bytes d)
                  | P_rmw (i, d) -> Txn.Rmw (page i, append d))
                pops
            in
            match Txn.exec (Txn.create client) [ { Txn.file = f; ops } ] with
            | Ok () -> Ok ()
            | Error (Txn.Local e | Txn.Cross e | Txn.Failed e) -> Error e)
      in
      let per_op =
        one_part_run (fun client f ->
            CC.routed client f (fun conn ~shard:_ f ->
                let open Errors in
                let* v = Shard.open_version conn f in
                let ran =
                  List.fold_left
                    (fun acc op ->
                      let* () = acc in
                      match op with
                      | P_read i ->
                          let* _ = Batch_ops.read conn v (page i) in
                          Ok ()
                      | P_write (i, d) -> Batch_ops.write conn v (page i) (bytes d)
                      | P_rmw (i, d) ->
                          let* old = Batch_ops.read conn v (page i) in
                          Batch_ops.write conn v (page i) (append d old))
                    (Ok ()) pops
                in
                match ran with
                | Ok () -> Batch_ops.commit conn v
                | Error _ ->
                    Afs_rpc.Remote.abandon conn v;
                    ran))
      in
      batched = per_op)

(* {2 The hop limit}

   Two tombstones naming each other, laid by hand as below: [CC.routed]
   follows the cycle for its eight hops, learning every forward it is
   told, then gives up. *)
let test_forward_cycle () =
  in_cluster ~shards:2 (fun cluster client ->
      let a = ok (CC.create_file_on client (Cluster.shard cluster 0) ~data:(bytes "a")) in
      let b = ok (CC.create_file_on client (Cluster.shard cluster 1) ~data:(bytes "b")) in
      let tombstone shard file target =
        let conn = Cluster.conn cluster shard in
        let v = ok (Shard.open_version conn file) in
        ok (Batch_ops.write conn v P.root (Marker.encode (Marker.Moved target)));
        ok (Batch_ops.commit conn v)
      in
      tombstone 0 a b;
      tombstone 1 b a;
      let forwarded () = Afs_util.Stats.Counter.get (Cluster.counters cluster) "client.forwarded" in
      let before = forwarded () in
      let tries = ref 0 in
      (match
         CC.routed client a (fun conn ~shard:_ file ->
             incr tries;
             Batch_ops.current_version conn file)
       with
      | Error (Errors.Store_failure "cluster: forward chain too long") -> ()
      | Ok _ -> Alcotest.fail "a forward cycle resolved"
      | Error e -> Alcotest.failf "expected the hop limit, got %s" (Errors.to_string e));
      Alcotest.(check int) "the first try and eight hops" 9 !tries;
      Alcotest.(check int) "every answered forward learnt" 9 (forwarded () - before))

(* {2 Moved through batches}

   The shared router learns a migration's forward as the flip commits, so
   a cluster client normally resolves before ever reaching a tombstone.
   To make the coordinator meet one, the participant's tombstone — a
   forward marker in its root, as a migration flip commits it — is laid
   by hand on its old shard, without telling the router. *)
let test_transfer_chases_moved () =
  in_cluster ~shards:3 (fun cluster client ->
      let accts = setup_accounts client 2 100 in
      let copy = ok (CC.create_file_on client (Cluster.shard cluster 2) ~data:(bytes "acct1")) in
      ok (Batch_ops.add_pages client copy [ bytes "100" ]);
      let src = Cluster.conn cluster 1 in
      let v = ok (Shard.open_version src accts.(1)) in
      ok (Batch_ops.write src v P.root (Marker.encode (Marker.Moved copy)));
      ok (Batch_ops.commit src v);
      let forwarded () = Afs_util.Stats.Counter.get (Cluster.counters cluster) "client.forwarded" in
      let before = forwarded () in
      let txn = Txn.create client in
      ok_txn (Txn.exec txn (transfer accts 0 1 30));
      Alcotest.(check int) "the stage chased one forward" (before + 1) (forwarded ());
      Alcotest.(check int) "debited" 70 (read_balance client accts.(0));
      Alcotest.(check int) "credited at the new home" 130 (read_balance client copy);
      Alcotest.(check int) "the old capability follows" 130 (read_balance client accts.(1)))

(* A resolver reads and writes through [Current] and [Open] batches,
   which pass the in-doubt trap: on a tombstone they must still answer
   [Moved], naming the new home. *)
let test_batch_on_tombstone_moved () =
  in_cluster ~shards:2 (fun cluster client ->
      let f = ok (CC.create_file ~data:(bytes "v0") client) in
      let moved = ok (Migration.migrate cluster ~file:f ~dst:1) in
      let old_home = Cluster.conn cluster 0 in
      List.iter
        (fun (what, target, steps) ->
          match Afs_rpc.Remote.batch old_home target steps with
          | Error (Errors.Moved target) ->
              Alcotest.(check bool) (what ^ " names the copy") true (Capability.equal target moved)
          | Ok _ -> Alcotest.failf "%s batch served a tombstone" what
          | Error e -> Alcotest.failf "%s: expected Moved, got %s" what (Errors.to_string e))
        [
          ("current", Afs_rpc.Remote.Current f, [ Afs_rpc.Remote.Read P.root ]);
          ("open", Afs_rpc.Remote.Open f, [ Afs_rpc.Remote.Read P.root ]);
        ])

(* {2 Record reuse} *)

let created cluster = count cluster "txn.records_created"

(* Sequential transfers through one coordinator keep reusing the record
   on their last participant's shard: at most one file per shard, and
   each outcome is exactly the committed outcome of its own seq until the
   next transaction on that record supersedes it. *)
let test_records_reused () =
  in_cluster ~shards:2 (fun cluster client ->
      let accts = setup_accounts client 4 100 in
      let txn = Txn.create client in
      let rng = Xrng.create 3 in
      let decided = ref [] in
      for _ = 1 to 50 do
        let a = Xrng.int rng 4 in
        let b = (a + 1 + Xrng.int rng 3) mod 4 in
        let seen = ref None in
        ok_txn
          (Txn.exec ~on_record:(fun r seq -> seen := Some (r, seq)) txn
             (transfer accts a b 1));
        match !seen with
        | None -> Alcotest.fail "no record observed"
        | Some (r, seq) ->
            if ok (Txn.record_decision txn r ~seq) <> Txn.Committed then
              Alcotest.failf "transfer %d does not audit committed" seq;
            decided := (r, seq) :: !decided
      done;
      Alcotest.(check bool) "at most one record per shard" true (created cluster <= 2);
      Alcotest.(check int) "money conserved" 400
        (Array.fold_left (fun acc f -> acc + read_balance client f) 0 accts);
      (* Every earlier transaction on a record now reads as superseded. *)
      let superseded =
        List.filteri
          (fun i (r, seq) ->
            i >= 2 && ok (Txn.record_decision txn r ~seq) = Txn.Superseded)
          !decided
      in
      Alcotest.(check bool) "older seqs superseded" true (List.length superseded >= 40))

(* A pooled record migrated between two transactions: the second
   acquires it by its old capability, and its decide — which the router
   sends to the copy — must test-and-set the copy, named by the
   capability [routed] resolved, not the one the coordinator pooled. *)
let test_migrated_record_decides () =
  in_cluster ~shards:2 (fun cluster client ->
      let accts = setup_accounts client 2 100 in
      let txn = Txn.create client in
      let seen = ref None in
      let run amt =
        ok_txn (Txn.exec ~on_record:(fun r seq -> seen := Some (r, seq)) txn (transfer accts 0 1 amt));
        match !seen with Some r -> r | None -> Alcotest.fail "no record observed"
      in
      let record, _ = run 10 in
      let _, home = ok (Cluster.shard_of_cap cluster record) in
      let copy = ok (Migration.migrate cluster ~file:record ~dst:(1 - Shard.id home)) in
      let reused, seq = run 20 in
      Alcotest.(check bool) "the pooled record reused" true (Capability.equal reused record);
      Alcotest.(check int) "no record created" 1 (created cluster);
      Alcotest.(check bool)
        "decided at the copy" true
        (ok (Txn.record_decision txn copy ~seq) = Txn.Committed);
      Alcotest.(check int) "debited twice" 70 (read_balance client accts.(0));
      Alcotest.(check int) "credited twice" 130 (read_balance client accts.(1)))

(* A resolver that polled a record before two transactions were decided
   on it, then force-aborts the first of them from that stale value: the
   test-and-set mismatches, the record answers superseded, and the later
   committed outcome stands. *)
let test_stale_resolver () =
  in_cluster ~shards:2 (fun _cluster client ->
      let accts = setup_accounts client 2 100 in
      let txn = Txn.create client in
      let seen = ref [] in
      let on_record r seq = seen := (r, seq) :: !seen in
      ok_txn (Txn.exec ~on_record txn (transfer accts 0 1 10));
      ok_txn (Txn.exec ~on_record txn (transfer accts 1 0 3));
      match List.rev !seen with
      | [ (r1, s1); (r2, s2) ] ->
          Alcotest.(check bool) "same record reused" true (Capability.equal r1 r2);
          Alcotest.(check bool) "seqs grow" true (s2 > s1);
          let stale =
            { Marker.record = r1; seq = s1; old_root = bytes "acct0"; writes = [] }
          in
          let resolver = Txn.create client in
          Alcotest.(check bool)
            "stale force-abort superseded" true
            (ok
               (Txn.force_abort resolver stale
                  ~seen:(outcome 0 false))
            = Txn.Superseded);
          Alcotest.(check bool)
            "later outcome kept" true
            (ok (Txn.record_decision resolver r2 ~seq:s2) = Txn.Committed);
          Alcotest.(check int) "balance" 93 (read_balance client accts.(0));
          Alcotest.(check int) "balance" 107 (read_balance client accts.(1))
      | _ -> Alcotest.fail "expected two records observed")

(* The collector runs over a transaction left mid-flip, then the same
   coordinator runs a transfer on its pooled record through the in-doubt
   participant while a second coordinator sweeps: both resolve the same
   marker, the collector has pruned history under all of it, and nothing
   is lost or left staged. *)
let test_collector_race () =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
      let client = CC.connect cluster in
      (* a0, a2 on one shard, a1, a3 on the other. *)
      let accts = setup_accounts client 4 100 in
      let faults = Faults.create cluster in
      let txn = killable faults client in
      let concurrently fs =
        let spawn, join = Proc.joinable engine in
        List.iter (fun f -> ignore (spawn f : Proc.handle)) fs;
        join ()
      in
      (* Two concurrent transfers with last participants on one shard
         leave two records in that shard's pool. *)
      concurrently
        [
          (fun () -> ok_txn (Txn.exec txn (transfer accts 0 1 5)));
          (fun () -> ok_txn (Txn.exec txn (transfer accts 2 3 5)));
        ];
      Alcotest.(check int) "two records created" 2 (created cluster);
      let leaked = ref None in
      exec_killed faults ~at:(mid_flip 0)
        ~on_record:(fun r seq -> leaked := Some (r, seq))
        txn (transfer accts 0 1 30);
      let policy = { Core_gc.retain_committed = 1; reshare = false } in
      for k = 0 to 1 do
        ignore (ok (Core_gc.collect ~policy (Shard.server (Cluster.shard cluster k))) : Core_gc.stats)
      done;
      let sweeper = Txn.create client in
      concurrently
        [
          (fun () -> ok_txn (Txn.exec txn (transfer accts 1 0 7)));
          (fun () -> ignore (ok (Txn.sweep sweeper (Array.to_list accts)) : int));
        ];
      Alcotest.(check int) "the pooled record served" 2 (created cluster);
      Array.iter
        (fun f ->
          match Batch_ops.read_current client f P.root with
          | Ok root ->
              if is_staged root then Alcotest.fail "a marker survived"
          | Error e -> Alcotest.failf "unreadable: %s" (Errors.to_string e))
        accts;
      Alcotest.(check (list int)) "balances" [ 72; 128; 95; 105 ]
        (Array.to_list (Array.map (read_balance client) accts));
      match !leaked with
      | None -> Alcotest.fail "no record observed"
      | Some (r, seq) ->
          Alcotest.(check bool)
            "leaked record audits committed" true
            (ok (Txn.record_decision sweeper r ~seq) = Txn.Committed))

(* A stage's seal fails although its marker is durable; the marker
   surfaces only once the shard recovers. The rolled-back transaction
   must not pool its record: reusing it would decide a later seq on it,
   and the orphan marker would then read as superseded and never
   resolve. *)
let test_seal_in_doubt () =
  in_sim (fun engine ->
      let armed = ref false in
      let cluster =
        Cluster.create ~latency_ms:1.0 ~stores:(fun _ -> Helpers.lossy_store armed) engine ~shards:2
      in
      let client = CC.connect cluster in
      (* a0, a2 on one shard, a1, a3 on the other. *)
      let accts = setup_accounts client 4 100 in
      let txn = Txn.create client in
      let doomed = ref None in
      (match
         Txn.exec
           ~on_record:(fun r seq ->
             doomed := Some (r, seq);
             armed := true)
           txn (transfer accts 0 1 30)
       with
      | Error (Txn.Failed (Errors.Store_failure _)) -> ()
      | Ok () -> Alcotest.fail "the lost acknowledgement never fired"
      | Error _ -> Alcotest.fail "expected the seal's store failure");
      Alcotest.(check int) "seal in doubt" 1 (count cluster "txn.seal_in_doubt");
      List.iter
        (fun shard ->
          Shard.crash shard;
          ignore (ok (Shard.recover shard) : int))
        (Cluster.shards cluster);
      let in_doubt =
        List.filter
          (fun f -> is_staged (ok (Batch_ops.read_current client f P.root)))
          [ accts.(0); accts.(1) ]
      in
      Alcotest.(check int) "the orphan marker surfaced" 1 (List.length in_doubt);
      (* Same last-participant shard: a pooled record would serve it. *)
      ok_txn (Txn.exec txn (transfer accts 2 3 7));
      Alcotest.(check int) "orphan swept" 1
        (ok (Txn.sweep (Txn.create client) (Array.to_list accts)));
      Array.iter
        (fun f ->
          match Batch_ops.read_current client f P.root with
          | Ok root -> if is_staged root then Alcotest.fail "a marker survived"
          | Error e -> Alcotest.failf "unreadable: %s" (Errors.to_string e))
        accts;
      Alcotest.(check int) "the in-doubt record was not reused" 2 (created cluster);
      Alcotest.(check (list int)) "balances" [ 100; 100; 93; 107 ]
        (Array.to_list (Array.map (read_balance client) accts));
      match !doomed with
      | None -> Alcotest.fail "no record observed"
      | Some (r, seq) ->
          Alcotest.(check bool)
            "leaked record audits aborted" true
            (ok (Txn.record_decision txn r ~seq) = Txn.Aborted))

(* A seal refused before it runs — its marker carries a page over the
   32K message cap — is not in doubt: it must abandon its version, which
   the collector would otherwise keep as a root for good, and leave the
   record to be pooled again. *)
let test_oversized_seal () =
  in_cluster ~shards:2 (fun cluster client ->
      let accts = setup_accounts client 2 100 in
      let txn = Txn.create client in
      let big = Bytes.make 33_000 'x' in
      (match
         Txn.exec txn
           [ { Txn.file = accts.(0); ops = [ Txn.Write (P.of_list [ 0 ], big) ] };
             { Txn.file = accts.(1); ops = [ credit 1 ] } ]
       with
      | Error (Txn.Failed (Errors.Message_too_large _)) -> ()
      | Ok () -> Alcotest.fail "an oversized seal committed"
      | Error (Txn.Local e | Txn.Cross e | Txn.Failed e) ->
          Alcotest.failf "expected Message_too_large, got %s" (Errors.to_string e));
      Array.iter
        (fun f ->
          let _, shard = ok (Cluster.shard_of_cap cluster f) in
          Alcotest.(check int) "no version left open" 0
            (List.length (ok (Server.uncommitted_versions (Shard.server shard) f))))
        accts;
      ok_txn (Txn.exec txn (transfer accts 0 1 5));
      Alcotest.(check int) "the record was reused" 1 (created cluster);
      Alcotest.(check (list int)) "balances" [ 95; 105 ]
        (Array.to_list (Array.map (read_balance client) accts)))

(* {2 Trace oracle}

   A conflict-free cross-shard commit has a fixed protocol shape: one
   decide span, one stage span per participant — and the whole rendered
   event stream is a pure function of the seed. *)

let trace_one_run seed =
  let engine = Engine.create () in
  let tr = Trace.ring ~now:(fun () -> Engine.now engine) () in
  let cluster = Cluster.create ~latency_ms:1.0 ~trace:tr engine ~shards:2 in
  let _ =
    Proc.spawn engine (fun () ->
        let client = CC.connect cluster in
        let accts = setup_accounts client 3 100 in
        let rng = Xrng.create seed in
        let amt = 1 + Xrng.int rng 20 in
        let txn = Txn.create ~trace:tr client in
        ok_txn
          (Txn.exec txn
             [
               { Txn.file = accts.(0); ops = [ debit amt ] };
               { Txn.file = accts.(1); ops = [ credit (amt - 1) ] };
               { Txn.file = accts.(2); ops = [ credit 1 ] };
             ]))
  in
  Engine.run engine;
  Trace.events tr

let render events =
  let b = Buffer.create 4096 in
  let w = Catapult.writer (Buffer.add_string b) in
  List.iter (Catapult.emit w) events;
  Catapult.finish w;
  Buffer.contents b

let test_trace_oracle () =
  let events = trace_one_run 7 in
  Alcotest.(check int) "one decide span" 1
    (List.length (Query.spans_of_kind events "txn.decide"));
  Alcotest.(check int) "one stage span per participant" 3
    (List.length (Query.spans_of_kind events "txn.stage"));
  Alcotest.(check int) "one coordinator span" 1
    (List.length (Query.spans_of_kind events "txn.coord"));
  Alcotest.(check int) "decide point" 1 (Query.count events "txn.decide");
  Alcotest.(check int) "flip per participant" 3 (Query.count events "txn.flip");
  (* Byte-identical per seed, and seeds actually differ. *)
  Alcotest.(check string) "seed 7 deterministic" (render events) (render (trace_one_run 7));
  Alcotest.(check string) "seed 11 deterministic"
    (render (trace_one_run 11))
    (render (trace_one_run 11))

(* {2 Waiting at the record}

   A waiter learns a pending record's outcome from one [Await], which
   the record's shard holds until the record commits or the budget runs
   out. *)

let pending0 = outcome 0 false
let committed1 = outcome 1 true
let aborted1 = outcome 1 false

(* Decide seq 1 committed on a fresh record, as a coordinator does. *)
let decide_at conn record =
  Afs_rpc.Remote.batch conn (Afs_rpc.Remote.Current record)
    [ Afs_rpc.Remote.Swap { file = record; expected = pending0; writes = [ (P.root, committed1) ] } ]

(* One request, answered by the decide 50 ms later, not by its budget. *)
let test_await_answered_by_decide () =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
      let client = CC.connect cluster in
      let shard = Cluster.shard cluster 0 in
      let record = ok (CC.create_file_on client shard ~data:pending0) in
      let conn = Cluster.conn cluster 0 in
      let served () = Afs_rpc.Remote.requests_served (Shard.host shard) in
      let before = served () in
      let spawn, join = Proc.joinable engine in
      let answered = ref None in
      ignore
        (spawn (fun () ->
             let root =
               ok
                 (Afs_rpc.Remote.await conn record ~until:[ committed1; aborted1 ]
                    ~budget_ms:1000.0)
             in
             answered := Some (root, Engine.now engine))
          : Proc.handle);
      ignore
        (spawn (fun () ->
             Proc.delay 50.0;
             match decide_at conn record with
             | Ok (Afs_rpc.Remote.Ran _) -> ()
             | _ -> Alcotest.fail "the decide did not commit")
          : Proc.handle);
      join ();
      match !answered with
      | None -> Alcotest.fail "the await never answered"
      | Some (root, at) ->
          Helpers.check_bytes "the decided outcome" (Bytes.to_string committed1) root;
          Alcotest.(check bool) "answered by the decide, not the budget" true (at > 50.0 && at < 60.0);
          Alcotest.(check int) "the await and the decide" 2 (served () - before))

(* An await on an already decided record, or with no budget, answers at
   once. *)
let test_await_answers_decided_at_once () =
  in_cluster ~shards:2 (fun cluster client ->
      let record = ok (CC.create_file_on client (Cluster.shard cluster 0) ~data:committed1) in
      let conn = Cluster.conn cluster 0 in
      Helpers.check_bytes "decided" (Bytes.to_string committed1)
        (ok (Afs_rpc.Remote.await conn record ~until:[ committed1; aborted1 ] ~budget_ms:1000.0));
      let pending = ok (CC.create_file_on client (Cluster.shard cluster 0) ~data:pending0) in
      Helpers.check_bytes "no budget" (Bytes.to_string pending0)
        (ok (Afs_rpc.Remote.await conn pending ~until:[ committed1; aborted1 ] ~budget_ms:0.0)))

(* The staged participant of a coordinator that died before its decide,
   and that coordinator's record and seq. *)
let dead_coordinator faults client accts =
  let record = ref None in
  exec_killed faults ~at:before_decide
    ~on_record:(fun r seq -> record := Some (r, seq))
    (killable faults client) (transfer accts 0 1 30);
  let staged = if Capability.compare accts.(0) accts.(1) < 0 then 0 else 1 in
  match !record with Some r -> (staged, r) | None -> Alcotest.fail "no record observed"

(* A dead coordinator's record never commits: the await answers when its
   1.195 s budget runs out, and the waiter then force-aborts, rolls the
   marker back itself when it meets it again, and commits. *)
let test_await_budget_force_aborts () =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
      let client = CC.connect cluster in
      let accts = setup_accounts client 2 100 in
      let staged, (record, seq) = dead_coordinator (Faults.create cluster) client accts in
      let waiter = Txn.create client in
      (* The dead coordinator counted into the same table: take the
         waiter's figures as deltas. *)
      let before =
        List.map (fun n -> (n, count cluster n))
          [ "txn.record_reads"; "txn.force_aborts"; "txn.resolved.back" ]
      in
      let t0 = Engine.now engine in
      ok_txn (Txn.exec waiter [ { Txn.file = accts.(staged); ops = [ credit 1 ] } ]);
      let get name = count cluster name - List.assoc name before in
      Alcotest.(check bool) "waited out the budget" true (Engine.now engine -. t0 >= 1195.0);
      Alcotest.(check int) "one record read" 1 (get "txn.record_reads");
      Alcotest.(check int) "one force-abort" 1 (get "txn.force_aborts");
      Alcotest.(check int) "rolled back by the waiter" 1 (get "txn.resolved.back");
      Alcotest.(check bool)
        "record aborted" true
        (ok (Txn.record_decision waiter record ~seq) = Txn.Aborted);
      Alcotest.(check int) "transfer undone, then +1" 101 (read_balance client accts.(staged)))

(* The shard answers an opening that meets a marker with the marker's
   image: no version is opened, so none is left to abort. *)
let test_marked_open_opens_nothing () =
  in_faulty_cluster ~shards:2 (fun faults cluster client ->
      let accts = setup_accounts client 2 100 in
      let staged, _ = dead_coordinator faults client accts in
      let file = accts.(staged) in
      let _, shard = ok (Cluster.shard_of_cap cluster file) in
      let conn = Cluster.conn cluster (Shard.id shard) in
      let image =
        match
          Afs_rpc.Remote.batch conn (Afs_rpc.Remote.Current file) [ Afs_rpc.Remote.Read P.root ]
        with
        | Ok (Afs_rpc.Remote.Ran { reads = [ root ]; _ }) -> root
        | _ -> Alcotest.fail "the root did not read"
      in
      (match
         Afs_rpc.Remote.batch conn (Afs_rpc.Remote.Open file)
           [ Afs_rpc.Remote.Read P.root; Afs_rpc.Remote.Read (P.of_list [ 0 ]) ]
       with
      | Ok (Afs_rpc.Remote.Marked m) -> Helpers.check_bytes "the marker image" (Bytes.to_string image) m
      | Ok _ -> Alcotest.fail "a marked root opened"
      | Error e -> Alcotest.failf "expected Marked, got %s" (Errors.to_string e));
      Alcotest.(check int) "no version open" 0
        (List.length (ok (Server.uncommitted_versions (Shard.server shard) file))))

(* A shard crash fails an await it holds, as it fails queued requests,
   and the restarted shard holds nothing: the commit that would have
   answered it answers nobody. *)
let test_crash_fails_await () =
  in_sim (fun engine ->
      let tr = Trace.ring ~now:(fun () -> Engine.now engine) () in
      Engine.set_trace engine tr;
      let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
      let client = CC.connect cluster in
      let shard = Cluster.shard cluster 0 in
      let record = ok (CC.create_file_on client shard ~data:pending0) in
      let conn = Cluster.conn cluster 0 in
      Engine.at engine 10.0 (fun () -> Shard.crash shard);
      (match
         Afs_rpc.Remote.await conn record ~until:[ committed1; aborted1 ] ~budget_ms:1000.0
       with
      | Error (Errors.Store_failure _) -> ()
      | Ok _ -> Alcotest.fail "a held await survived the crash"
      | Error e -> Alcotest.failf "expected a transport failure, got %s" (Errors.to_string e));
      ignore (ok (Shard.recover shard) : int);
      (match decide_at conn record with
      | Ok (Afs_rpc.Remote.Ran _) -> ()
      | _ -> Alcotest.fail "the decide did not commit");
      Proc.delay 2000.0;
      let awaits kind =
        List.length
          (List.filter
             (function
               | Trace.Point { payload = Trace.Rpc_recv { op = "await"; _ }; _ } -> kind = `Recv
               | Trace.Point { payload = Trace.Rpc_timeout { op = "await"; _ }; _ } ->
                   kind = `Timeout
               | _ -> false)
             (Trace.events tr))
      in
      Alcotest.(check int) "the await failed" 1 (awaits `Timeout);
      Alcotest.(check int) "and was never answered" 0 (awaits `Recv))

(* {2 Determinism}

   The banking mix through [Sut.afs_txn], waiters parked at the records,
   twice on one seed: the same stats, balances and sweep. *)
let afs_txn_run seed =
  let open Afs_workload in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
  let tshape =
    { Workload.bank_transfers with accounts = 8; objects = 0; shards = 2; move_ratio = 0.0 }
  in
  let files = ok (Workload.setup_accounts cluster tshape ~initial_balance:100) in
  let client = CC.connect cluster in
  let sut = Sut.afs_txn client ~files in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 600.0; think_ms = 2.0; seed }
  in
  let report = Driver.run engine config sut ~gen:(Workload.transfer tshape) in
  (* Before the sweep, whose coordinator counts into the same table. *)
  let stats = sut.Sut.stats () in
  let swept = ref 0 in
  ignore
    (Proc.spawn engine (fun () -> swept := ok (Txn.sweep (Txn.create client) (Array.to_list files)))
      : Proc.handle);
  Engine.run engine;
  let balances =
    List.init tshape.Workload.accounts (fun i -> Bytes.to_string (sut.Sut.read_page i 0))
  in
  (report.Driver.committed, stats, balances, !swept)

let test_afs_txn_deterministic () =
  let committed, stats, balances, swept = afs_txn_run 5 in
  Alcotest.(check bool) "committed some transfers" true (committed > 0);
  Alcotest.(check bool) "some waiters waited" true (List.assoc_opt "txn.record_reads" stats <> None);
  Alcotest.(check int) "conserved" 800
    (List.fold_left (fun acc b -> acc + int_of_string (String.trim b)) 0 balances);
  let committed', stats', balances', swept' = afs_txn_run 5 in
  Alcotest.(check int) "committed" committed committed';
  Alcotest.(check (list (pair string int))) "stats" stats stats';
  Alcotest.(check (list string)) "balances" balances balances';
  Alcotest.(check int) "swept" swept swept'

(* {2 Counters}

   Every coordinator over a cluster counts into the cluster's one table,
   and [Sut.afs_txn] reports that table. *)

let test_coordinators_share_counters () =
  in_cluster ~shards:2 (fun cluster client ->
      let accts = setup_accounts client 2 100 in
      ok_txn (Txn.exec (Txn.create client) (transfer accts 0 1 10));
      ok_txn (Txn.exec (Txn.create client) (transfer accts 1 0 3));
      Alcotest.(check int) "both commits in one figure" 2 (count cluster "txn.committed");
      Alcotest.(check int) "both coordinated" 2 (count cluster "txn.coordinated"))

let test_afs_txn_stats_are_the_cluster_table () =
  in_cluster ~shards:2 (fun cluster client ->
      let open Afs_workload in
      let files = setup_accounts client 2 100 in
      let sut = Sut.afs_txn client ~files in
      let part file = (file, [ Sut.Rmw (0, money 1) ]) in
      let spec = { Sut.file = 0; ops = []; parts = [ part 0; part 1 ] } in
      Alcotest.(check bool) "committed" true (sut.Sut.exec spec ~max_retries:4).Sut.committed;
      let txn_names =
        List.filter (String.starts_with ~prefix:"txn.") (List.map fst (sut.Sut.stats ()))
      in
      Alcotest.(check bool) "txn.committed listed" true (List.mem "txn.committed" txn_names);
      Alcotest.(check (list string)) "each txn.* name once" (List.sort_uniq compare txn_names)
        txn_names;
      List.iter
        (fun name ->
          Alcotest.(check int) name (count cluster name) (List.assoc name (sut.Sut.stats ())))
        txn_names)

(* {2 The 2PC baseline: Server.prepare and the host's parked answers} *)

let twopc_seed = 7

let twopc_file () =
  let srv = Server.create ~seed:twopc_seed (Afs_core.Store.memory ()) in
  let f = ok (Server.create_file srv ()) in
  let v0 = ok (Server.create_version srv f) in
  for i = 0 to 1 do
    ignore (ok (Server.insert_page srv v0 ~parent:P.root ~index:i ~data:(bytes "init") ()))
  done;
  ok (Server.commit srv v0);
  (srv, f)

let prepared_write srv f data =
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes data));
  v

let check_page0 srv f expected =
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "current page 0" expected (ok (Server.read_page srv cur (P.of_list [ 0 ])))

let commit_write srv f data =
  let w = ok (Server.create_version srv f) in
  ok (Server.write_page srv w (P.of_list [ 0 ]) (bytes data));
  Server.commit srv w

let expect_store_failure what = function
  | Error (Errors.Store_failure _) -> ()
  | Ok () -> Alcotest.failf "%s succeeded" what
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Errors.to_string e)

let test_twopc_prepare_then_commit () =
  let srv, f = twopc_file () in
  let v = prepared_write srv f "voted" in
  let answer = ok (Server.prepare srv v) in
  (* The prepare window blocks competitors on the base's commit lock. *)
  let w = ok (Server.create_version srv f) in
  ok (Server.write_page srv w (P.of_list [ 1 ]) (bytes "blocked"));
  expect_store_failure "a competitor's commit in the prepare window" (Server.commit srv w);
  ok (answer ~commit:true);
  check_page0 srv f "voted";
  (* Lock released: the competitor's redo goes through (disjoint pages
     merge). *)
  let w2 = ok (Server.create_version srv f) in
  ok (Server.write_page srv w2 (P.of_list [ 1 ]) (bytes "after"));
  ok (Server.commit srv w2)

let test_twopc_decide_abort_discards () =
  let srv, f = twopc_file () in
  let v = prepared_write srv f "doomed" in
  ok ((ok (Server.prepare srv v)) ~commit:false);
  check_page0 srv f "init";
  (* Lock released and the version abandoned: ordinary commits work. *)
  ok (commit_write srv f "next")

(* A crash aborts the prepared version and frees its lock in the store
   layer: the answer still held is stale and can only presume abort. *)
let test_twopc_crash_forgets_prepared () =
  let srv, f = twopc_file () in
  let v = prepared_write srv f "in flight" in
  let answer = ok (Server.prepare srv v) in
  let current = ok (Server.current_block_of_file srv f) in
  Server.crash srv;
  expect_store_failure "a stale commit answer" (answer ~commit:true);
  ok (answer ~commit:false);
  Alcotest.(check int) "current version unchanged" current
    (ok (Server.current_block_of_file srv f));
  check_page0 srv f "init";
  ok (commit_write srv f "post-crash");
  check_page0 srv f "post-crash"

(* The host parks prepared runs; a decision it holds no run for is
   presumed abort — never prepared, or forgotten in a crash. *)
let test_twopc_presumed_abort () =
  let srv, f = twopc_file () in
  in_sim (fun engine ->
      let host = Afs_rpc.Remote.host engine ~name:"afs" srv in
      let conn = Afs_rpc.Remote.connect [ host ] in
      let unprepared = prepared_write srv f "never prepared" in
      ok (Afs_rpc.Remote.decide conn unprepared ~commit:false);
      expect_store_failure "committing an unprepared version"
        (Afs_rpc.Remote.decide conn unprepared ~commit:true);
      let v = prepared_write srv f "in doubt" in
      ok (Afs_rpc.Remote.prepare conn v);
      Afs_rpc.Remote.crash_host host;
      Afs_rpc.Remote.restart_host host;
      expect_store_failure "committing after a crash" (Afs_rpc.Remote.decide conn v ~commit:true);
      ok (Afs_rpc.Remote.decide conn v ~commit:false);
      check_page0 srv f "init";
      ok (commit_write srv f "post-crash"))

(* Runs are parked under the exact capability that prepared them: a
   restricted copy finds none, and the run stays parked and locked. *)
let test_twopc_decide_needs_preparing_cap () =
  let srv, f = twopc_file () in
  in_sim (fun engine ->
      let conn = Afs_rpc.Remote.connect [ Afs_rpc.Remote.host engine ~name:"afs" srv ] in
      let v = prepared_write srv f "voted" in
      ok (Afs_rpc.Remote.prepare conn v);
      let weak =
        match
          Capability.restrict (Capability.secret_of_seed twopc_seed) v Capability.right_commit
        with
        | Ok weak -> weak
        | Error msg -> Alcotest.fail msg
      in
      expect_store_failure "a decide with another capability"
        (Afs_rpc.Remote.decide conn weak ~commit:true);
      ok (Afs_rpc.Remote.decide conn weak ~commit:false);
      check_page0 srv f "init";
      expect_store_failure "a commit against the still-parked run" (commit_write srv f "blocked");
      ok (Afs_rpc.Remote.decide conn v ~commit:true);
      check_page0 srv f "voted")

(* The 2PC SUT end to end, same transfer mix as the OCC coordinator. *)
let test_twopc_sut_conserves () =
  let open Afs_workload in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
  let tshape =
    { Workload.bank_transfers with accounts = 8; objects = 0; shards = 2;
      move_ratio = 0.0; cross_ratio = 0.5 }
  in
  let files = ok (Workload.setup_accounts cluster tshape ~initial_balance:100) in
  let sut = Sut.afs_twopc (CC.connect cluster) ~files in
  let config =
    { Driver.default_config with clients = 6; duration_ms = 800.0; think_ms = 5.0 }
  in
  let report = Driver.run engine config sut ~gen:(Workload.transfer tshape) in
  Alcotest.(check bool) "committed some transfers" true (report.Driver.committed > 0);
  Alcotest.(check int) "conserved" (100 * 8) (Workload.total_balance sut tshape)

(* {2 Conservation under crashes (the QCheck property)}

   Random cross-shard transfers with a deterministic crash schedule:
   coordinator kills at every protocol step (keyed by the coordinator's
   trace events) and participant shard kills mid-run (Faults), issued by
   three client processes that share one coordinator — so pooled records
   are taken and returned concurrently while resolvers race live
   coordinators, and each kill must strike only the process that armed
   it. After recovery and a sweep, the sum of balances is invariant,
   every definite outcome is reflected exactly once, and no in-doubt
   participant survives. [Workload.crash_transfers] runs and audits
   them, as it does for the s2 crash leg. *)

(* Shard crashes as the s2 crash leg and this property schedule them. *)
let crash_shards =
  List.map (fun (ms, shard) -> Faults.At (ms, Faults.Crash_shard { shard; down_ms = 10.0 }))

(* The audit's violations, a failed fault's first. *)
let crash_violations ?stores ~seed crashes =
  in_sim (fun engine ->
      let client = CC.connect (Cluster.create ~latency_ms:1.0 ?stores engine ~shards:3) in
      (Afs_workload.Workload.crash_transfers client (setup_accounts client 6 100)
         ~initial_balance:100 crashes
         (List.init 3 (fun i -> (Xrng.create ((seed * 3) + i + 1), 10))))
        .violations)

let conservation_one_run ~seed ~crashes =
  match crash_violations ~seed crashes with
  | [] -> true
  | m :: _ -> QCheck2.Test.fail_reportf "seed %d %a: %s" seed Faults.pp crashes m

(* A shard whose store cannot list its blocks cannot recover: the
   property reports the failed crash, whatever the balances say. *)
let test_failed_recovery_reported () =
  let unlisted _ = { (Afs_core.Store.memory ()) with list_blocks = (fun () -> Error "unlisted") } in
  match crash_violations ~stores:unlisted ~seed:1 (crash_shards [ (40.0, 0) ]) with
  | m :: _ ->
      Alcotest.(check string) "the failed fault"
        "[@40ms -> crash shard 0 for 10ms]: recovery FAILED: store failure: unlisted" m
  | [] -> Alcotest.fail "a failed recovery passed the audit"

(* {2 Every coordinator crash site}

   A crash site is any event the coordinator's process emits, and the
   kill at its [n]th event fires exactly when a run emits [n], so
   counting [n] up until the coordinator outlives its kill enumerates
   them all. A three-part transfer over three shards puts every
   participant on its own shard: the decide's batch flips only the last,
   and the coordinator flips the other two itself. *)

(* One three-part transfer under the kill schedule [kill], then swept:
   whether the coordinator was killed, the balances, whether a root is
   still staged, and the record's decision (if the record was taken). *)
let three_part_transfer kill =
  in_faulty_cluster ~shards:3 (fun faults _cluster client ->
      let accts = setup_accounts client 3 100 in
      let txn = killable faults client in
      let parts =
        [ { Txn.file = accts.(0); ops = [ debit 30 ] };
          { Txn.file = accts.(1); ops = [ credit 20 ] };
          { Txn.file = accts.(2); ops = [ credit 10 ] } ]
      in
      let record = ref None in
      let killed =
        match
          Faults.run faults kill (fun () ->
              Txn.exec ~on_record:(fun r seq -> record := Some (r, seq)) txn parts)
        with
        | exception Proc.Killed -> true
        | result ->
            ok_txn result;
            false
      in
      let sweeper = Txn.create client in
      ignore (ok (Txn.sweep sweeper (Array.to_list accts)) : int);
      let staged =
        Array.exists (fun f -> is_staged (ok (Batch_ops.read_current client f P.root))) accts
      in
      let decision = Option.map (fun (r, seq) -> ok (Txn.record_decision sweeper r ~seq)) !record in
      let balances = Array.to_list (Array.map (read_balance client) accts) in
      (killed, balances, staged, decision))

let test_every_crash_site () =
  let moved = [ 70; 120; 110 ] and unmoved = [ 100; 100; 100 ] in
  let audit where (killed, balances, staged, decision) =
    Alcotest.(check bool) (where ^ ": killed") true killed;
    Alcotest.(check bool) (where ^ ": nothing staged") false staged;
    Alcotest.(check int) (where ^ ": conserved") 300 (List.fold_left ( + ) 0 balances);
    Alcotest.(check (list int))
      (where ^ ": the record decides the balances")
      (if decision = Some Txn.Committed then moved else unmoved)
      balances
  in
  let committed = ref 0 in
  let rec sweep n =
    match three_part_transfer [ Faults.Kill_at (n, Faults.Any) ] with
    | false, balances, _, _ ->
        Alcotest.(check (list int)) "the run that outlives its kill commits" moved balances;
        n - 1
    | (true, _, _, decision) as run ->
        if decision = Some Txn.Committed then incr committed;
        audit (Printf.sprintf "killed at site %d" (n - 1)) run;
        sweep (n + 1)
  in
  let sites = sweep 1 in
  Printf.printf "%d coordinator crash sites\n" sites;
  (* Kills after the decide outlive their coordinator's commitment. *)
  Alcotest.(check bool) "some killed transfers committed, some did not" true
    (!committed > 0 && !committed < sites);
  (* The crash leg's kill points are sites too: each one fires. *)
  Array.iter
    (fun kill -> if kill <> [] then audit (Fmt.str "%a" Faults.pp kill) (three_part_transfer kill))
    Afs_workload.Workload.coordinator_kills

(* A schedule prints as one line: the s2 crash leg's shard crashes, and
   a coordinator kill, whose [fault.fire] point names it the same way
   on every run. *)
let test_schedule_prints () =
  Alcotest.(check string)
    "s2 shard crashes"
    "[@40ms -> crash shard 0 for 10ms; @110ms -> crash shard 1 for 10ms; \
     @180ms -> crash shard 2 for 10ms]"
    (Fmt.str "%a" Faults.pp (crash_shards [ (40.0, 0); (110.0, 1); (180.0, 2) ]));
  let kill = "#1 point txn.decide committed=true -> kill" in
  Alcotest.(check string) "a kill" ("[" ^ kill ^ "]") (Fmt.str "%a" Faults.pp after_decide);
  let kill = Trace.Str kill in
  let fired () =
    in_faulty_cluster ~shards:2 (fun faults cluster client ->
        let engine = Cluster.engine cluster in
        let trace = Trace.ring ~now:(fun () -> Engine.now engine) () in
        Engine.set_trace engine trace;
        let accts = setup_accounts client 2 100 in
        exec_killed faults ~at:after_decide (killable faults client) (transfer accts 0 1 30);
        List.map
          (fun p -> List.assoc "entry" (Trace.fields_of_payload p))
          (Query.points_of_kind (Trace.events trace) "fault.fire"))
  in
  Alcotest.(check bool) "two runs" true ([ [ kill ]; [ kill ] ] = [ fired (); fired () ])

let prop_conservation =
  QCheck2.Test.make ~name:"cross-shard transfers conserve under crash schedules"
    ~count:100
    ~print:(fun (seed, crashes) -> Fmt.str "seed %d %a" seed Faults.pp crashes)
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (map crash_shards
           (list_size (int_bound 2) (pair (float_bound_exclusive 80.0) (int_bound 2)))))
    (fun (seed, crashes) -> conservation_one_run ~seed ~crashes)

let () =
  Alcotest.run "txn"
    [
      ( "marker",
        [
          QCheck_alcotest.to_alcotest prop_marker_roundtrip;
          quick "rejects garbage" test_marker_rejects_garbage;
          quick "rejects an overflowing length" test_marker_length_overflow;
          QCheck_alcotest.to_alcotest prop_outcome_codec;
          QCheck_alcotest.to_alcotest prop_every_kind_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_total;
        ] );
      ("decision", [ quick "pure decide/resolve table" test_decision_table ]);
      ( "protocol",
        [
          quick "cross-shard commit is atomic and clean" test_cross_shard_commit;
          quick "single part takes the fast path" test_single_part_fast_path;
          quick "reader resolves an in-doubt file" test_reader_resolves_in_doubt;
          quick "afs_cluster waits out an in-doubt file" test_afs_cluster_waits_out_marker;
          quick "sweep discards an undecided txn" test_sweep_discards_undecided;
          quick "sweep completes a decided txn" test_sweep_completes_decided;
          quick "stage fences versions opened before it" test_stage_fences_prior_versions;
          quick "an overflowing marker-like root opens" test_overflowing_root_opens;
          quick "magic-prefixed garbage roots open" test_garbage_roots_open;
          quick "a transfer chases a moved participant" test_transfer_chases_moved;
          quick "an Rmw reads its part's own write" test_rmw_after_write;
          QCheck_alcotest.to_alcotest prop_one_part_matches_per_op;
          quick "a forward cycle stops at the hop limit" test_forward_cycle;
          quick "batches on a tombstone answer Moved" test_batch_on_tombstone_moved;
          quick "records are reused" test_records_reused;
          quick "a migrated pooled record still decides" test_migrated_record_decides;
          quick "stale resolver changes nothing" test_stale_resolver;
          quick "collector races a flip and a resolver" test_collector_race;
          quick "an in-doubt seal leaks its record" test_seal_in_doubt;
          quick "oversized seal leaves nothing" test_oversized_seal;
        ] );
      ( "park",
        [
          quick "an await is answered by the decide" test_await_answered_by_decide;
          quick "a decided record answers at once" test_await_answers_decided_at_once;
          quick "a dead coordinator is force-aborted" test_await_budget_force_aborts;
          quick "a marked opening opens nothing" test_marked_open_opens_nothing;
          quick "a shard crash fails a held await" test_crash_fails_await;
          quick "afs_txn is deterministic per seed" test_afs_txn_deterministic;
          quick "coordinators share the cluster's counters" test_coordinators_share_counters;
          quick "afs_txn's stats are the cluster's table" test_afs_txn_stats_are_the_cluster_table;
        ] );
      ("trace", [ quick "decide/stage span oracle, deterministic" test_trace_oracle ]);
      ( "twopc",
        [
          quick "prepare parks, decide publishes" test_twopc_prepare_then_commit;
          quick "decide-abort discards" test_twopc_decide_abort_discards;
          quick "presumed abort" test_twopc_presumed_abort;
          quick "decide needs the preparing cap" test_twopc_decide_needs_preparing_cap;
          quick "crash forgets prepared state" test_twopc_crash_forgets_prepared;
          quick "2pc SUT conserves money" test_twopc_sut_conserves;
        ] );
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest prop_conservation;
          quick "every coordinator crash site" test_every_crash_site;
          quick "a schedule prints on one line" test_schedule_prints;
          quick "a failed recovery is a violation" test_failed_recovery_reported;
        ] );
    ]
