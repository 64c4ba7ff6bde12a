(* Group commit: the batched validate → merge → publish pipeline must be
   observationally identical to committing one at a time — same per-member
   outcomes, same counters of record, byte-identical final store — while a
   crash inside the amortised publish leg must still leave every member
   atomically committed or not. A plain commit, a one-member batch and a
   two-phase prepare + decide are one pipeline run, and only a published
   run counts as a commit, in one [commit] span. Plus commit-lock
   contention. *)

open Afs_core
module P = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Xrng = Afs_util.Xrng
module Trace = Afs_trace.Trace
module Query = Afs_trace.Query
module Remote = Afs_rpc.Remote

let ok = Helpers.ok
let ok_str = Helpers.ok_str
let bytes = Helpers.bytes
let quick = Helpers.quick

let counter srv name = Stats.Counter.get (Server.counters srv) name

(* {2 Equivalence: batch ≡ sequential} *)

let npages = 4

type txn = { file : int; reads : int list; writes : (int * string) list }

(* A deterministic scenario: a few files, 4..12 transactions each reading
   and writing a couple of pages of one file. The reads matter: a blind
   overwrite merges under the §5.2 conditions, so only read/write overlap
   produces real conflicts. *)
let gen_scenario seed =
  let rng = Xrng.create seed in
  let nfiles = 1 + Xrng.int rng 3 in
  let ntxns = 4 + Xrng.int rng 9 in
  let txns =
    List.init ntxns (fun i ->
        let file = Xrng.int rng nfiles in
        let reads = List.init (Xrng.int rng 3) (fun _ -> Xrng.int rng npages) in
        let nw = 1 + Xrng.int rng 2 in
        let writes =
          List.init nw (fun j -> (Xrng.int rng npages, Printf.sprintf "t%d.%d" i j))
        in
        { file; reads; writes })
  in
  (nfiles, txns)

(* Build the scenario on a fresh server: all versions are prepared before
   any commit, so the two runs allocate identically and only the commit
   discipline differs. *)
let build ?trace (nfiles, txns) =
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ?trace store in
  let files = Array.init nfiles (fun _ -> Helpers.file_with_pages srv npages) in
  let caps =
    List.map
      (fun txn ->
        let v = ok (Server.create_version srv files.(txn.file)) in
        List.iter (fun p -> ignore (ok (Server.read_page srv v (P.of_list [ p ])))) txn.reads;
        List.iter
          (fun (p, value) -> ok (Server.write_page srv v (P.of_list [ p ]) (bytes value)))
          txn.writes;
        v)
      txns
  in
  (store, srv, caps)

let dump store =
  let blocks = List.sort compare (ok_str (store.Store.list_blocks ())) in
  List.map (fun b -> (b, ok_str (store.Store.read b))) blocks

let rec take n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: tl ->
        let batch, rest = take (n - 1) tl in
        (x :: batch, rest)

let rec windows w l =
  match l with
  | [] -> []
  | _ ->
      let batch, rest = take w l in
      batch :: windows w rest

let prop_batch_equals_sequential =
  QCheck2.Test.make
    ~name:"group commit ≡ sequential: outcomes, counters, store image (windows 1/2/4/8)"
    ~count:40
    ~print:(fun (seed, w) -> Printf.sprintf "seed=%d window=%d" seed w)
    QCheck2.Gen.(pair (int_range 1 100_000) (oneofl [ 1; 2; 4; 8 ]))
    (fun (seed, w) ->
      let scenario = gen_scenario seed in
      let store_a, srv_a, caps_a = build scenario in
      let store_b, srv_b, caps_b = build scenario in
      let res_a = List.map (Server.commit srv_a) caps_a in
      let res_b = List.concat_map (Server.commit_batch srv_b) (windows w caps_b) in
      let same name = counter srv_a name = counter srv_b name in
      res_a = res_b
      && dump store_a = dump store_b
      && same "commits.ok" && same "commits.conflict")

(* {2 Direct batch shapes} *)

let trace_batches trace =
  List.filter_map
    (function
      | Trace.Point { payload = Trace.Commit_batch { size; winners; aborts }; _ } ->
          Some (size, winners, aborts)
      | _ -> None)
    (Trace.events trace)

let test_batch_disjoint_members () =
  let trace = Trace.ring ~now:(fun () -> 0.0) () in
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ~trace store in
  let f = Helpers.file_with_pages srv npages in
  let v1 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v1 (P.of_list [ 0 ]) (bytes "a"));
  let v2 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v2 (P.of_list [ 1 ]) (bytes "b"));
  (match Server.commit_batch srv [ v1; v2 ] with
  | [ Ok (); Ok () ] -> ()
  | l -> Alcotest.failf "expected two Ok results, got %d results" (List.length l));
  (* The first member wins its test-and-set outright; the second finds the
     first's reference in the batch overlay and merges past it. *)
  Alcotest.(check int) "merged" 1 (counter srv "commits.merged");
  Alcotest.(check int) "ok (setup + both members)" 3 (counter srv "commits.ok");
  Alcotest.(check int) "chain spine" 4 (List.length (ok (Server.committed_chain srv f)));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "first member's write" "a" (ok (Server.read_page srv cur (P.of_list [ 0 ])));
  Helpers.check_bytes "second member's write" "b" (ok (Server.read_page srv cur (P.of_list [ 1 ])));
  match trace_batches trace with
  | [ b ] ->
      Alcotest.(check (triple int int int)) "batch point: size/winners/aborts" (2, 2, 0) b
  | l -> Alcotest.failf "expected one Commit_batch point, got %d" (List.length l)

let test_batch_conflicting_member_doomed_alone () =
  let trace = Trace.ring ~now:(fun () -> 0.0) () in
  let store = Store.memory () in
  let srv = Server.create ~seed:7 ~trace store in
  let f = Helpers.file_with_pages srv npages in
  let v1 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v1 (P.of_list [ 0 ]) (bytes "a"));
  (* The second member reads what the first wrote — the one §5.2 overlap
     that cannot serialise — then derives a write from it. *)
  let v2 = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v2 (P.of_list [ 0 ])));
  ok (Server.write_page srv v2 (P.of_list [ 1 ]) (bytes "b"));
  let v3 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v3 (P.of_list [ 2 ]) (bytes "c"));
  (match Server.commit_batch srv [ v1; v2; v3 ] with
  | [ Ok (); Error Errors.Conflict; Ok () ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Conflict; Ok]");
  (* The middle member is doomed by the one-pass pre-test against the
     union of the admitted winners' write sets — without a tree walk and
     without dooming the member behind it. *)
  Alcotest.(check int) "shortcircuit" 1 (counter srv "commits.shortcircuit");
  Alcotest.(check int) "conflict" 1 (counter srv "commits.conflict");
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "winner's write survives" "a"
    (ok (Server.read_page srv cur (P.of_list [ 0 ])));
  Helpers.check_bytes "doomed member's write vanished" "p1"
    (ok (Server.read_page srv cur (P.of_list [ 1 ])));
  Helpers.check_bytes "post-conflict member's write survives" "c"
    (ok (Server.read_page srv cur (P.of_list [ 2 ])));
  match trace_batches trace with
  | [ b ] ->
      Alcotest.(check (triple int int int)) "batch point: size/winners/aborts" (3, 2, 1) b
  | l -> Alcotest.failf "expected one Commit_batch point, got %d" (List.length l)

(* A capability twice in one batch: members are resolved before the run,
   but the first copy is doomed, so the second answers as a commit of the
   aborted version would. *)
let test_batch_repeated_doomed_member () =
  let srv = Server.create ~seed:7 (Store.memory ()) in
  let f = Helpers.file_with_pages srv npages in
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (P.of_list [ 0 ])));
  ok (Server.write_page srv v (P.of_list [ 1 ]) (bytes "v"));
  let w = ok (Server.create_version srv f) in
  ok (Server.write_page srv w (P.of_list [ 0 ]) (bytes "w"));
  ok (Server.commit srv w);
  match Server.commit_batch srv [ v; v ] with
  | [ Error Errors.Conflict; Error Errors.Version_not_mutable ] -> ()
  | _ -> Alcotest.fail "expected [Conflict; Version_not_mutable]"

(* The same three members as [Version] batches through a group-commit
   host, the middle one asking for a redo: it loses inside the run and
   answers with its reopened version, reading the first member's write.
   Every answer and the store image equal the same requests served one
   at a time by an unbatched twin. The outer members wrote their pages
   before queuing: a group runs every member's steps before any commit,
   so a write step there would take its block before the redo's, not
   after it as one at a time. *)
let redo_trio ~grouped =
  let engine = Afs_sim.Engine.create () in
  let store = Store.memory () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv npages in
  let v1 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v1 (P.of_list [ 0 ]) (bytes "a"));
  let v2 = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v2 (P.of_list [ 0 ])));
  let v3 = ok (Server.create_version srv f) in
  ok (Server.write_page srv v3 (P.of_list [ 2 ]) (bytes "c"));
  let conn =
    Remote.connect
      [ Remote.host ~group_commit:(if grouped then 3 else 1) engine ~name:"afs" srv ]
  in
  let member v steps () = Remote.batch conn (Remote.Version v) steps in
  let members =
    [ member v1 [ Remote.Commit ];
      member v2
        [ Remote.Write (P.of_list [ 1 ], bytes "b"); Remote.Commit;
          Remote.Redo (f, [ P.of_list [ 0 ] ]) ];
      member v3 [ Remote.Commit ] ]
  in
  let answers = Array.make 3 None in
  let _ =
    Afs_sim.Proc.spawn engine (fun () ->
        if grouped then begin
          (* A request ahead of them keeps the server busy while all three queue. *)
          let spawn_joined, join_all = Afs_sim.Proc.joinable engine in
          ignore (spawn_joined (fun () -> ignore (Batch_ops.current_version conn f)));
          List.iteri
            (fun i m -> ignore (spawn_joined (fun () -> answers.(i) <- Some (m ()))))
            members;
          join_all ()
        end
        else List.iteri (fun i m -> answers.(i) <- Some (m ())) members)
  in
  Afs_sim.Engine.run engine;
  (* The reopened version's page is allocated but not yet written. *)
  let image =
    List.map (fun b -> (b, store.Store.read b)) (ok_str (store.Store.list_blocks ()))
  in
  ( Array.to_list answers,
    counter srv "commits.batches",
    image,
    ok (Server.uncommitted_versions srv f) )

let test_batch_loser_redoes () =
  let grouped, batches, image, open_versions = redo_trio ~grouped:true in
  let alone, _, alone_image, alone_open = redo_trio ~grouped:false in
  Alcotest.(check int) "one commit run" 1 batches;
  (match grouped with
  | [ Some (Ok (Remote.Ran _)); Some (Ok (Remote.Reopened { reads; _ }));
      Some (Ok (Remote.Ran _)) ] ->
      Alcotest.(check (list string)) "reopened on the winner's write" [ "root"; "a" ]
        (List.map Bytes.to_string reads)
  | _ -> Alcotest.fail "expected [Ran; Reopened; Ran]");
  Alcotest.(check bool) "answers as one at a time" true (grouped = alone);
  Alcotest.(check bool) "store image as one at a time" true (image = alone_image);
  Alcotest.(check int) "the reopened version stays open" 1 (List.length open_versions);
  Alcotest.(check bool) "open versions as one at a time" true (open_versions = alone_open)

(* {2 Crash inside the publish leg} *)

(* A store that serves [allow] writes and then fails every later one until
   healed — [write_batch] must be overridden too (the record update would
   otherwise keep the inner store's batch path, bypassing the
   injection). *)
let failing_store ~allow () =
  let inner = Store.memory () in
  let remaining = ref allow in
  let write b data =
    if !remaining <= 0 then Error "injected: disk gone"
    else begin
      decr remaining;
      inner.Store.write b data
    end
  in
  let rec write_batch = function
    | [] -> Ok ()
    | (b, data) :: rest -> (
        match write b data with Ok () -> write_batch rest | Error _ as e -> e)
  in
  ({ inner with Store.write; write_batch }, fun () -> remaining := max_int)

(* Two files, one updating member each: both win validation, so the batch
   publishes two members' pages and two commit references in one leg. *)
let crash_scenario ?trace store =
  let srv = Server.create ~seed:7 ?trace store in
  let f1 = Helpers.file_with_pages srv 2 in
  let f2 = Helpers.file_with_pages srv 2 in
  let v1 = ok (Server.create_version srv f1) in
  ok (Server.write_page srv v1 (P.of_list [ 0 ]) (bytes "one"));
  let v2 = ok (Server.create_version srv f2) in
  ok (Server.write_page srv v2 (P.of_list [ 0 ]) (bytes "two"));
  (srv, [ v1; v2 ])

(* Dry run of [crash_scenario] on a counting store: the number of writes
   before the publish, and the publish batch's length. *)
let publish_batch_shape () =
  let counted, stats = Store.counting (Store.memory ()) in
  let srv, caps = crash_scenario counted in
  let _, before = stats () in
  List.iter (fun r -> ok r) (Server.commit_batch srv caps);
  let _, after = stats () in
  (before, after - before)

(* Every block the committed chain of [fc] reaches must read back. *)
let check_tree_readable srv fc =
  let rec walk block =
    match Pagestore.read (Server.pagestore srv) block with
    | Error e -> Alcotest.failf "recovered reference to unreadable block %d: %s" block
                   (Errors.to_string e)
    | Ok page -> Array.iter (fun (e : Page.ref_entry) -> walk e.Page.block) page.Page.refs
  in
  List.iter walk (ok (Server.committed_chain srv fc))

let recover store =
  let srv = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv (ok_str (store.Store.list_blocks ()))));
  srv

let test_crash_mid_batch_atomic_per_member () =
  let before, batch = publish_batch_shape () in
  (* Each member's version page and page copy, then the two references. *)
  Alcotest.(check int) "pages ride the publish batch" 6 batch;
  (* Fail the store at every position of the publish batch: the first
     [k] writes land, the rest do not. *)
  for k = 0 to batch - 1 do
    let store, _ = failing_store ~allow:(before + k) () in
    let srv, caps = crash_scenario store in
    (match Server.commit_batch srv caps with
    | [ Error (Errors.Store_failure m1); Error (Errors.Store_failure m2) ] ->
        Alcotest.(check (list string)) "both members surface the store failure"
          [ "injected: disk gone"; "injected: disk gone" ] [ m1; m2 ]
    | _ -> Alcotest.fail "expected both members to report the store failure");
    (* Recovery reads the truth back: each member is committed whole,
       every page of it readable, or absent. Only once the first
       reference (write 4) landed is the first member committed. *)
    Server.crash srv;
    let srv2 = recover store in
    let classify fc =
      check_tree_readable srv2 fc;
      let cur = ok (Server.current_version srv2 fc) in
      let page0 = Helpers.str (ok (Server.read_page srv2 cur (P.of_list [ 0 ]))) in
      (List.length (ok (Server.committed_chain srv2 fc)), page0)
    in
    let states = List.sort compare (List.map classify (Server.list_files srv2)) in
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "failure after %d of %d publish writes" k batch)
      (if k > 4 then [ (2, "p0"); (3, "one") ] else [ (2, "p0"); (2, "p0") ])
      states
  done

let one_update store =
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "one"));
  (srv, f, v)

let test_failed_publish_retried () =
  (* The publish fails after the version page lands but before its copy
     and its reference do; the store heals; the same version's commit
     then succeeds, its unlanded page written because it stayed dirty. *)
  let counted, stats = Store.counting (Store.memory ()) in
  ignore (one_update counted);
  let _, before = stats () in
  let store, heal = failing_store ~allow:(before + 1) () in
  let srv, f, v = one_update store in
  (match Server.commit srv v with
  | Error (Errors.Store_failure _) -> ()
  | _ -> Alcotest.fail "expected the publish to fail");
  heal ();
  ok (Server.commit srv v);
  Server.crash srv;
  let srv2 = recover store in
  check_tree_readable srv2 f;
  let cur = ok (Server.current_version srv2 f) in
  Helpers.check_bytes "the retried commit's page survived" "one"
    (ok (Server.read_page srv2 cur (P.of_list [ 0 ])))

(* {3 A publish that landed although it failed}

   The store writes the whole publish batch and then loses the
   acknowledgement, so the commit answers the store error while the
   version is durably committed. The server must learn that from the
   store, not go on treating the version as uncommitted. *)

let lost_ack_update () =
  let armed = ref false in
  let srv = Server.create ~seed:7 (Helpers.lossy_store armed) in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  (srv, f, v, armed)

let lost_ack srv v armed =
  armed := true;
  match Server.commit srv v with
  | Error (Errors.Store_failure _) -> ()
  | _ -> Alcotest.fail "expected the lost acknowledgement to fail the commit"

let check_current srv f ~page0 =
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "page 0" page0 (ok (Server.read_page srv cur (P.of_list [ 0 ])));
  Helpers.check_bytes "page 1" "p1" (ok (Server.read_page srv cur (P.of_list [ 1 ])))

(* Aborting the version must not free the pages of a committed one. *)
let test_lost_ack_then_abort () =
  let srv, f, v, armed = lost_ack_update () in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "one"));
  lost_ack srv v armed;
  ignore (Server.abort_version srv v : unit Errors.r);
  check_current srv f ~page0:"one";
  Alcotest.(check bool) "the version is committed" true
    (ok (Server.version_status srv v) = Server.Committed)

(* A retry must not find the version in its own way: it read page 1,
   which its own commit "wrote" as far as a merge can tell. *)
let test_lost_ack_then_retry () =
  let srv, f, v, armed = lost_ack_update () in
  ignore (ok (Server.read_page srv v (P.of_list [ 1 ])));
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "one"));
  lost_ack srv v armed;
  (match Server.commit srv v with
  | Error Errors.Version_not_mutable -> ()
  | Ok () -> Alcotest.fail "a committed version committed again"
  | Error e -> Alcotest.failf "the retry answered %s" (Errors.to_string e));
  check_current srv f ~page0:"one"

(* A blind writer's retry would merge with itself and name itself as its
   own successor; its commit reference is read directly, since chasing
   such a chain never ends. *)
let test_lost_ack_no_cycle () =
  let srv, f, v, armed = lost_ack_update () in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "one"));
  lost_ack srv v armed;
  ignore (Server.commit srv v : unit Errors.r);
  let vb = ok (Server.version_block srv v) in
  Alcotest.(check (option int)) "the version is the current one" None
    (ok (Pagestore.peek_commit_ref (Server.pagestore srv) vb));
  check_current srv f ~page0:"one"

(* A memory store whose writes all fail while [up] is false. *)
let switchable_store () =
  let inner = Store.memory () in
  let up = ref true in
  let gone = Error "injected: disk gone" in
  let write b data = if !up then inner.Store.write b data else gone in
  let write_batch entries = if !up then inner.Store.write_batch entries else gone in
  ({ inner with Store.write; write_batch }, up)

let failed_publish srv v up =
  up := false;
  (match Server.commit srv v with
  | Error (Errors.Store_failure _) -> ()
  | _ -> Alcotest.fail "expected the publish to fail");
  up := true

(* A fast-path win reshares the version's read copies, dropping their R
   flags, and then its publish fails. Another commit writes the page it
   read; the retry must conflict, not merge past the lost read. *)
let test_retry_after_dropped_shadows () =
  let store, up = switchable_store () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (P.of_list [ 1 ])));
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "v"));
  failed_publish srv v up;
  let w = ok (Server.create_version srv f) in
  ok (Server.write_page srv w (P.of_list [ 1 ]) (bytes "w"));
  ok (Server.commit srv w);
  Helpers.expect_conflict (Server.commit srv v)

(* A merge adopts the committed version's child of a page the candidate
   only read, and then its publish fails. The retry wins at its new base
   at once; its read copy now holds the adopted child, so it must not be
   pointed back at the page it was copied from. *)
let test_retry_after_merge_keeps_adopted () =
  let store, up = switchable_store () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let s = ok (Server.create_version srv f) in
  ignore (ok (Server.insert_page srv s ~parent:(P.of_list [ 1 ]) ~index:0 ~data:(bytes "c") ()));
  ok (Server.commit srv s);
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv v (P.of_list [ 1 ])));
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "v"));
  let w = ok (Server.create_version srv f) in
  ok (Server.write_page srv w (P.of_list [ 1; 0 ]) (bytes "w"));
  ok (Server.commit srv w);
  failed_publish srv v up;
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "the retry's write" "v" (ok (Server.read_page srv cur (P.of_list [ 0 ])));
  Helpers.check_bytes "the adopted write" "w" (ok (Server.read_page srv cur (P.of_list [ 1; 0 ])))

(* {2 Write amplification: a commit writes its own pages, once} *)

(* A memory store counting entries written ([Store.counting]) and
   [write_batch] calls. *)
let counting_store () =
  let counted, stats = Store.counting (Store.memory ()) in
  let batches = ref 0 in
  let write_batch entries =
    incr batches;
    counted.Store.write_batch entries
  in
  ({ counted with Store.write_batch }, fun () -> (snd (stats ()), !batches))

let writes_during stats f =
  let w0, b0 = stats () in
  let r = f () in
  let w1, b1 = stats () in
  (r, w1 - w0, b1 - b0)

let test_doomed_and_aborted_write_nothing () =
  let store, stats = counting_store () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let winner = ok (Server.create_version srv f) in
  let loser = ok (Server.create_version srv f) in
  ignore (ok (Server.read_page srv loser (P.of_list [ 0 ])));
  ok (Server.write_page srv loser (P.of_list [ 1 ]) (bytes "lost"));
  ok (Server.write_page srv winner (P.of_list [ 0 ]) (bytes "won"));
  ok (Server.commit srv winner);
  let r, writes, _ = writes_during stats (fun () -> Server.commit srv loser) in
  Helpers.expect_conflict r;
  Alcotest.(check int) "short-circuited" 1 (counter srv "commits.shortcircuit");
  Alcotest.(check int) "short-circuited doomed commit writes nothing" 0 writes;
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 1 ]) (bytes "abandoned"));
  let r, writes, _ = writes_during stats (fun () -> Server.abort_version srv v) in
  ok r;
  Alcotest.(check int) "abort writes nothing" 0 writes

let test_serialise_conflict_writes_nothing () =
  (* The winner commits through a second server sharing the store, so the
     loser's server learns it: the pre-test reads its map from its tree
     and finds the conflict without the serialise walk. *)
  let store, stats = counting_store () in
  let ports = Ports.create () in
  let srv1 = Server.create ~seed:7 ~ports store in
  let srv2 = Server.create ~seed:7 ~ports store in
  let f = Helpers.file_with_pages srv1 2 in
  ignore (ok (Server.recover_from_blocks srv2 (ok_str (store.Store.list_blocks ()))));
  let loser = ok (Server.create_version srv1 f) in
  ignore (ok (Server.read_page srv1 loser (P.of_list [ 0 ])));
  ok (Server.write_page srv1 loser (P.of_list [ 1 ]) (bytes "lost"));
  let winner = ok (Server.create_version srv2 f) in
  ok (Server.write_page srv2 winner (P.of_list [ 0 ]) (bytes "won"));
  ok (Server.commit srv2 winner);
  let r, writes, _ = writes_during stats (fun () -> Server.commit srv1 loser) in
  Helpers.expect_conflict r;
  Alcotest.(check int) "found by the pre-test" 1 (counter srv1 "commits.shortcircuit");
  Alcotest.(check int) "one conflict" 1 (counter srv1 "commits.conflict");
  Alcotest.(check int) "doomed commit writes nothing" 0 writes

let test_fastpath_writes_pages_and_one_ref () =
  let store, stats = counting_store () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "fast"));
  let r, writes, batches = writes_during stats (fun () -> Server.commit srv v) in
  ok r;
  Alcotest.(check int) "fast path" 2 (counter srv "commits.fastpath");
  (* The version page and its one page copy, then the base's reference. *)
  Alcotest.(check int) "private pages plus one reference" 3 writes;
  Alcotest.(check int) "in one write_batch" 1 batches

(* {2 Only a published commit counts} *)

let success_outcomes events =
  List.filter_map
    (function
      | Trace.Point { payload = Trace.Commit_outcome { outcome; _ }; _ }
        when outcome = "fastpath" || outcome = "merged" ->
          Some outcome
      | _ -> None)
    events

let success_counts srv = counter srv "commits.fastpath" + counter srv "commits.merged"

(* Count the successes a call reports — outcome points in [srv]'s ring
   [trace] and fastpath / merged counters — from just before it. *)
let reported_successes srv trace f =
  let mark = Trace.events_emitted trace in
  let before = success_counts srv in
  let result = f () in
  (result, success_outcomes (Helpers.events_since trace mark), success_counts srv - before)

let test_only_published_commits_count () =
  (* A batch whose publish leg fails at its first reference: both members
     won their test-and-sets, neither reference reached the store. *)
  let counted, stats = Store.counting (Store.memory ()) in
  let srv0, caps0 = crash_scenario counted in
  List.iter (fun r -> ok r) (Server.commit_batch srv0 caps0);
  let _, total_writes = stats () in
  let trace = Trace.ring ~now:(fun () -> 0.0) () in
  let srv, caps = crash_scenario ~trace (fst (failing_store ~allow:(total_writes - 2) ())) in
  let results, outcomes, counted =
    reported_successes srv trace (fun () -> Server.commit_batch srv caps)
  in
  (match results with
  | [ Error (Errors.Store_failure _); Error (Errors.Store_failure _) ] -> ()
  | _ -> Alcotest.fail "expected both members to report the store failure");
  Alcotest.(check (list string)) "no success outcome after a failed publish" [] outcomes;
  Alcotest.(check int) "no fastpath/merged count after a failed publish" 0 counted;
  (* A single commit whose publish the replication gate vetoes. *)
  let veto = ref false in
  let srv =
    Server.create ~seed:7 ~trace
      ~publish_tap:(fun _ -> if !veto then Error Errors.Conflict else Ok ())
      (Store.memory ())
  in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "x"));
  veto := true;
  let result, outcomes, counted = reported_successes srv trace (fun () -> Server.commit srv v) in
  (match result with
  | Error Errors.Conflict -> ()
  | _ -> Alcotest.fail "expected the vetoed commit to fail with Conflict");
  Alcotest.(check (list string)) "no success outcome after a veto" [] outcomes;
  Alcotest.(check int) "no fastpath/merged count after a veto" 0 counted

(* {2 The single-commit paths are one pipeline} *)

(* The three ways to commit one version — plain, as a one-member batch,
   and through the two-phase prepare and its answer — drive the same
   run. The first two also emit the same trace; a prepared run's publish
   waits outside its span for the answer. *)
let prop_single_paths_agree =
  let single_paths =
    [
      Server.commit;
      (fun srv cap ->
        match Server.commit_batch srv [ cap ] with
        | [ r ] -> r
        | _ -> Error (Errors.Store_failure "one result per member"));
      (fun srv cap -> Result.bind (Server.prepare srv cap) (fun answer -> answer ~commit:true));
    ]
  in
  QCheck2.Test.make
    ~name:"commit ≡ one-member batch ≡ prepare + decide: outcomes, counters, store image, trace"
    ~count:40 ~print:(Printf.sprintf "seed=%d") (QCheck2.Gen.int_range 1 100_000)
    (fun seed ->
      let scenario = gen_scenario seed in
      let run commit_one =
        let trace = Trace.ring ~now:(fun () -> 0.0) () in
        let store, srv, caps = build ~trace scenario in
        let results = List.map (commit_one srv) caps in
        ( (results, dump store, counter srv "commits.ok", counter srv "commits.conflict"),
          Trace.events trace )
      in
      match List.map run single_paths with
      | [ (plain, plain_trace); (batch, batch_trace); (prepared, _) ] ->
          plain = batch && plain = prepared && plain_trace = batch_trace
      | _ -> false)

(* {2 Commit-lock contention} *)

let test_held_lock_fails_at_once () =
  let store = Store.memory () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (P.of_list [ 0 ]) (bytes "x"));
  let base = ok (Server.current_block_of_file srv f) in
  Alcotest.(check bool) "contender takes the base lock" true (store.Store.lock base);
  (match Server.commit srv v with
  | Error (Errors.Store_failure msg) ->
      Alcotest.(check string) "fails at once" "commit lock contention" msg
  | _ -> Alcotest.fail "expected a lock-contention failure");
  Alcotest.(check bool) "version still uncommitted" true
    (ok (Server.version_status srv v) = Server.Uncommitted);
  store.Store.unlock base;
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "commits once the contender unlocks" "x"
    (ok (Server.read_page srv cur (P.of_list [ 0 ])))

(* {2 A batch is one commit span} *)

(* Three members in one run: one [commit] span holds every member's
   test-and-sets and outcome, and one [Commit_batch] point reports it. *)
let test_batch_is_one_commit_span () =
  let trace = Trace.ring ~now:(fun () -> 0.0) () in
  let srv = Server.create ~seed:7 ~trace (Store.memory ()) in
  let f = Helpers.file_with_pages srv npages in
  let caps =
    List.map
      (fun i ->
        let v = ok (Server.create_version srv f) in
        ok (Server.write_page srv v (P.of_list [ i ]) (bytes "x"));
        v)
      [ 0; 1; 2 ]
  in
  let mark = Trace.events_emitted trace in
  List.iter (fun r -> ok r) (Server.commit_batch srv caps);
  let evs = Helpers.events_since trace mark in
  match Query.spans evs with
  | [ { Query.kind = "commit"; id; _ } ] ->
      let inside = function Trace.Point { span; _ } -> span = id | _ -> true in
      Alcotest.(check bool) "every point inside it" true (List.for_all inside evs);
      Alcotest.(check int) "three outcomes" 3 (Query.count evs "commit.outcome");
      Alcotest.(check int) "one Commit_batch point" 1 (Query.count evs "commit.batch")
  | spans ->
      Alcotest.failf "expected one commit span, got [%s]"
        (String.concat "; " (List.map (fun (s : Query.span) -> s.Query.kind) spans))

let () =
  Alcotest.run "group-commit"
    [
      ("equivalence", [ QCheck_alcotest.to_alcotest prop_batch_equals_sequential ]);
      ( "batch pipeline",
        [
          quick "disjoint members all win one batch" test_batch_disjoint_members;
          quick "conflicting member doomed alone" test_batch_conflicting_member_doomed_alone;
          quick "crash mid-publish is atomic per member" test_crash_mid_batch_atomic_per_member;
          quick "failed publish retried" test_failed_publish_retried;
          quick "retry after dropped shadows" test_retry_after_dropped_shadows;
          quick "retry after a merge keeps adopted" test_retry_after_merge_keeps_adopted;
          quick "a losing member answers its redo" test_batch_loser_redoes;
          quick "repeated doomed member" test_batch_repeated_doomed_member;
          quick "lost ack: abort keeps it" test_lost_ack_then_abort;
          quick "lost ack: retry keeps it" test_lost_ack_then_retry;
          quick "lost ack: no self-successor" test_lost_ack_no_cycle;
        ] );
      ( "store writes",
        [
          quick "doomed and aborted write nothing" test_doomed_and_aborted_write_nothing;
          quick "serialise conflict writes nothing" test_serialise_conflict_writes_nothing;
          quick "fast path: pages and one reference" test_fastpath_writes_pages_and_one_ref;
        ] );
      ( "one pipeline",
        [
          quick "only a published commit counts" test_only_published_commits_count;
          QCheck_alcotest.to_alcotest prop_single_paths_agree;
        ] );
      ("commit lock", [ quick "held lock fails at once" test_held_lock_fails_at_once ]);
      (* The widest group name here sets the column Alcotest truncates
         every test name to, so this one keeps the 15 characters of the
         widest name the suite has had. *)
      ("batched tracing", [ quick "a batch is one commit span" test_batch_is_one_commit_span ]);
    ]
