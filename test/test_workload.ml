open Afs_workload
module Engine = Afs_sim.Engine
module Server = Afs_core.Server
module Store = Afs_core.Store
module Remote = Afs_rpc.Remote
module Xrng = Afs_util.Xrng

let quick = Helpers.quick
let ok = Helpers.ok

(* {2 Generators} *)

let test_generator_shapes_txns () =
  let shape = { Workload.small_updates with nfiles = 4; pages_per_file = 8 } in
  let gen = Workload.make shape in
  let rng = Xrng.create 1 in
  for _ = 1 to 100 do
    let spec = gen rng in
    Alcotest.(check bool) "file in range" true (spec.Sut.file >= 0 && spec.Sut.file < 4);
    Alcotest.(check int) "op count" (shape.Workload.read_pages + shape.Workload.rmw_pages)
      (List.length spec.Sut.ops);
    let pages =
      List.map
        (function Sut.Read p -> p | Sut.Write (p, _) -> p | Sut.Rmw (p, _) -> p)
        spec.Sut.ops
    in
    Alcotest.(check int) "pages distinct" (List.length pages)
      (List.length (List.sort_uniq compare pages));
    List.iter
      (fun p -> Alcotest.(check bool) "page in range" true (p >= 0 && p < 8))
      pages
  done

let test_generator_rejects_oversized_txn () =
  Alcotest.check_raises "too many pages"
    (Invalid_argument "Workload.make: transaction larger than a file") (fun () ->
      let _gen : Workload.generator =
        Workload.make
          { Workload.small_updates with pages_per_file = 2; read_pages = 2; rmw_pages = 1 }
      in
      ())

let test_setup_pages_layout () =
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 3; pages_per_file = 5 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "init")) in
  Alcotest.(check int) "three files" 3 (Array.length files);
  Array.iter
    (fun f ->
      let cur = ok (Server.current_version srv f) in
      let info = ok (Server.page_info srv cur Afs_util.Pagepath.root) in
      Alcotest.(check int) "five pages" 5 info.Server.nrefs;
      Helpers.check_bytes "initial content" "init"
        (ok (Server.read_page srv cur (Helpers.path [ 4 ]))))
    files

(* {2 SUT adapters execute transactions correctly} *)

(* One file of two pages holding "0", behind one simulated host. *)
let afs_remote_sut engine =
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  let host = Remote.host engine ~name:"afs" srv in
  (Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files, host)

let increment_page0 =
  let incr_op old = Helpers.bytes (string_of_int (int_of_string (Helpers.str old) + 1)) in
  { Sut.file = 0; ops = [ Sut.Rmw (0, incr_op) ]; parts = [] }

let in_process engine body =
  let result = ref None in
  let _ = Afs_sim.Proc.spawn engine (fun () -> result := Some (body ())) in
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "never ran"

let test_afs_remote_sut_rmw () =
  let engine = Engine.create () in
  let sut, _ = afs_remote_sut engine in
  in_process engine (fun () ->
      for _ = 1 to 10 do
        let r = sut.Sut.exec increment_page0 ~max_retries:4 in
        Alcotest.(check bool) "committed" true r.Sut.committed
      done);
  Helpers.check_bytes "ten increments" "10" (sut.Sut.read_page 0 0);
  Helpers.check_bytes "other page untouched" "0" (sut.Sut.read_page 0 1)

(* The host dies once the version is open and comes back 200 ms later:
   the in-flight read times out, which the shared loop treats as a
   transport outage — back off and redo — not as a protocol violation. *)
let test_afs_remote_rides_out_host_outage () =
  let engine = Engine.create () in
  let sut, host = afs_remote_sut engine in
  Engine.at engine 3.0 (fun () -> Remote.crash_host host);
  Engine.at engine 203.0 (fun () -> Remote.restart_host host);
  let r = in_process engine (fun () -> sut.Sut.exec increment_page0 ~max_retries:4) in
  Alcotest.(check bool) "committed" true r.Sut.committed;
  Alcotest.(check bool) (Printf.sprintf "%d attempts > 1" r.Sut.attempts) true (r.Sut.attempts > 1);
  Alcotest.(check int) "a back-off is not an abort" 0 r.Sut.local_aborts;
  Helpers.check_bytes "one increment" "1" (sut.Sut.read_page 0 0)

(* The last allowed attempt asks for no redo: with [max_retries = 1], a
   client whose only attempt loses validation gives up without leaving
   a version open on the server. *)
let test_afs_remote_give_up_leaves_nothing_open () =
  let engine = Engine.create () in
  let sut, host = afs_remote_sut engine in
  let srv = Remote.host_server host in
  let results = ref [] in
  for _ = 1 to 2 do
    ignore
      (Afs_sim.Proc.spawn engine (fun () ->
           let r = sut.Sut.exec increment_page0 ~max_retries:1 in
           results := r :: !results))
  done;
  Engine.run engine;
  let outcomes = List.map (fun r -> (r.Sut.committed, r.Sut.attempts)) !results in
  Alcotest.(check (list (pair bool int))) "one commits, one gives up after one attempt"
    [ (false, 1); (true, 1) ]
    (List.sort compare outcomes);
  Alcotest.(check int) "no redo served" 0 (Remote.redos_served host);
  List.iter
    (fun file ->
      Alcotest.(check (list int))
        "no version left open" [] (ok (Server.uncommitted_versions srv file)))
    (Server.list_files srv);
  Helpers.check_bytes "one increment" "1" (sut.Sut.read_page 0 0)

let test_twopl_sut_exec () =
  let engine = Engine.create () in
  let backend = Afs_baseline.Twopl.create ~clock:(fun () -> Engine.now engine) () in
  let sut = Sut.twopl ~remote:engine backend ~pages_per_file:4 ~retry_wait_ms:1.0 in
  let result = ref None in
  let _ =
    Afs_sim.Proc.spawn engine (fun () ->
        result :=
          Some
            (sut.Sut.exec
               { Sut.file = 0; ops = [ Sut.Write (1, Helpers.bytes "locked in") ]; parts = [] }
               ~max_retries:4))
  in
  Engine.run engine;
  (match !result with
  | Some r -> Alcotest.(check bool) "committed" true r.Sut.committed
  | None -> Alcotest.fail "never ran");
  Helpers.check_bytes "value stored" "locked in" (sut.Sut.read_page 0 1)

let test_tsorder_sut_exec () =
  let engine = Engine.create () in
  let backend = Afs_baseline.Tsorder.create () in
  let sut = Sut.tsorder ~remote:engine backend ~pages_per_file:4 in
  let result = ref None in
  let _ =
    Afs_sim.Proc.spawn engine (fun () ->
        result :=
          Some
            (sut.Sut.exec
               { Sut.file = 2; ops = [ Sut.Write (3, Helpers.bytes "stamped") ]; parts = [] }
               ~max_retries:4))
  in
  Engine.run engine;
  (match !result with
  | Some r -> Alcotest.(check bool) "committed" true r.Sut.committed
  | None -> Alcotest.fail "never ran");
  Helpers.check_bytes "value stored" "stamped" (sut.Sut.read_page 2 3)

(* {2 The two-batch attempt is the ops run one by one}

   One client's transaction through [Sut.afs_remote] — an [Open] batch
   of reads, then the computed writes and [Commit] in a [Version] batch —
   must leave exactly what the same ops leave as per-call [Server] reads
   and writes plus a commit on a twin server: the committed flag, the
   pages and the store image. Access implies copy (§5.1), so a block's
   number records when its page was first touched; the per-call run
   therefore opens its version as the [Open] batch does — the root, then
   every page the ops read, in op order — before running the ops one by
   one. Those reads add no flag the ops' own reads do not. *)

type gen_op = G_read of int | G_write of int * string | G_rmw of int * string

let print_gen_op = function
  | G_read i -> Printf.sprintf "Read %d" i
  | G_write (i, d) -> Printf.sprintf "Write (%d, %S)" i d
  | G_rmw (i, tag) -> Printf.sprintf "Rmw (%d, ^%S)" i tag

let gen_ops =
  QCheck2.Gen.(
    let page = int_bound 2 and word = oneofl [ "a"; "bb"; "ccc" ] in
    list_size (int_range 1 6)
      (frequency
         [
           (2, map (fun i -> G_read i) page);
           (2, map2 (fun i d -> G_write (i, d)) page word);
           (3, map2 (fun i tag -> G_rmw (i, tag)) page word);
         ]))

let append tag old = Bytes.cat old (Helpers.bytes tag)

let sut_op = function
  | G_read i -> Sut.Read i
  | G_write (i, d) -> Sut.Write (i, Helpers.bytes d)
  | G_rmw (i, tag) -> Sut.Rmw (i, append tag)

let twin () =
  let store = Store.memory () in
  let srv = Server.create ~seed:11 store in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 3 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  (store, srv, files.(0))

let store_image (store : Store.t) =
  List.map (fun b -> (b, store.Store.read b)) (Helpers.ok_str (store.Store.list_blocks ()))

let outcome store srv file committed =
  let cur = ok (Server.current_version srv file) in
  let page i = Helpers.str (ok (Server.read_page srv cur (Helpers.path [ i ]))) in
  (committed, List.map page [ 0; 1; 2 ], store_image store)

let two_batches_equal_one_by_one ops =
  let batched =
    let engine = Engine.create () in
    let store, srv, file = twin () in
    let sut =
      Sut.afs_remote (Remote.connect [ Remote.host engine ~name:"afs" srv ]) ~fallback:srv
        ~files:[| file |]
    in
    let spec = { Sut.file = 0; ops = List.map sut_op ops; parts = [] } in
    let r = in_process engine (fun () -> sut.Sut.exec spec ~max_retries:1) in
    outcome store srv file r.Sut.committed
  in
  let one_by_one =
    let store, srv, file = twin () in
    let v = ok (Server.create_version srv file) in
    ignore (ok (Server.read_page srv v Afs_util.Pagepath.root));
    List.iter
      (function
        | G_read i | G_rmw (i, _) -> ignore (ok (Server.read_page srv v (Helpers.path [ i ])))
        | G_write _ -> ())
      ops;
    List.iter
      (fun op ->
        match op with
        | G_read i -> ignore (ok (Server.read_page srv v (Helpers.path [ i ])))
        | G_write (i, d) -> ok (Server.write_page srv v (Helpers.path [ i ]) (Helpers.bytes d))
        | G_rmw (i, tag) ->
            let old = ok (Server.read_page srv v (Helpers.path [ i ])) in
            ok (Server.write_page srv v (Helpers.path [ i ]) (append tag old)))
      ops;
    outcome store srv file (Result.is_ok (Server.commit srv v))
  in
  batched = one_by_one

let prop_two_batches_equal_one_by_one =
  QCheck2.Test.make ~name:"two batches = the ops one by one" ~count:300
    ~print:(fun ops -> "[" ^ String.concat "; " (List.map print_gen_op ops) ^ "]")
    gen_ops two_batches_equal_one_by_one

(* [Remote.connect ~balance] rotates hosts only at version boundaries: a
   version's batches must reach the server that manages it, even when
   many clients share one balanced connection — C1's two-server SUT. A
   [?wrap] on each host records which host answered each [Open] batch
   and where each [Version] batch landed. *)
let test_version_batches_stay_on_host () =
  let engine = Engine.create () in
  let store = Store.memory () in
  let ports = Afs_core.Ports.create () in
  let srv1 = Server.create ~seed:7 ~ports store in
  let srv2 = Server.create ~seed:7 ~ports store in
  let shape = { Workload.small_updates with nfiles = 4; pages_per_file = 4 } in
  let files = ok (Workload.setup_pages srv1 shape ~initial:(Helpers.bytes "0")) in
  let opened_on = Hashtbl.create 64 and landed = ref [] in
  let wrap name base req =
    let resp = base req in
    (match (req, resp) with
    | Remote.Batch { target = Remote.Open _; _ }, Ok (Remote.Batched (Remote.Ran { version; _ }))
      ->
        Hashtbl.replace opened_on version name
    | Remote.Batch { target = Remote.Version version; _ }, _ ->
        landed := (version, name) :: !landed
    | _ -> ());
    resp
  in
  let host name srv = Remote.host ~wrap:(wrap name) engine ~name srv in
  let conn = Remote.connect ~balance:true [ host "afs-1" srv1; host "afs-2" srv2 ] in
  let sut = Sut.afs_remote ~name:"afs-2srv" conn ~fallback:srv1 ~files in
  let config =
    { Driver.default_config with clients = 6; duration_ms = 1_000.0; think_ms = 2.0 }
  in
  let report = Driver.run engine config sut ~gen:(Workload.make shape) in
  Alcotest.(check bool) "work done" true (report.Driver.committed > 20);
  Alcotest.(check bool) "version batches seen" true (List.length !landed > 20);
  let hosts = Hashtbl.fold (fun _ name acc -> name :: acc) opened_on [] in
  Alcotest.(check bool) "both hosts opened versions" true
    (List.mem "afs-1" hosts && List.mem "afs-2" hosts);
  List.iter
    (fun (version, name) ->
      Alcotest.(check (option string))
        "a Version batch lands where its Open batch ran"
        (Hashtbl.find_opt opened_on version)
        (Some name))
    !landed

(* {2 Redos under a race: no lost update, one message each}

   K clients race [Rmw] appends on a few shared pages of one file
   through [Sut.afs_remote]. Each append adds the transaction's tag to
   what it read, so a page is the log of the commits that landed on it.
   No commit may be lost or doubled; the host must have served two
   messages per transaction plus one per redo, every retry being a redo;
   and each committed write must extend exactly what the transaction's
   last attempt read. *)
let race_keeps_every_update (clients, pages, txns, seed) =
  let engine = Engine.create () in
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = pages } in
  let files = ok (Workload.setup_pages srv shape ~initial:Bytes.empty) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let rng = Xrng.create seed in
  let last_read = Hashtbl.create 64 and attempts = ref 0 and committed = ref [] in
  for c = 1 to clients do
    let plan =
      List.init txns (fun i ->
          let first = Xrng.int rng pages in
          let touched =
            if pages > 1 && Xrng.bool rng then [ first; (first + 1) mod pages ] else [ first ]
          in
          (Printf.sprintf "%d.%d;" c i, touched, float_of_int (Xrng.int rng 4)))
    in
    ignore
      (Afs_sim.Proc.spawn engine (fun () ->
           List.iter
             (fun (tag, touched, think) ->
               Afs_sim.Proc.delay think;
               let append page old =
                 Hashtbl.replace last_read (tag, page) (Helpers.str old);
                 Bytes.cat old (Helpers.bytes tag)
               in
               let ops = List.map (fun page -> Sut.Rmw (page, append page)) touched in
               let r = sut.Sut.exec { Sut.file = 0; ops; parts = [] } ~max_retries:1000 in
               attempts := !attempts + r.Sut.attempts;
               if r.Sut.committed then committed := (tag, touched) :: !committed)
             plan))
  done;
  Engine.run engine;
  let total = clients * txns in
  let log page = String.split_on_char ';' (Helpers.str (sut.Sut.read_page 0 page)) in
  let landed page =
    List.filter_map (fun t -> if t = "" then None else Some (t ^ ";")) (log page)
  in
  let expected page =
    List.filter_map (fun (tag, touched) -> if List.mem page touched then Some tag else None)
      !committed
  in
  let extends_last_read page =
    let rec go prefix = function
      | [] -> true
      | tag :: rest ->
          Hashtbl.find_opt last_read (tag, page) = Some prefix && go (prefix ^ tag) rest
    in
    go "" (landed page)
  in
  List.length !committed = total
  && List.for_all
       (fun page ->
         List.sort compare (landed page) = List.sort compare (expected page)
         && extends_last_read page)
       (List.init pages Fun.id)
  && Remote.requests_served host = !attempts + total
  && Remote.redos_served host = !attempts - total

let prop_race_keeps_every_update =
  QCheck2.Test.make ~name:"racing redos lose nothing" ~count:60
    ~print:(fun (c, p, t, s) -> Printf.sprintf "clients %d, pages %d, txns %d, seed %d" c p t s)
    QCheck2.Gen.(quad (int_range 2 6) (int_range 1 3) (int_range 1 4) (int_bound 1000))
    race_keeps_every_update

(* The race above, pinned: it does redo, and redoes stay single messages. *)
let test_race_redoes () =
  let engine = Engine.create () in
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let attempts = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Afs_sim.Proc.spawn engine (fun () ->
           for _ = 1 to 5 do
             let r = sut.Sut.exec increment_page0 ~max_retries:1000 in
             attempts := !attempts + r.Sut.attempts
           done))
  done;
  Engine.run engine;
  Helpers.check_bytes "thirty increments" "30" (sut.Sut.read_page 0 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d redos > 0" (Remote.redos_served host))
    true
    (Remote.redos_served host > 0);
  Alcotest.(check int) "two messages a transaction, one a redo" (!attempts + 30)
    (Remote.requests_served host)

(* {2 The driver under contention: serialisability invariants} *)

(* Fifteen simulated seconds: the baselines run every operation as a
   request, so their transactions interleave, and timestamp ordering
   commits a few transfers a second under this contention. *)
let bank_invariant_holds sut_of_engine name =
  let params = { Bank.default with branches = 2; accounts = 8 } in
  let engine = Engine.create () in
  let sut = sut_of_engine engine params in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 15_000.0; think_ms = 5.0 }
  in
  let report = Driver.run engine config sut ~gen:(Bank.generator params) in
  Alcotest.(check bool) (name ^ ": work done") true (report.Driver.committed > 50);
  Alcotest.(check int)
    (name ^ ": money conserved")
    (Bank.expected_total params)
    (Bank.total_money sut params)

let test_bank_invariant_afs () =
  bank_invariant_holds
    (fun engine params ->
      let store = Store.memory () in
      let srv = Server.create store in
      let shape =
        { Workload.small_updates with nfiles = params.Bank.branches;
          pages_per_file = params.Bank.accounts }
      in
      let files = ok (Workload.setup_pages srv shape ~initial:(Bank.initial_page params)) in
      let host = Remote.host engine ~name:"afs" srv in
      Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files)
    "afs-occ"

let test_bank_invariant_twopl () =
  bank_invariant_holds
    (fun engine params ->
      let backend = Afs_baseline.Twopl.create ~clock:(fun () -> Engine.now engine) () in
      let sut =
        Sut.twopl ~remote:engine backend ~pages_per_file:params.Bank.accounts ~retry_wait_ms:2.0
      in
      (* Pre-load balances. *)
      for b = 0 to params.Bank.branches - 1 do
        for a = 0 to params.Bank.accounts - 1 do
          let txn = Afs_baseline.Twopl.begin_ backend in
          (match
             Afs_baseline.Twopl.write backend txn ~obj:((b * 65536) + a)
               (Bank.initial_page params)
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload denied");
          match Afs_baseline.Twopl.commit backend txn with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload commit denied"
        done
      done;
      sut)
    "xdfs-2pl"

let test_bank_invariant_tsorder () =
  bank_invariant_holds
    (fun engine params ->
      let backend = Afs_baseline.Tsorder.create () in
      let sut = Sut.tsorder ~remote:engine backend ~pages_per_file:params.Bank.accounts in
      for b = 0 to params.Bank.branches - 1 do
        for a = 0 to params.Bank.accounts - 1 do
          let txn = Afs_baseline.Tsorder.begin_ backend in
          (match
             Afs_baseline.Tsorder.write backend txn ~obj:((b * 65536) + a)
               (Bank.initial_page params)
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload late");
          match Afs_baseline.Tsorder.commit backend txn with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload commit late"
        done
      done;
      sut)
    "swallow-ts"

let test_bank_invariant_two_balanced_servers () =
  (* The §5.2 configuration: two servers over one store, transactions
     rotated across them. Money conservation proves the cross-server
     commit protocol (store-level test-and-set + cache refresh) is safe. *)
  bank_invariant_holds
    (fun engine params ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let shape =
        { Workload.small_updates with nfiles = params.Bank.branches;
          pages_per_file = params.Bank.accounts }
      in
      let files = ok (Workload.setup_pages srv1 shape ~initial:(Bank.initial_page params)) in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect ~balance:true [ host1; host2 ] in
      Sut.afs_remote ~name:"afs-2srv" conn ~fallback:srv1 ~files)
    "afs-2srv"

let test_airline_seats_conserved () =
  let params =
    { Airline.default with flights = 4; classes = 2; seats_per_class = 10_000 }
  in
  let engine = Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let shape =
    { Workload.small_updates with nfiles = params.Airline.flights;
      pages_per_file = params.Airline.classes }
  in
  let files = ok (Workload.setup_pages srv shape ~initial:(Airline.initial_page params)) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let config =
    { Driver.default_config with clients = 6; duration_ms = 2_000.0; think_ms = 5.0 }
  in
  let report = Driver.run engine config sut ~gen:(Airline.generator params) in
  let initial_total =
    params.Airline.flights * params.Airline.classes * params.Airline.seats_per_class
  in
  let remaining = Airline.total_seats sut params in
  let booked = initial_total - remaining in
  Alcotest.(check bool) "some bookings" true (booked > 0);
  (* Every committed booking removed exactly one seat: bookings committed
     cannot exceed total commits, and no seats can be lost otherwise. *)
  Alcotest.(check bool)
    (Printf.sprintf "booked %d <= committed %d" booked report.Driver.committed)
    true
    (booked <= report.Driver.committed)

(* Starvation: half the transactions are large updates (6 reads and 6
   read-modify-writes on 24-page files, c1's large shape scaled down);
   the rest are one-page updates on the same Zipf-hot pages. Sixteen
   clients over one host, 16 attempts each. A large update's redo must
   not keep losing to the small ones' commits. *)
let test_large_updates_never_give_up () =
  let large =
    { Workload.small_updates with nfiles = 2; pages_per_file = 24; read_pages = 6;
      rmw_pages = 6; file_theta = 0.9; page_theta = 0.4 }
  in
  let small = { large with read_pages = 0; rmw_pages = 1; page_theta = 0.9 } in
  let engine = Engine.create () in
  let srv = Server.create (Store.memory ()) in
  let files = ok (Workload.setup_pages srv large ~initial:(Helpers.bytes "00000000")) in
  let host = Remote.host ~latency_ms:2.0 engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let large_txn = Workload.make large and small_txn = Workload.make small in
  let gen rng = if Xrng.bool rng then large_txn rng else small_txn rng in
  let config =
    { Driver.default_config with clients = 16; duration_ms = 2_000.0; think_ms = 20.0 }
  in
  let report = Driver.run engine config sut ~gen in
  Alcotest.(check bool) "committed > 0" true (report.Driver.committed > 0);
  Alcotest.(check int) "given up" 0 report.Driver.given_up

let test_driver_reports_sane_numbers () =
  let shape = { Workload.small_updates with nfiles = 8; pages_per_file = 4 } in
  let engine = Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "x")) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let config =
    { Driver.default_config with clients = 4; duration_ms = 1_000.0; think_ms = 10.0 }
  in
  let report = Driver.run engine config sut ~gen:(Workload.make shape) in
  Alcotest.(check bool) "committed > 0" true (report.Driver.committed > 0);
  Alcotest.(check bool) "attempts >= committed" true
    (report.Driver.attempts >= report.Driver.committed);
  Alcotest.(check bool) "throughput positive" true (report.Driver.throughput_per_s > 0.0);
  Alcotest.(check bool) "latency positive" true (report.Driver.mean_latency_ms > 0.0);
  Alcotest.(check bool) "p50 <= p99" true (report.Driver.p50_ms <= report.Driver.p99_ms);
  Alcotest.(check bool) "elapsed covers duration" true (report.Driver.elapsed_ms >= 1_000.0)

let test_driver_deterministic () =
  let run_once () =
    let shape = { Workload.small_updates with nfiles = 4 } in
    let engine = Engine.create () in
    let store = Store.memory () in
    let srv = Server.create store in
    let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "x")) in
    let host = Remote.host engine ~name:"afs" srv in
    let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
    let config =
      { Driver.default_config with clients = 3; duration_ms = 500.0; seed = 7 }
    in
    let r = Driver.run engine config sut ~gen:(Workload.make shape) in
    (r.Driver.committed, r.Driver.attempts)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair int int)) "identical runs" a b

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          quick "txn shapes" test_generator_shapes_txns;
          quick "oversized rejected" test_generator_rejects_oversized_txn;
          quick "setup layout" test_setup_pages_layout;
        ] );
      ( "suts",
        [
          quick "afs remote rmw" test_afs_remote_sut_rmw;
          quick "afs remote rides out a host outage" test_afs_remote_rides_out_host_outage;
          quick "giving up leaves nothing open" test_afs_remote_give_up_leaves_nothing_open;
          quick "twopl exec" test_twopl_sut_exec;
          quick "tsorder exec" test_tsorder_sut_exec;
          QCheck_alcotest.to_alcotest prop_two_batches_equal_one_by_one;
          quick "version batches stay on their host" test_version_batches_stay_on_host;
        ] );
      ( "invariants",
        [
          quick "bank money conserved (afs)" test_bank_invariant_afs;
          quick "bank money conserved (2 balanced servers)"
            test_bank_invariant_two_balanced_servers;
          quick "bank money conserved (2pl)" test_bank_invariant_twopl;
          quick "bank money conserved (ts)" test_bank_invariant_tsorder;
          quick "airline seats conserved" test_airline_seats_conserved;
          QCheck_alcotest.to_alcotest prop_race_keeps_every_update;
          quick "racing clients redo" test_race_redoes;
          quick "large updates never give up" test_large_updates_never_give_up;
        ] );
      ( "driver",
        [
          quick "sane numbers" test_driver_reports_sane_numbers;
          quick "deterministic" test_driver_deterministic;
        ] );
    ]
