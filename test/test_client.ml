open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

(* A client counts into its server's table. *)
let counter cl name = Afs_util.Stats.Counter.get (Server.counters (Client.server cl)) name

let setup () =
  let _, srv = Helpers.fresh_server () in
  let cl = Client.connect srv in
  let f = Helpers.file_with_pages srv 4 in
  (srv, cl, f)

let test_update_commits () =
  let srv, cl, f = setup () in
  ok
    (Client.update cl f (fun txn ->
         Client.Txn.write txn (path [ 0 ]) (bytes "updated")));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "landed" "updated" (ok (Server.read_page srv cur (path [ 0 ])));
  Alcotest.(check int) "one attempt" 1 (counter cl "client.attempts");
  Alcotest.(check int) "committed" 1 (counter cl "client.committed")

(* Two clients of one server add into the server's table, under
   [client.*] names. *)
let test_clients_count_into_server () =
  let srv, cl, f = setup () in
  let other = Client.connect srv in
  let get = Afs_util.Stats.Counter.get (Server.counters srv) in
  let commits = get "commits.ok" in
  ok (Client.update cl f (fun txn -> Client.Txn.write txn (path [ 0 ]) (bytes "a")));
  ok (Client.update other f (fun txn -> Client.Txn.write txn (path [ 1 ]) (bytes "b")));
  Alcotest.(check int) "attempts" 2 (get "client.attempts");
  Alcotest.(check int) "committed" 2 (get "client.committed");
  Alcotest.(check int) "beside the server's own" (commits + 2) (get "commits.ok")

let test_update_returns_value () =
  let _, cl, f = setup () in
  let n =
    ok
      (Client.update cl f (fun txn ->
           let open Errors in
           let* data = Client.Txn.read txn (path [ 1 ]) in
           Ok (Bytes.length data)))
  in
  Alcotest.(check int) "value through" 2 n

let test_update_redoes_on_conflict () =
  let srv, cl, f = setup () in
  let interfered = ref false in
  ok
    (Client.update cl f (fun txn ->
         let open Errors in
         let* balance = Client.Txn.read txn (path [ 0 ]) in
         (* First attempt: an interfering writer sneaks in after our read
            and commits first. *)
         if not !interfered then begin
           interfered := true;
           let v = ok (Server.create_version srv f) in
           ok (Server.write_page srv v (path [ 0 ]) (bytes "interference"));
           ok (Server.commit srv v)
         end;
         Client.Txn.write txn (path [ 0 ]) (Bytes.cat balance (bytes "+suffix"))));
  Alcotest.(check int) "two attempts" 2 (counter cl "client.attempts");
  Alcotest.(check int) "one redo" 1 (counter cl "client.redone");
  let cur = ok (Server.current_version srv f) in
  (* The redo re-read the interfering value, so the suffix applies to it. *)
  Helpers.check_bytes "redo saw fresh value" "interference+suffix"
    (ok (Server.read_page srv cur (path [ 0 ])))

let test_update_gives_up_after_retries () =
  let srv, cl, f = setup () in
  let result =
    Client.update ~retries:3 cl f (fun txn ->
        let open Errors in
        let* _ = Client.Txn.read txn (path [ 0 ]) in
        (* Every attempt gets beaten by a fresh interfering commit. *)
        let v = ok (Server.create_version srv f) in
        ok (Server.write_page srv v (path [ 0 ]) (bytes "always first"));
        ok (Server.commit srv v);
        Client.Txn.write txn (path [ 0 ]) (bytes "never lands"))
  in
  (match result with
  | Error Errors.Conflict -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok () -> Alcotest.fail "should have given up");
  Alcotest.(check int) "three attempts" 3 (counter cl "client.attempts")

let test_body_error_aborts_version () =
  let srv, cl, f = setup () in
  let result =
    Client.update cl f (fun txn ->
        let open Errors in
        let* () = Client.Txn.write txn (path [ 0 ]) (bytes "poisoned") in
        Error (Errors.Store_failure "application decided to bail"))
  in
  (match result with Error (Errors.Store_failure _) -> () | _ -> Alcotest.fail "error lost");
  Alcotest.(check (list int)) "no uncommitted versions left" []
    (ok (Server.uncommitted_versions srv f));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "no partial effect" "p0" (ok (Server.read_page srv cur (path [ 0 ])))

let test_give_up_exception () =
  let _, cl, f = setup () in
  let result =
    Client.update cl f (fun _txn -> raise (Client.Give_up (Errors.Store_failure "manual")))
  in
  match result with
  | Error (Errors.Store_failure "manual") -> ()
  | _ -> Alcotest.fail "Give_up not propagated"

let test_txn_structure_ops () =
  let srv, cl, f = setup () in
  ok
    (Client.update cl f (fun txn ->
         let open Errors in
         let* p = Client.Txn.insert txn ~parent:P.root ~index:4 ~data:(bytes "appended") () in
         Alcotest.(check string) "path" "/4" (P.to_string p);
         Client.Txn.remove txn ~parent:P.root ~index:0));
  let cur = ok (Server.current_version srv f) in
  (* p0 removed, so the appended page slid to index 3. *)
  Helpers.check_bytes "appended present" "appended" (ok (Server.read_page srv cur (path [ 3 ])))

let test_read_current () =
  let _, cl, f = setup () in
  Helpers.check_bytes "read" "p2" (ok (Client.read_current cl f (path [ 2 ])))

let test_read_cached_hits () =
  let _, cl, f = setup () in
  let first = ok (Client.read_cached cl f (path [ 1 ])) in
  let second = ok (Client.read_cached cl f (path [ 1 ])) in
  Helpers.check_bytes "first" "p1" first;
  Helpers.check_bytes "second" "p1" second;
  Alcotest.(check int) "one miss" 1 (counter cl "client.cache_misses");
  Alcotest.(check int) "one hit" 1 (counter cl "client.cache_hits")

let test_read_cached_sees_fresh_commits () =
  let _, cl, f = setup () in
  let _ = ok (Client.read_cached cl f (path [ 1 ])) in
  ok (Client.update cl f (fun txn -> Client.Txn.write txn (path [ 1 ]) (bytes "renewed")));
  Helpers.check_bytes "fresh after validation" "renewed"
    (ok (Client.read_cached cl f (path [ 1 ])))

let test_client_without_cache () =
  let _, srv = Helpers.fresh_server () in
  let cl = Client.connect ~use_cache:false srv in
  let f = Helpers.file_with_pages srv 2 in
  Helpers.check_bytes "direct read" "p0" (ok (Client.read_cached cl f (path [ 0 ])));
  Alcotest.(check int) "no cache traffic" 0 (counter cl "client.cache_hits")

let test_write_whole_file_fast_path () =
  let srv, cl, _ = setup () in
  let f = ok (Client.create_file cl ~data:(bytes "small v1") ()) in
  ok (Client.write_whole_file cl f (bytes "small v2"));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "whole-file write" "small v2" (ok (Server.read_page srv cur P.root));
  Alcotest.(check int) "two versions in chain" 2
    (List.length (ok (Server.committed_chain srv f)))

let test_concurrent_counter_increments_all_survive () =
  (* Interleaved read-increment-write updates through the redo loop: a
     lost update would show as a too-small final count. *)
  let srv, cl, _ = setup () in
  let f = ok (Client.create_file cl ~data:(bytes "0") ()) in
  ignore srv;
  let increment () =
    ok
      (Client.update cl f (fun txn ->
           let open Errors in
           let* v = Client.Txn.read txn P.root in
           let n = int_of_string (Helpers.str v) in
           Client.Txn.write txn P.root (bytes (string_of_int (n + 1)))))
  in
  for _ = 1 to 25 do
    increment ()
  done;
  Helpers.check_bytes "all increments kept" "25" (ok (Client.read_current cl f P.root))

let test_large_update_sets_hint () =
  let srv, cl, f = setup () in
  let observed = ref None in
  ok
    (Client.update ~large:true cl f (fun txn ->
         (* While the large update runs, a cooperating (hint-respecting)
            client is warded off... *)
         (match Server.create_version ~respect_hints:true srv f with
         | Error (Errors.Locked_out { port }) -> observed := Some port
         | Ok v -> ignore (Server.abort_version srv v)
         | Error _ -> ());
         Client.Txn.write txn (path [ 0 ]) (bytes "large")));
  (match !observed with
  | Some port -> Alcotest.(check bool) "hint port live during update" true (port > 0)
  | None -> Alcotest.fail "hint was not set");
  (* ...and after it finishes, the hint port is dead, so nobody blocks. *)
  match Server.create_version ~respect_hints:true srv f with
  | Ok v -> ok (Server.abort_version srv v)
  | Error e -> Alcotest.failf "stale hint still blocks: %s" (Errors.to_string e)

let test_large_update_released_on_failure () =
  let srv, cl, f = setup () in
  let result =
    Client.update ~large:true cl f (fun _txn -> Error (Errors.Store_failure "bail out"))
  in
  (match result with Error (Errors.Store_failure _) -> () | _ -> Alcotest.fail "error lost");
  match Server.create_version ~respect_hints:true srv f with
  | Ok v -> ok (Server.abort_version srv v)
  | Error e -> Alcotest.failf "hint leaked after failure: %s" (Errors.to_string e)

let () =
  Alcotest.run "client"
    [
      ( "updates",
        [
          quick "commit" test_update_commits;
          quick "returns value" test_update_returns_value;
          quick "counts land in the server" test_clients_count_into_server;
          quick "redo on conflict" test_update_redoes_on_conflict;
          quick "gives up after retries" test_update_gives_up_after_retries;
          quick "body error aborts" test_body_error_aborts_version;
          quick "Give_up exception" test_give_up_exception;
          quick "structure ops" test_txn_structure_ops;
          quick "counter increments survive" test_concurrent_counter_increments_all_survive;
        ] );
      ( "reads",
        [
          quick "read current" test_read_current;
          quick "cached reads hit" test_read_cached_hits;
          quick "cache sees fresh commits" test_read_cached_sees_fresh_commits;
          quick "no-cache client" test_client_without_cache;
        ] );
      ( "fast path",
        [ quick "one-page whole-file write" test_write_whole_file_fast_path ] );
      ( "soft locks",
        [
          quick "large update sets hint" test_large_update_sets_hint;
          quick "hint released on failure" test_large_update_released_on_failure;
        ] );
    ]
