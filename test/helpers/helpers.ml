(** Shared plumbing for the alcotest suites. *)

module Errors = Afs_core.Errors

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)

let ok_str = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let expect_error what = function
  | Ok _ -> Alcotest.failf "expected %s error, got Ok" what
  | Error (_ : Errors.t) -> ()

let expect_conflict = function
  | Error Errors.Conflict -> ()
  | Ok _ -> Alcotest.fail "expected Conflict, got Ok"
  | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e)

let bytes = Bytes.of_string
let str = Bytes.to_string

let check_bytes msg expected actual = Alcotest.(check string) msg expected (str actual)

let quick name f = Alcotest.test_case name `Quick f

(** Minor-heap words [f ()] allocates, net of what measuring an empty
    call costs. *)
let minor_words_of f =
  let measure g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let overhead = measure ignore in
  measure f -. overhead

(** Fresh in-memory server. [capacity] bounds its page cache. *)
let fresh_server ?(seed = 7) ?capacity ?trace () =
  let store = Afs_core.Store.memory () in
  (store, Afs_core.Server.create ~seed ?cache_capacity:capacity ?trace store)

(** The events a ring [trace] holds that came after [mark], a reading of
    {!Afs_trace.Trace.events_emitted}. *)
let events_since trace mark =
  List.filter (fun e -> Afs_trace.Trace.event_seq e >= mark) (Afs_trace.Trace.events trace)

(** A memory store that, once [armed], loses the acknowledgement of its
    next write batch: every write lands, the caller hears a failure — the
    whole-batch case of a publish failing after a durable prefix. *)
let lossy_store armed =
  let inner = Afs_core.Store.memory () in
  let write_batch entries =
    match inner.Afs_core.Store.write_batch entries with
    | Ok () when !armed ->
        armed := false;
        Error "injected: acknowledgement lost"
    | r -> r
  in
  { inner with Afs_core.Store.write_batch }

(** A file with [n] pages "p0".."p(n-1)" under the root. *)
let file_with_pages server n =
  let open Afs_core in
  let cap = ok (Server.create_file server ~data:(bytes "root") ()) in
  let v = ok (Server.create_version server cap) in
  for i = 0 to n - 1 do
    ignore
      (ok
         (Server.insert_page server v ~parent:Afs_util.Pagepath.root ~index:i
            ~data:(bytes (Printf.sprintf "p%d" i)) ()))
  done;
  ok (Server.commit server v);
  cap

let path l = Afs_util.Pagepath.of_list l

(** The prefix every {!Afs_cluster.Marker} encoding starts with, as the
    format fixes it: lets a test write magic-prefixed root data by hand. *)
let marker_magic = "\xafAFS"

(** A stored image's written bytes, however it is held. *)
let bytes_of (i : Afs_util.Image.t) = Afs_util.Image.to_bytes i

(** A whole image of [s], as a store keeps a write. *)
let image s = Afs_util.Image.of_bytes (bytes s)
