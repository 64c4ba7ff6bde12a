open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let commit_write srv f p s =
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path p) (bytes s));
  ok (Server.commit srv v)

let commit_insert srv f ~index s =
  let v = ok (Server.create_version srv f) in
  ignore (ok (Server.insert_page srv v ~parent:P.root ~index ~data:(bytes s) ()));
  ok (Server.commit srv v)

(* {2 Server-side validation} *)

let test_validation_null_op_when_current () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let basis = ok (Server.current_block_of_file srv f) in
  let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
  Alcotest.(check int) "walked nothing" 0 v.Cache.versions_walked;
  Alcotest.(check int) "examined nothing" 0 v.Cache.pages_examined;
  Alcotest.(check (list string)) "nothing invalid" []
    (List.map P.to_string v.Cache.invalid)

let test_validation_reports_written_paths () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let basis = ok (Server.current_block_of_file srv f) in
  commit_write srv f [ 2 ] "new p2";
  let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
  Alcotest.(check int) "one version walked" 1 v.Cache.versions_walked;
  Alcotest.(check (list string)) "page 2 invalid" [ "/2" ]
    (List.map P.to_string v.Cache.invalid)

let test_validation_accumulates_chain () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let basis = ok (Server.current_block_of_file srv f) in
  commit_write srv f [ 0 ] "a";
  commit_write srv f [ 1 ] "b";
  commit_write srv f [ 0 ] "c";
  let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
  Alcotest.(check int) "three versions walked" 3 v.Cache.versions_walked;
  Alcotest.(check (list string)) "both pages, deduplicated" [ "/0"; "/1" ]
    (List.map P.to_string v.Cache.invalid)

let test_validation_unknown_basis_discards_all () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let v = ok (Cache.server_validate srv ~file:f ~basis_block:424242) in
  Alcotest.(check (list string)) "everything invalid" [ "/" ]
    (List.map P.to_string v.Cache.invalid)

let test_validation_cost_proportional_to_changes () =
  (* §5.4: cost is proportional to what changed, not to file size. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 64 in
  let basis = ok (Server.current_block_of_file srv f) in
  commit_write srv f [ 5 ] "small change";
  let v = ok (Cache.server_validate srv ~file:f ~basis_block:basis) in
  Alcotest.(check bool)
    (Printf.sprintf "examined %d pages, far fewer than 64" v.Cache.pages_examined)
    true (v.Cache.pages_examined <= 4)

let test_validation_cost_independent_of_depth () =
  (* With the incremental administration, validating a fixed write set
     costs the same however deep the tree it lives in. *)
  let examined_at depth =
    let _, srv = Helpers.fresh_server () in
    let f = ok (Server.create_file srv ~data:(bytes "root") ()) in
    let v = ok (Server.create_version srv f) in
    let rec build parent level =
      for i = 0 to 2 do
        let child = ok (Server.insert_page srv v ~parent ~index:i ~data:(bytes "n") ()) in
        if level + 1 < depth then build child (level + 1)
      done
    in
    build P.root 0;
    ok (Server.commit srv v);
    let basis = ok (Server.current_block_of_file srv f) in
    let leaf = path (List.init depth (fun _ -> 1)) in
    let u = ok (Server.create_version srv f) in
    ok (Server.write_page srv u leaf (bytes "deep change"));
    ok (Server.commit srv u);
    (ok (Cache.server_validate srv ~file:f ~basis_block:basis)).Cache.pages_examined
  in
  let shallow = examined_at 2 and deep = examined_at 5 in
  Alcotest.(check int) "same cost at depth 5 as at depth 2" shallow deep;
  Alcotest.(check int) "exactly the one written page" 1 deep

(* {2 Client cache} *)

let test_client_cache_hit_after_fill () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let c = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "p0");
  Alcotest.(check (option string)) "hit" (Some "p0")
    (Option.map Helpers.str (Cache.get c ~file:f ~path:(path [ 0 ])));
  Alcotest.(check (option string)) "miss other path" None
    (Option.map Helpers.str (Cache.get c ~file:f ~path:(path [ 1 ])))

(* The cache keeps the bytes it is given and answers them, uncopied,
   under the store boundary's ownership rule. *)
let test_client_cache_shares_bytes () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 1 in
  let c = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  let data = Bytes.make 1024 'p' in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data;
  match Cache.get c ~file:f ~path:(path [ 0 ]) with
  | Some got -> Alcotest.(check bool) "get answers the bytes put" true (got == data)
  | None -> Alcotest.fail "miss after put"

let test_client_revalidate_keeps_valid_pages () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let c = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "p0");
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 1 ]) ~data:(bytes "p1");
  commit_write srv f [ 1 ] "p1 changed";
  let v = ok (Cache.revalidate c ~file:f) in
  Alcotest.(check (list string)) "page 1 discarded" [ "/1" ]
    (List.map P.to_string v.Cache.invalid);
  Alcotest.(check (option string)) "page 0 kept" (Some "p0")
    (Option.map Helpers.str (Cache.get c ~file:f ~path:(path [ 0 ])));
  Alcotest.(check (option string)) "page 1 gone" None
    (Option.map Helpers.str (Cache.get c ~file:f ~path:(path [ 1 ])));
  Alcotest.(check (option int)) "basis advanced"
    (Some (ok (Server.current_block_of_file srv f)))
    (Cache.basis c ~file:f)

let test_client_revalidate_structure_change_discards_subtree () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let c = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "p0");
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 1 ]) ~data:(bytes "p1");
  (* Root restructure: the root's M covers every cached page under it. *)
  commit_insert srv f ~index:0 "new page";
  let _ = ok (Cache.revalidate c ~file:f) in
  Alcotest.(check int) "all pages discarded" 0 (Cache.pages_cached c ~file:f)

let test_unshared_file_cache_never_invalidated () =
  (* The §5.4 claim: for unshared files the cache entry is always the most
     recent version and validation is a null operation, forever. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let c = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "p0");
  for _ = 1 to 10 do
    let v = ok (Cache.revalidate c ~file:f) in
    Alcotest.(check int) "null op" 0 v.Cache.versions_walked;
    Alcotest.(check int) "nothing examined" 0 v.Cache.pages_examined
  done;
  Alcotest.(check int) "page still cached" 1 (Cache.pages_cached c ~file:f)

let test_own_commit_advances_basis_cheaply () =
  (* A client that itself commits and re-puts pages keeps a warm cache. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let c = Cache.create srv in
  commit_write srv f [ 0 ] "mine";
  let v = ok (Cache.revalidate c ~file:f) in
  let basis = v.Cache.current_block in
  Cache.put c ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "mine");
  let v2 = ok (Cache.revalidate c ~file:f) in
  Alcotest.(check int) "still current" 0 v2.Cache.versions_walked;
  Alcotest.(check (option string)) "cache warm" (Some "mine")
    (Option.map Helpers.str (Cache.get c ~file:f ~path:(path [ 0 ])))

let test_no_unsolicited_invalidations_needed () =
  (* Two clients; one writes, the other's next validation round trip (an
     operation the READER initiates) catches up — nothing is pushed. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 2 in
  let reader_cache = Cache.create srv in
  let basis = ok (Server.current_block_of_file srv f) in
  Cache.put reader_cache ~file:f ~basis_block:basis ~path:(path [ 0 ]) ~data:(bytes "p0");
  commit_write srv f [ 0 ] "fresh";
  (* Reader still serves stale data locally until it validates — that is
     the contract: consistency on transaction boundaries. *)
  Alcotest.(check (option string)) "stale before validate" (Some "p0")
    (Option.map Helpers.str (Cache.get reader_cache ~file:f ~path:(path [ 0 ])));
  let _ = ok (Cache.revalidate reader_cache ~file:f) in
  Alcotest.(check (option string)) "discarded after validate" None
    (Option.map Helpers.str (Cache.get reader_cache ~file:f ~path:(path [ 0 ])))

let () =
  Alcotest.run "cache"
    [
      ( "server validation",
        [
          quick "null op when current" test_validation_null_op_when_current;
          quick "reports written paths" test_validation_reports_written_paths;
          quick "accumulates chain" test_validation_accumulates_chain;
          quick "unknown basis discards all" test_validation_unknown_basis_discards_all;
          quick "cost tracks changes" test_validation_cost_proportional_to_changes;
          quick "cost independent of depth" test_validation_cost_independent_of_depth;
        ] );
      ( "client cache",
        [
          quick "hit after fill" test_client_cache_hit_after_fill;
          quick "put and get share bytes" test_client_cache_shares_bytes;
          quick "revalidate keeps valid" test_client_revalidate_keeps_valid_pages;
          quick "structure change discards subtree"
            test_client_revalidate_structure_change_discards_subtree;
          quick "unshared file: eternal null op" test_unshared_file_cache_never_invalidated;
          quick "own commits keep cache warm" test_own_commit_advances_basis_cheaply;
          quick "no unsolicited messages" test_no_unsolicited_invalidations_needed;
        ] );
    ]
