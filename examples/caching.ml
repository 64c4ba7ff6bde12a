(* Client page caches without unsolicited messages (§5.4).

   Run with:  dune exec examples/caching.exe

   A client keeps pages of the most recent version it has seen; before
   using them it asks the server which are stale — one request, cost
   proportional to what actually changed. For a file nobody else touches,
   validation is a null operation forever. Nothing is ever pushed from
   server to client. *)

open Afs_core
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Errors.to_string e)
let bytes = Bytes.of_string

let () =
  let store = Store.memory () in
  let srv = Server.create store in

  (* A 32-page file. *)
  let file = ok (Server.create_file srv ()) in
  let v = ok (Server.create_version srv file) in
  for i = 0 to 31 do
    ignore
      (ok
         (Server.insert_page srv v ~parent:P.root ~index:i
            ~data:(bytes (Printf.sprintf "page-%02d" i)) ()))
  done;
  ok (Server.commit srv v);

  let reader = Client.connect srv in
  let writer = Client.connect srv in

  (* Warm the reader's cache. *)
  for i = 0 to 31 do
    ignore (ok (Client.read_cached reader file (P.of_list [ i ])))
  done;
  (* The writer counts no cache traffic, so the server's [client.cache_*]
     figures are the reader's. *)
  let hits name = Afs_util.Stats.Counter.get (Server.counters srv) name in
  Printf.printf "after warming: hits=%d misses=%d\n" (hits "client.cache_hits")
    (hits "client.cache_misses");

  (* Re-read everything: all hits, one validation each (a null op). *)
  for i = 0 to 31 do
    ignore (ok (Client.read_cached reader file (P.of_list [ i ])))
  done;
  Printf.printf "after re-read: hits=%d misses=%d  (file unshared -> validation is free)\n"
    (hits "client.cache_hits") (hits "client.cache_misses");

  (* Another client changes exactly one page. *)
  ok (Client.update writer file (fun txn -> Client.Txn.write txn (P.of_list [ 7 ]) (bytes "page-07'")));
  Printf.printf "\nwriter changed page 7\n";

  (* The reader's next validation discards exactly that page. *)
  let c = Cache.create srv in
  ignore c;
  let i_before = hits "client.cache_misses" in
  for i = 0 to 31 do
    ignore (ok (Client.read_cached reader file (P.of_list [ i ])))
  done;
  let new_misses = hits "client.cache_misses" - i_before in
  Printf.printf "reader re-validated: %d page re-fetched (31 served from cache)\n" new_misses;
  Printf.printf "fresh content: %s\n"
    (Bytes.to_string (ok (Client.read_cached reader file (P.of_list [ 7 ]))));

  (* Validation cost is proportional to change volume, not file size: the
     server walked the one intervening version's write set (1 path). *)
  let basis = ok (Server.current_block_of_file srv file) in
  ok (Client.update writer file (fun txn -> Client.Txn.write txn (P.of_list [ 3 ]) (bytes "x")));
  ok (Client.update writer file (fun txn -> Client.Txn.write txn (P.of_list [ 9 ]) (bytes "y")));
  let validation = ok (Cache.server_validate srv ~file ~basis_block:basis) in
  Printf.printf
    "\nexplicit validation two commits later: %d versions walked, %d write-set paths examined\n"
    validation.Cache.versions_walked validation.Cache.pages_examined;
  Printf.printf "invalid paths: %s\n"
    (String.concat " " (List.map P.to_string validation.Cache.invalid));
  Printf.printf
    "\n(the server keeps each committed version's flag map, so the walk reads no page tree)\n"
