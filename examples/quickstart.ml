(* Quickstart: the file service in five minutes.

   Run with:  dune exec examples/quickstart.exe

   Walks the whole lifecycle: create a file, update it through versions,
   watch the optimistic machinery detect a conflict, and redo the losing
   update — everything on an in-memory store. *)

open Afs_core
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Errors.to_string e)
let bytes = Bytes.of_string
let section title = Printf.printf "\n== %s ==\n" title

let () =
  (* A server needs a store: here the in-memory one. Real deployments use
     Store.of_block_server or Store.of_stable_pair. *)
  let store = Store.memory () in
  let server = Server.create store in

  section "Create a file";
  let file = ok (Server.create_file server ~data:(bytes "hello, Amoeba") ()) in
  Printf.printf "file capability: %s\n" (Fmt.str "%a" Afs_util.Capability.pp file);
  let current = ok (Server.current_version server file) in
  Printf.printf "current contents: %S\n"
    (Bytes.to_string (ok (Server.read_page server current P.root)));

  section "Update through a version";
  (* A version behaves like a private copy of the file: nothing is visible
     to other clients until commit. *)
  let v = ok (Server.create_version server file) in
  ok (Server.write_page server v P.root (bytes "hello, version 2"));
  let p0 = ok (Server.insert_page server v ~parent:P.root ~index:0 ~data:(bytes "a subpage") ()) in
  Printf.printf "inserted page at path %s\n" (P.to_string p0);
  ok (Server.commit server v);
  let current = ok (Server.current_version server file) in
  Printf.printf "after commit: %S / %S\n"
    (Bytes.to_string (ok (Server.read_page server current P.root)))
    (Bytes.to_string (ok (Server.read_page server current p0)));

  section "Concurrent updates that do not conflict";
  (* Two clients update different pages: the Kung & Robinson test passes
     and the merge keeps both. *)
  let va = ok (Server.create_version server file) in
  let vb = ok (Server.create_version server file) in
  ok (Server.write_page server va P.root (bytes "root by client A"));
  ok (Server.write_page server vb p0 (bytes "subpage by client B"));
  ok (Server.commit server va);
  ok (Server.commit server vb);
  let current = ok (Server.current_version server file) in
  Printf.printf "both survive: %S / %S\n"
    (Bytes.to_string (ok (Server.read_page server current P.root)))
    (Bytes.to_string (ok (Server.read_page server current p0)));

  section "A genuine conflict, and the redo loop";
  (* The Client module packages create-version/commit/redo. Both clients
     increment the same counter page: one of them is redone transparently. *)
  let client = Client.connect server in
  let counter = ok (Client.create_file client ~data:(bytes "0") ()) in
  let increment () =
    ok
      (Client.update client counter (fun txn ->
           let open Errors in
           let* v = Client.Txn.read txn P.root in
           let n = int_of_string (Bytes.to_string v) in
           (* Interleave a competing increment on the first attempt to
              force a conflict. *)
           let* () =
             if Client.Txn.attempt txn = 1 then begin
               let rival = ok (Server.create_version server counter) in
               let m =
                 int_of_string (Bytes.to_string (ok (Server.read_page server rival P.root)))
               in
               ok (Server.write_page server rival P.root (bytes (string_of_int (m + 1))));
               ok (Server.commit server rival);
               Ok ()
             end
             else Ok ()
           in
           Client.Txn.write txn P.root (bytes (string_of_int (n + 1)))))
  in
  increment ();
  Printf.printf "counter after one increment + one rival: %S (no update lost)\n"
    (Bytes.to_string (ok (Client.read_current client counter P.root)));
  (* The client counts into its server's table, under [client.*] names. *)
  let counters = Afs_util.Stats.Counter.to_list (Server.counters server) in
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"client." k then Printf.printf "  %-18s %d\n" k v)
    counters;

  section "History";
  (* Committed versions form the family tree of Figure 4; past states stay
     readable until the garbage collector prunes them. *)
  let chain = ok (Server.committed_chain server file) in
  Printf.printf "file has %d committed versions; oldest readable:\n" (List.length chain);
  let oldest = ok (Server.version_of_block server (List.hd chain)) in
  Printf.printf "  %S\n" (Bytes.to_string (ok (Server.read_page server oldest P.root)));
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = true } server) in
  Printf.printf "gc: %s\n" (Fmt.str "%a" Gc.pp_stats stats);
  Printf.printf "\ndone.\n"
