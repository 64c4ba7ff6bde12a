module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
open Errors

type node = { data : bytes; children : node list }

let unexpected = Error (Errors.Store_failure "migrate: unexpected batch answer")

(* Each copy step is one [Version] batch of one step on the version. *)
let apply conn version s = Result.map ignore (Remote.on_version conn version [ s ])

(* Read the whole tree through the migration's own private version, one
   [Read; Info] batch per page. The snapshot is internally consistent
   because the version is a copy-on-write view; it is kept *fresh* by the
   flip commit below — every page read here lands in the version's read
   set, so any update that commits between this walk and the flip makes
   the flip's commit fail the serialisability test and the migration redo
   from scratch. *)
let rec snapshot conn version path =
  let* reads, infos = Remote.on_version conn version [ Remote.Read path; Remote.Info path ] in
  match (reads, infos) with
  | [ data ], [ (nrefs, _) ] ->
      let rec kids i acc =
        if i >= nrefs then Ok (List.rev acc)
        else
          let* k = snapshot conn version (Pagepath.child path i) in
          kids (i + 1) (k :: acc)
      in
      let* children = kids 0 [] in
      Ok { data; children }
  | _ -> unexpected

let rec plant conn version ~parent ~index node =
  let* () = apply conn version (Remote.Insert { parent; index; data = node.data }) in
  plant_all conn version (Pagepath.child parent index) 0 node.children

and plant_all conn version parent i = function
  | [] -> Ok ()
  | n :: rest ->
      let* () = plant conn version ~parent ~index:i n in
      plant_all conn version parent (i + 1) rest

(* Build the copy on the destination as a fresh file and commit it there
   (a purely local, conflict-free commit: nobody else knows the file). *)
let copy_to conn tree =
  let* nf = Remote.create_file conn tree.data in
  let* nv = Shard.open_version conn nf in
  let* () = plant_all conn nv Pagepath.root 0 tree.children in
  let* () = apply conn nv Remote.Commit in
  Ok nf

(* The flip: turn the source copy into a tombstone, in the same version
   the snapshot was read through, and commit it optimistically.

   The flip's flag map is chosen so that it conflicts with *every*
   concurrent update, in both commit orders:
   - it read every page (R, and S on interiors), so an update that commits
     first — necessarily having written or restructured something — fails
     the flip's serialisability test (rule: committed wrote what the
     candidate read);
   - it removes all the root's children (M on the root; a dummy
     insert+remove forces the M when there are none) and writes the marker
     (W on the root), so an update that commits *after* the flip fails its
     own test: its version carries R on the root (recorded by the shard's
     location check when it opened) against the flip's W, and C entries
     at the root against the flip's M.
   Losing either race only costs a redo; committed data can never end up
   stranded behind a committed marker. The whole flip is one [Version] batch. *)
let flip conn v tree target =
  let root = Pagepath.root in
  let remove index = Remote.Remove { parent = root; index } in
  let clear =
    match List.length tree.children with
    | 0 -> [ Remote.Insert { parent = root; index = 0; data = Bytes.empty }; remove 0 ]
    | n -> List.init n (fun i -> remove (n - 1 - i))
  in
  let marker = Remote.Write (root, Marker.encode (Marker.Moved target)) in
  Result.map ignore (Remote.on_version conn v (clear @ [ marker; Remote.Commit ]))

(* A flip whose store answer was lost may still have landed: the
   source's committed root then holds the tombstone naming the copy, and
   the file has moved. *)
let flipped src file nf =
  match Remote.batch src (Remote.Current file) [] with
  | Error (Errors.Moved target) -> Afs_util.Capability.equal target nf
  | Ok _ | Error _ -> false

(* One attempt on the file's current home, through the client's one
   [Moved] loop: the opening answers [Moved] at a tombstone, which
   [routed] chases. [Ok (Error Conflict)] is a flip that lost its race. *)
let attempt cluster client ~dst file =
  let counters = Cluster.counters cluster in
  Cluster_client.routed client file (fun src ~shard file ->
      if Shard.id shard = dst then Ok (Ok file) (* already home *)
      else
        let dstc = Cluster.conn cluster dst in
        let* v = Shard.open_version src file in
        match snapshot src v Pagepath.root with
        | Error e ->
            Remote.abandon src v;
            Error e
        | Ok tree -> (
            match copy_to dstc tree with
            | Error e ->
                Remote.abandon src v;
                Error e
            | Ok nf -> (
                let moved () =
                  Router.note_forward (Cluster.router cluster) ~old:file nf;
                  Stats.Counter.incr counters "migrations";
                  Stats.Counter.incr counters
                    (Printf.sprintf "shard%d.migrations_out" (Shard.id shard));
                  Stats.Counter.incr counters (Printf.sprintf "shard%d.migrations_in" dst);
                  Ok (Ok nf)
                in
                match flip src v tree nf with
                | Ok () -> moved ()
                | Error (Errors.Store_failure _) when flipped src file nf -> moved ()
                | Error Errors.Conflict ->
                    (* A concurrent update won the race; drop the stale
                       copy and redo against the fresh state. *)
                    ignore (Remote.destroy_file dstc nf);
                    Stats.Counter.incr counters "migrations.conflict";
                    Ok (Error Errors.Conflict)
                | Error e ->
                    ignore (Remote.destroy_file dstc nf);
                    Remote.abandon src v;
                    Error e)))

let migrate ?(retries = 8) cluster ~file ~dst =
  if dst < 0 || dst >= Cluster.nshards cluster then
    Error (Errors.Store_failure "migrate: no such shard")
  else
    let client = Cluster_client.connect cluster in
    let rec go n =
      match attempt cluster client ~dst file with
      | Ok (Error Errors.Conflict) when n < retries -> go (n + 1)
      | Ok r -> r
      | Error e -> Error e
    in
    go 0
