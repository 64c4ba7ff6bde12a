module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
open Errors

type node = { data : bytes; children : node list }

let unexpected = Error (Errors.Store_failure "migrate: unexpected batch answer")

(* Every step of the walk and the flip is one [Version] batch of one
   step on the version. *)
let apply conn version s = Result.map ignore (Remote.on_version conn version [ s ])

(* The abort's answer is never a forward to chase ([Remote.on_version]). *)
let abandon conn version =
  match Remote.on_version conn version [ Remote.Abort ] with Ok _ | Error _ -> ()

(* Read the whole tree through the migration's own private version. The
   snapshot is internally consistent because the version is a
   copy-on-write view; it is kept *fresh* by the flip commit below — every
   page read here lands in the version's read set, so any update that
   commits between this walk and the flip makes the flip's commit fail the
   serialisability test and the migration redo from scratch. *)
let rec snapshot conn version path =
  let* reads, _ = Remote.on_version conn version [ Remote.Read path ] in
  let* _, infos = Remote.on_version conn version [ Remote.Info path ] in
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

let rec remove_children conn v i =
  if i < 0 then Ok ()
  else
    let* () = apply conn v (Remote.Remove { parent = Pagepath.root; index = i }) in
    remove_children conn v (i - 1)

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
   stranded behind a committed marker. *)
let flip conn v tree target =
  let* () =
    match List.length tree.children with
    | 0 ->
        let* () =
          apply conn v (Remote.Insert { parent = Pagepath.root; index = 0; data = Bytes.empty })
        in
        apply conn v (Remote.Remove { parent = Pagepath.root; index = 0 })
    | n -> remove_children conn v (n - 1)
  in
  let* () = apply conn v (Remote.Write (Pagepath.root, Marker.encode (Marker.Moved target))) in
  apply conn v Remote.Commit

let migrate ?(retries = 8) cluster ~file ~dst =
  let counters = Cluster.counters cluster in
  if dst < 0 || dst >= Cluster.nshards cluster then
    Error (Errors.Store_failure "migrate: no such shard")
  else
    let rec attempt n file =
      let* file, src_shard = Cluster.shard_of_cap cluster file in
      if Shard.id src_shard = dst then Ok file (* already home *)
      else
        let src = Cluster.conn cluster (Shard.id src_shard) in
        let dstc = Cluster.conn cluster dst in
        let retry n file fallback =
          if n < retries then attempt (n + 1) file else fallback
        in
        match Shard.open_version src file with
        | Error (Errors.Moved target) ->
            Router.note_forward (Cluster.router cluster) ~old:file target;
            retry n target (Error Errors.Conflict)
        | Error e -> Error e
        | Ok v -> (
            match snapshot src v Pagepath.root with
            | Error e ->
                abandon src v;
                Error e
            | Ok tree -> (
                match copy_to dstc tree with
                | Error e ->
                    abandon src v;
                    Error e
                | Ok nf -> (
                    match flip src v tree nf with
                    | Ok () ->
                        Router.note_forward (Cluster.router cluster) ~old:file nf;
                        Stats.Counter.incr counters "migrations";
                        Stats.Counter.incr counters
                          (Printf.sprintf "shard%d.migrations_out" (Shard.id src_shard));
                        Stats.Counter.incr counters
                          (Printf.sprintf "shard%d.migrations_in" dst);
                        Ok nf
                    | Error Errors.Conflict ->
                        (* A concurrent update won the race; drop the stale
                           copy and redo against the fresh state. *)
                        ignore (Remote.destroy_file dstc nf);
                        Stats.Counter.incr counters "migrations.conflict";
                        retry n file (Error Errors.Conflict)
                    | Error e ->
                        ignore (Remote.destroy_file dstc nf);
                        abandon src v;
                        Error e)))
    in
    attempt 0 file
