module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Store = Afs_core.Store
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote

type t = { id : int; store : Store.t; server : Server.t; host : Remote.host }

(* The file's current committed root decoded, from one chase of the
   commit chain and one read of the root, with the root's bytes, not
   copied: a tombstone ([Moved]), a cross-shard transaction's stage
   ([Staged]), or [None] for ordinary data. *)
let root_marker server file =
  match Server.current_root_data server file with
  | Error _ -> None
  | Ok data -> ( match Marker.decode data with Some m -> Some (m, data) | None -> None)

let moved_target server file =
  match root_marker server file with
  | Some (Marker.Moved target, _) -> Some target
  | Some ((Marker.Staged _ | Marker.Outcome _), _) | None -> None

let reads_root : Remote.step list -> bool = function
  | Remote.Read path :: _ -> Pagepath.equal path Pagepath.root
  | _ -> false

(* The wrapper runs atomically inside the host's single simulated event,
   so the marker checks, the version creation and the root read are
   indivisible: no commit (in particular no migration flip and no
   transaction stage) can slip between them. *)
let location_check server base (req : Remote.request) : Remote.response =
  match req with
  | Remote.Batch { target = Remote.Open file; steps } -> (
      (* An [Open] batch is an opening: it must read the root first,
         which puts the R-on-root fence in its own read set, and a marker
         there answers its image, with no version opened. *)
      match root_marker server file with
      | Some (Marker.Moved target, _) -> Error (Errors.Moved target)
      | _ when not (reads_root steps) ->
          Error (Errors.Store_failure "shard: an Open batch must read the root first")
      | Some (Marker.Staged _, image) -> Ok (Remote.Batched (Remote.Marked image))
      | Some (Marker.Outcome _, _) | None -> base req)
  | Remote.Batch { target = Remote.Current file; _ } | Remote.Await { file; _ } -> (
      (* Reads of the committed root and the [Swap]s that resolve
         markers: past the in-doubt trap, but not past a tombstone. A
         [Version] batch's version was opened through this check
         already. *)
      match moved_target server file with
      | Some target -> Error (Errors.Moved target)
      | None -> base req)
  | _ -> base req

let open_version conn file =
  match Remote.batch conn (Remote.Open file) [ Remote.Read Pagepath.root ] with
  | Ok (Remote.Ran { version; _ }) -> Ok version
  | Ok (Remote.Marked image) -> (
      match Marker.decode image with
      | Some (Marker.Staged { record; _ }) -> Error (Errors.Txn_in_doubt record)
      | Some (Marker.Moved _ | Marker.Outcome _) | None ->
          Error (Errors.Store_failure "shard: a marker without a record"))
  | Ok (Remote.Guard_failed _ | Remote.Reopened _) ->
      Error (Errors.Store_failure "shard: an opening answered a resolution")
  | Error e -> Error e

(* The standard location-checked host around [server], named after it. *)
let create ?latency_ms ?proc_ms ?group_commit engine ~id ~store server =
  let host =
    Remote.host ?latency_ms ?proc_ms ~wrap:(location_check server) ?group_commit engine
      ~name:(Server.name server) server
  in
  { id; store; server; host }

let id t = t.id
let server t = t.server
let host t = t.host
let name t = Server.name t.server
let port t = Server.port t.server
let crash t = Remote.crash_host t.host

let recover t =
  Remote.restart_host t.host;
  match (t.store.Store.list_blocks) () with
  | Error e -> Error (Errors.Store_failure e)
  | Ok blocks -> Server.recover_from_blocks t.server blocks

let resident_files t =
  List.filter
    (fun f -> Option.is_none (moved_target t.server f))
    (List.sort Capability.compare (Server.list_files t.server))
