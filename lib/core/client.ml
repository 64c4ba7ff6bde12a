module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats

open Errors

type t = { server : Server.t; cache : Cache.t option }

let connect ?(use_cache = true) server =
  { server; cache = (if use_cache then Some (Cache.create server) else None) }

let server t = t.server

(* Counts land in the server's table, under [client.*] names: the page
   store already owns [cache.hits] and [cache.misses] there. *)
let bump t name = Stats.Counter.incr (Server.counters t.server) name

module Txn = struct
  type nonrec t = { client : t; version : Capability.t; attempt : int }

  let version txn = txn.version
  let attempt txn = txn.attempt
  let read txn path = Server.read_page txn.client.server txn.version path
  let write txn path data = Server.write_page txn.client.server txn.version path data

  let insert txn ~parent ~index ?data () =
    Server.insert_page txn.client.server txn.version ~parent ~index ?data ()

  let remove txn ~parent ~index = Server.remove_page txn.client.server txn.version ~parent ~index
end

exception Give_up of Errors.t

let update ?(retries = 16) ?(respect_hints = false) ?(large = false) t file body =
  let ports = Server.ports t.server in
  let hint_port = if large then Ports.fresh ports else 0 in
  let release_hint () = if large then Ports.kill ports hint_port in
  let rec go attempt =
    bump t "client.attempts";
    let* version = Server.create_version ~respect_hints ~updater_port:hint_port t.server file in
    let txn = { Txn.client = t; version; attempt } in
    let outcome = try body txn with Give_up e -> Error e in
    match outcome with
    | Error e ->
        (* The body failed: the version is garbage either way. *)
        ignore (Server.abort_version t.server version);
        if e = Conflict && attempt < retries then begin
          bump t "client.redone";
          go (attempt + 1)
        end
        else Error e
    | Ok value -> (
        match Server.commit t.server version with
        | Ok () ->
            bump t "client.committed";
            Ok value
        | Error Conflict when attempt < retries ->
            bump t "client.redone";
            go (attempt + 1)
        | Error e -> Error e)
  in
  let result = go 1 in
  release_hint ();
  result

let read_current t file path =
  let* current = Server.current_version t.server file in
  Server.read_page t.server current path

let read_cached t file path =
  match t.cache with
  | None -> read_current t file path
  | Some cache -> (
      let* validation = Cache.revalidate cache ~file in
      match Cache.get cache ~file ~path with
      | Some data ->
          bump t "client.cache_hits";
          Ok data
      | None ->
          bump t "client.cache_misses";
          let* current = Server.current_version t.server file in
          let* data = Server.read_page t.server current path in
          Cache.put cache ~file ~basis_block:validation.Cache.current_block ~path ~data;
          Ok data)

let write_whole_file t file data =
  update t file (fun txn -> Txn.write txn Pagepath.root data)

let create_file t ?data () = Server.create_file t.server ?data ()
