module Capability = Afs_util.Capability
module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
open Errors

type t = {
  cluster : Cluster.t;
  mutable conns : Remote.conn array;
  mutable generation : int;
}

let fresh_conns cluster =
  Array.init (Cluster.nshards cluster) (fun i ->
      Remote.connect [ Shard.host (Cluster.shard cluster i) ])

let connect cluster =
  { cluster; conns = fresh_conns cluster; generation = Cluster.generation cluster }

let cluster t = t.cluster

(* Lazily learn promoted shards, the way forwards are learned: each
   connection lookup compares the cluster's promotion generation with the
   one this client connected under and rebuilds its connections when it
   moved. A client mid-request against a deposed or dead primary still
   finishes that request against it (and fails or retries as usual); the
   next routed request lands on the promoted server. *)
let conn_of t shard =
  let g = Cluster.generation t.cluster in
  if g <> t.generation then begin
    t.conns <- fresh_conns t.cluster;
    t.generation <- g
  end;
  t.conns.(Shard.id shard)

module Txn = struct
  type t = { conn : Remote.conn; version : Capability.t }

  let version t = t.version
  let conn t = t.conn
  let read t path = Remote.read_page t.conn t.version path
  let write t path data = Remote.write_page t.conn t.version path data

  let insert t ~parent ~index ?(data = Bytes.empty) () =
    Remote.insert_page t.conn t.version ~parent ~index ~data

end

type handle = { file : Capability.t; shard : Shard.t; txn : Txn.t }

let max_hops = 8

(* The one [Moved] loop: route by port, run [f] on the owning shard, and
   on a tombstone's answer learn the forward into the shared router
   cache and go again at the new home. *)
let routed t file f =
  let rec go file hops =
    if hops > max_hops then Error (Errors.Store_failure "cluster: forward chain too long")
    else
      let* file, shard = Cluster.shard_of_cap t.cluster file in
      match f (conn_of t shard) ~shard file with
      | Error (Errors.Moved target) ->
          Router.note_forward (Cluster.router t.cluster) ~old:file target;
          Stats.Counter.incr (Cluster.counters t.cluster) "client.forwarded";
          go target (hops + 1)
      | r -> r
  in
  go file 0

let begin_txn t file =
  routed t file (fun conn ~shard file ->
      let* version = Remote.create_version conn file in
      Ok { file; shard; txn = { Txn.conn; version } })

let commit t h =
  let* () = Remote.commit h.txn.Txn.conn h.txn.Txn.version in
  Cluster.note_load t.cluster ~shard:h.shard h.file;
  Ok ()

let abort h = Remote.abort_version h.txn.Txn.conn h.txn.Txn.version

exception Give_up of Errors.t

let update ?(retries = 16) t file body =
  let rec attempt n =
    match begin_txn t file with
    | Error e -> Error e
    | Ok h -> (
        let result = try body h.txn with Give_up e -> Error e in
        match result with
        | Error Errors.Conflict when n <= retries ->
            ignore (abort h);
            attempt (n + 1)
        | Error e ->
            ignore (abort h);
            Error e
        | Ok result -> (
            match commit t h with
            | Ok () -> Ok result
            | Error Errors.Conflict when n <= retries -> attempt (n + 1)
            | Error e -> Error e))
  in
  attempt 1

let read_current t file path =
  routed t file (fun conn ~shard:_ file ->
      let* version = Remote.current_version conn file in
      Remote.read_page conn version path)

let create_file ?(data = Bytes.empty) t =
  Remote.create_file (conn_of t (Cluster.place t.cluster)) data

(* {2 For the transaction layer (lib/txn)} *)

let create_file_on t shard ~data = Remote.create_file (conn_of t shard) data

let note_commit t ~shard file = Cluster.note_load t.cluster ~shard file
