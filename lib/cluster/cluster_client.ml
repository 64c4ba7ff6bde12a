module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
open Errors

type t = { cluster : Cluster.t }

let connect cluster = { cluster }
let cluster t = t.cluster

(* The cluster's connection to [shard]'s current primary: a promotion
   replaces it, so the next routed request lands on the promoted server
   (one mid-request against a deposed or dead primary finishes there,
   and fails or retries as usual). *)
let conn_of t shard = Cluster.conn t.cluster (Shard.id shard)

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

let create_file ?(data = Bytes.empty) t =
  Remote.create_file (conn_of t (Cluster.place t.cluster)) data

let create_file_on t shard ~data = Remote.create_file (conn_of t shard) data

let note_commit t ~shard file = Cluster.note_load t.cluster ~shard file
