(** Version calls as one-step {!Afs_rpc.Remote} batches, and cluster
    updates on the path the workloads take. Everything here is an RPC, so
    it must run inside a simulation process. *)

module Remote = Afs_rpc.Remote
module CC = Afs_cluster.Cluster_client
module Txn = Afs_txn.Txn
module Errors = Afs_core.Errors
module P = Afs_util.Pagepath

let unexpected = Error (Errors.Store_failure "unexpected batch answer")

(** The version and the reads of a batch that ran every step. *)
let ran conn target steps =
  match Remote.batch conn target steps with
  | Ok (Remote.Ran { version; reads; _ }) -> Ok (version, reads)
  | Ok (Remote.Guard_failed _ | Remote.Reopened _ | Remote.Marked _) -> unexpected
  | Error e -> Error e

(** A fresh version of a file on a bare host: an [Open] batch of no
    steps (a cluster shard asks for a root read first:
    {!Afs_cluster.Shard.open_version}). *)
let open_version conn file = Result.map fst (ran conn (Remote.Open file) [])

let current_version conn file = Result.map fst (ran conn (Remote.Current file) [])

(** Run [steps] on a version the caller holds. *)
let on conn version steps = Result.map ignore (Remote.on_version conn version steps)

let read conn version path =
  match Remote.on_version conn version [ Remote.Read path ] with
  | Ok ([ data ], _) -> Ok data
  | Ok _ -> unexpected
  | Error e -> Error e

let write conn version path data = on conn version [ Remote.Write (path, data) ]
let commit conn version = on conn version [ Remote.Commit ]

(** A page of the file's committed version: one routed [Current] batch,
    which passes the in-doubt trap (a staged file reads its marker). *)
let read_current client file path =
  CC.routed client file (fun conn ~shard:_ file ->
      match ran conn (Remote.Current file) [ Remote.Read path ] with
      | Ok (_, [ data ]) -> Ok data
      | Ok _ -> unexpected
      | Error e -> Error e)

(** Give a file fresh pages [datas] under its root, in one routed [Open]
    batch that commits. *)
let add_pages client file datas =
  CC.routed client file (fun conn ~shard:_ file ->
      Result.map ignore
        (ran conn (Remote.Open file)
           ((Remote.Read P.root
            :: List.mapi (fun index data -> Remote.Insert { parent = P.root; index; data }) datas)
           @ [ Remote.Commit ])))

(** One optimistic update of [file], as lib/workload's cluster backend
    runs it: {!Afs_txn.Txn.update} with up to [retries] redos (default
    16). [Conflict] means every attempt lost; [redos] gains the redos
    taken. *)
let update ?(retries = 16) ?redos client file ops =
  let tries = { Txn.made = 1; allowed = retries + 1 } in
  let result = Txn.update (Txn.create client) ~tries file ops in
  Option.iter (fun r -> r := !r + tries.Txn.made - 1) redos;
  result
