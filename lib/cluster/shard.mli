(** One cluster member: a {!Afs_core.Server} over its own private store,
    exposed through an {!Afs_rpc.Remote} host whose handler is wrapped
    with the cluster's location check.

    The wrap does two things, both inside the host's single simulated
    event (so they are indivisible from the request they decorate):

    - an [Open] [Batch] on a file whose current root is a tombstone
      ({!Marker.Moved}) answers [Moved target] instead of serving it;
      one whose root holds a transaction marker ({!Marker.Staged}) answers
      [Marked] with the marker's image and opens nothing. [Current]
      batches and [Await]s pass the in-doubt trap — a [Current] batch's
      [Swap] {e is} the resolution — but still honour tombstones. A
      [Version] batch is never checked, but its [Redo] is, being an
      [Open] batch the host sends through this same wrapper;
    - an [Open] batch must begin with a [Read] of the root (other
      [Open] batches are refused and open nothing), which records
      [R] there. That makes the location check part of every cluster
      transaction's read set: a migration flip and a transaction stage
      both write the root, so their commits conflict with every version
      opened before them — the invariant {!Migration} and lib/txn rely
      on.

    Every other request passes through untouched, which is why a
    single-shard cluster is outcome-identical to a bare server for
    child-page workloads (the extra [R] on the root only matters when
    somebody writes the root, and only migrations do). *)

type t

val create :
  ?latency_ms:float ->
  ?proc_ms:float ->
  ?group_commit:int ->
  Afs_sim.Engine.t ->
  id:int ->
  store:Afs_core.Store.t ->
  Afs_core.Server.t ->
  t
(** Shard slot [id] around a server over [store]: the server behind the
    standard location-checked host, named after the server. [group_commit]
    sets the host's commit batch window ({!Afs_rpc.Remote.host}): it
    drains up to that many queued commits into one pipeline run (default
    1 — no batching). {!Cluster} builds every shard this way, at creation
    and at promotion, when the server was recovered from a replica's
    store. *)

val id : t -> int
val server : t -> Afs_core.Server.t
val host : t -> Afs_rpc.Remote.host
val name : t -> string
val port : t -> Afs_util.Capability.port

val crash : t -> unit
(** Kill the RPC endpoint and lose the server's volatile state. *)

val recover : t -> int Afs_core.Errors.r
(** Restart the endpoint and rebuild the file table from the store's
    blocks (paper §4 recovery); returns the number of files recovered. *)

val open_version :
  Afs_rpc.Remote.conn -> Afs_util.Capability.t -> Afs_util.Capability.t Afs_core.Errors.r
(** Open a version of a file on the shard behind [conn] with the [Open]
    batch the location check asks for, one [Read] of the root, so the
    version carries [R] there. A tombstone answers [Moved]; a
    transaction marker answers [Txn_in_doubt] with its record. Must run
    inside a simulation process. *)

val moved_target : Afs_core.Server.t -> Afs_util.Capability.t -> Afs_util.Capability.t option
(** [Some cap] iff the file's current committed root is a tombstone
    ({!Marker.Moved}) — i.e. the file has migrated away and [cap] is its
    new home. *)

val resident_files : t -> Afs_util.Capability.t list
(** Files whose current version actually lives here (tombstones of
    migrated-away files excluded), in capability order. *)
