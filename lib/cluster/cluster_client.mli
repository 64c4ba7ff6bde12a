(** Location-transparent client over a {!Cluster}: the {!Afs_core.Client}
    surface, but every operation goes through {!routed}: it routes by
    port, chases cached forwards, and learns new ones from [Moved]
    answers — so callers keep using a migrated file's old capability
    indefinitely.

    Must run inside a simulation process (all operations are RPCs). *)

type t

val connect : Cluster.t -> t
(** A client with its own connection to every shard (so per-client RPC
    failover state stays per-client, as with bare {!Afs_rpc.Remote}). *)

val cluster : t -> Cluster.t

module Txn : sig
  (** Operations bound to one uncommitted version on its owning shard. *)

  type t

  val version : t -> Afs_util.Capability.t

  val conn : t -> Afs_rpc.Remote.conn
  (** The owning shard's connection — where lib/workload's 2PC baseline
      runs this version's page requests and speaks [Prepare]/[Decide]. *)

  val read : t -> Afs_util.Pagepath.t -> bytes Afs_core.Errors.r
  val write : t -> Afs_util.Pagepath.t -> bytes -> unit Afs_core.Errors.r

  val insert :
    t -> parent:Afs_util.Pagepath.t -> index:int -> ?data:bytes -> unit ->
    Afs_util.Pagepath.t Afs_core.Errors.r
end

type handle = { file : Afs_util.Capability.t; shard : Shard.t; txn : Txn.t }
(** An open transaction: the capability as resolved (post-forwarding) and
    the shard it landed on. *)

val routed :
  t -> Afs_util.Capability.t ->
  (Afs_rpc.Remote.conn -> shard:Shard.t -> Afs_util.Capability.t -> 'a Afs_core.Errors.r) ->
  'a Afs_core.Errors.r
(** [routed t file f] is the client's one forward-chasing loop. It
    resolves [file] through the shared router cache, routes it by port
    and runs [f conn ~shard file] on the owning shard. A [Moved target]
    answer from [f] (a tombstone) is learnt into the router cache, counted
    under ["client.forwarded"], and [f] runs again at [target]. After 8
    hops it gives up with [Store_failure "cluster: forward chain too
    long"]. Every other answer is [f]'s. Every routed operation below,
    and every request of lib/txn, goes through it. *)

val begin_txn : t -> Afs_util.Capability.t -> handle Afs_core.Errors.r
(** Open a version on the owning shard, {!routed}. Errors other than
    [Moved] propagate ([Locked_out] back-off policy is the caller's, as
    in the bare-server harnesses). *)

val commit : t -> handle -> unit Afs_core.Errors.r
(** Commit on the owning shard; on success records the file's load for
    the {!Rebalancer}. *)

val abort : handle -> unit Afs_core.Errors.r

exception Give_up of Afs_core.Errors.t
(** Raise inside an {!update} body to abort without retrying. *)

val update :
  ?retries:int -> t -> Afs_util.Capability.t -> (Txn.t -> 'a Afs_core.Errors.r) ->
  'a Afs_core.Errors.r
(** {!Afs_core.Client.update}'s redo loop, cluster-wide: on [Conflict]
    (from the body or from commit) the whole body re-runs against a fresh
    version — which may land on a {e different} shard if the file migrated
    between attempts. Other errors abort the version and propagate. *)

val read_current :
  t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Afs_core.Errors.r
(** A page of the file's current committed version, {!routed}. *)

val create_file : ?data:bytes -> t -> Afs_util.Capability.t Afs_core.Errors.r
(** New file on the round-robin placement shard. *)

(** {2 For the transaction layer}

    The cross-shard coordinator (lib/txn) speaks bare {!Afs_rpc.Remote}
    requests through {!routed}; these two place its records and credit
    its commits. *)

val create_file_on :
  t -> Shard.t -> data:bytes -> Afs_util.Capability.t Afs_core.Errors.r
(** New file on a {e specific} shard, leaving the round-robin placement
    cursor untouched (coordinator records live with their first
    participant). *)

val note_commit : t -> shard:Shard.t -> Afs_util.Capability.t -> unit
(** Record a committed update against the file for the {!Rebalancer}'s
    load statistics, as {!commit} does. *)
