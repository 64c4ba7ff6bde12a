(** Location-transparent access to a {!Cluster}: the cluster's
    connection to each shard, and {!routed}, the one loop that routes a
    capability by port, chases cached forwards and learns new ones from
    [Moved] answers — so callers keep using a migrated file's old
    capability indefinitely.
    Requests are bare {!Afs_rpc.Remote} batches; lib/txn and lib/workload
    send them through {!routed}.

    Must run inside a simulation process (all operations are RPCs). *)

type t

val connect : Cluster.t -> t
(** A client of [cluster]. It sends through {!Cluster.conn}, which a
    promotion replaces, so it follows failovers with no state of its
    own. *)

val cluster : t -> Cluster.t

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
    long"]. Every other answer is [f]'s. Every request of lib/txn and of
    lib/workload's cluster backends goes through it. *)

val create_file : ?data:bytes -> t -> Afs_util.Capability.t Afs_core.Errors.r
(** New file on the round-robin placement shard. *)

val create_file_on :
  t -> Shard.t -> data:bytes -> Afs_util.Capability.t Afs_core.Errors.r
(** New file on a {e specific} shard, leaving the round-robin placement
    cursor untouched (coordinator records live with their last
    participant). *)

val note_commit : t -> shard:Shard.t -> Afs_util.Capability.t -> unit
(** Record a committed update against the file for the {!Rebalancer}'s
    load statistics. *)
