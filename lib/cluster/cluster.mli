(** A sharded file service: N independent {!Shard}s (each its own server,
    store and RPC host) plus the client-side {!Router} and the shared
    bookkeeping the {!Rebalancer} feeds on.

    There is no coordinator and no cross-shard protocol: every file lives
    entirely on one shard, capabilities route by port, and the only
    cross-shard operation — {!Migration.migrate} — is built from ordinary
    single-shard optimistic commits. *)

type t

val create :
  ?latency_ms:float ->
  ?proc_ms:float ->
  ?cache_capacity:int ->
  ?group_commit:int ->
  ?replicas:int ->
  ?stores:(int -> Afs_core.Store.t) ->
  ?trace:Afs_trace.Trace.t ->
  Afs_sim.Engine.t ->
  shards:int ->
  t
(** [shards] ≥ 1 servers with well-separated seeds (shard [i] gets the
    bare server's default seed plus [i·2^32]), all sharing [trace] —
    their spans stay separable through each server's ["shard-<i>"] name
    label.
    [group_commit] gives every shard the same commit batch window: each
    shard's RPC host keeps its own queue, so batches form per shard
    (default 1 — no batching). [stores i] is shard [i]'s store (default
    a fresh memory store) — how tests inject store faults.

    [replicas] (default 0) gives every shard that many log-shipping
    replicas: the shard's server runs over a capture store whose commit
    stream is gated through {!Afs_replica.Replica.Source}, and each
    replica applies it asynchronously (5 ms behind, see
    {!Afs_replica.Replica.create}). With [replicas = 0] the cluster is
    bit-identical to an unreplicated one — no capture store, no gate,
    no epoch register. *)

val engine : t -> Afs_sim.Engine.t
val nshards : t -> int
val shard : t -> int -> Shard.t
val shards : t -> Shard.t list

val conn : t -> int -> Afs_rpc.Remote.conn
(** The connection to shard [i]'s current server, which {!promote}
    replaces. Migration, the rebalancer and every {!Cluster_client} send
    through it. *)

val router : t -> Router.t

val counters : t -> Afs_util.Stats.Counter.t
(** The cluster's one counter table; nothing over the cluster keeps its
    own. [shard<i>.commits] ({!note_load}); [client.forwarded]
    ({!Cluster_client}, per [Moved] chased); [migrations],
    [shard<i>.migrations_out], [shard<i>.migrations_in],
    [migrations.conflict] ({!Migration.migrate}); [rebalancer.moves];
    [promotions] ({!promote}); [replica.shipped], [replica.fenced] (each
    shard's source, per cut and per refused publish), [replica.applied]
    (its replicas, per batch); and what every {!Afs_txn.Txn}
    coordinator over the cluster adds into: [txn.committed] (each
    {!Afs_txn.Txn.exec} that committed), [txn.coordinated], [txn.round_trips]
    (coordinator messages; a single-file update sends none),
    [txn.stage_retries], [txn.force_aborts], [txn.resolved.forward] and
    [txn.resolved.back] (markers a resolver flipped itself),
    [txn.in_doubt] (markers whose outcome a waiter or sweep learnt),
    [txn.record_reads] (requests that learnt one), and the leaks
    [txn.records_created], [txn.seal_in_doubt] (a rollback whose seal
    may have committed), [txn.flip_deferred], [txn.unstage_deferred],
    [txn.rollback_deferred]. Aborts are the caller's to count. *)

val shard_of_cap :
  t -> Afs_util.Capability.t -> (Afs_util.Capability.t * Shard.t) Afs_core.Errors.r
(** Resolve forwards, then route by port: the capability as currently
    believed plus its owning shard. [Invalid_capability] for a port no
    shard owns. *)

val place : t -> Shard.t
(** Round-robin placement for a new file. *)

(** {2 Load accounting}

    Committed-update counts, kept cluster-side because commits from every
    client must aggregate somewhere the {!Rebalancer} can see. Per-shard
    totals live in {!counters} under ["shard<i>.commits"]; per-file counts
    accumulate in a window drained by each rebalancer step. *)

val note_load : t -> shard:Shard.t -> Afs_util.Capability.t -> unit
(** Record one committed update of [file] on [shard]. *)

val drain_loads : t -> (Afs_util.Capability.t * int) list
(** Per-file committed-update counts since the last drain, in a
    deterministic (port, obj) order; resets the window. *)

val shard_commits : t -> int -> int

(** {2 Replication and failover} *)

val replicas_of : t -> int -> Afs_replica.Replica.t list
(** Shard [i]'s replicas in promotion order ([[]] when unreplicated). *)

val replication_source : t -> int -> Afs_replica.Replica.Source.source option
(** Shard [i]'s primary-side commit-stream source: [None] when the shard
    has no replica, including after a {!promote} that left none. *)

val flush_replication : t -> unit
(** Cut every source's captured-but-unshipped operations and drain every
    replica synchronously — the deterministic quiesce tests compare
    store digests after. *)

type promotion = { epoch : int; watermark : int; recovered_files : int }

val promote : t -> int -> promotion Afs_core.Errors.r
(** Fail shard [i] over to its first replica; must run inside a
    simulation process. Test-and-sets the shared epoch register via the
    replica's RPC endpoint (losing with [Conflict] if the epoch already
    moved), drains the replica, re-homes the sibling replicas onto a new
    source, builds the shard over the promoted store exactly as {!create}
    built it (over the store itself, with no source, when no sibling is
    left to feed) — the
    {e same} seed, so the same secret and port, and outstanding
    capabilities and the router's port table stay valid — recovers its
    server from that store's blocks and replaces {!conn}'s connection to
    it. The
    deposed primary, if still running, can never publish again: its gate
    loses every subsequent test-and-set. *)
