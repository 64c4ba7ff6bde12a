(** Shard replication by commit-stream log shipping, with fenced failover.

    A {!Source} wraps a primary's store, capturing every successful
    mutation as a {!Afs_core.Store.op}; installed as the server's
    [publish_tap], it cuts the captured operations plus the pages and
    commit references of each publish into sequenced batches and feeds them to
    the attached replicas. Feeding is synchronous with the commit (the
    reliable log append); application is asynchronous — a replica drains
    its queue 5 ms of virtual time later, so per-shard replication lag
    is real and lands in a histogram.

    Failover reuses the paper's commit mechanism as the fencing token.
    Every source owns an epoch {!register} (a block of the primary store,
    allocated but never written). {!promote} is a test-and-set on that
    register; a deposed primary's next publish finds the epoch moved,
    loses its own test-and-set at the gate and aborts the commit — the
    transaction is reported aborted, never silently lost.

    Both sides count into the [counters] they are given, the cluster's
    ({!Afs_cluster.Cluster.counters}). *)

type register = { block : int; mutable epoch : int }
(** The fencing token: promotion test-and-sets [epoch]; [block] is the
    store block that identifies the register in traces. *)

val register_epoch : register -> int

type batch = { seq : int; epoch : int; ship_at : float; ops : Afs_core.Store.op list }
(** One cut of the commit stream: shard-total-ordered by [seq], tagged
    with the primary epoch it was gated under. *)

type t
(** A replica: a store, a queue of shipped batches, and watermarks. *)

val create :
  ?store:Afs_core.Store.t ->
  counters:Afs_util.Stats.Counter.t ->
  ?trace:Afs_trace.Trace.t ->
  Afs_sim.Engine.t ->
  shard:int ->
  reg:register ->
  unit ->
  t
(** A fresh replica following [reg]'s current epoch. [store] defaults to
    a new in-memory store — it must start with the same allocation
    frontier as the primary had when its source was created (normally:
    both fresh), because shipped allocations replay by absolute block
    number. A feed is applied 5 ms of virtual time later. *)

val store : t -> Afs_core.Store.t
val epoch : t -> int

val applied_seq : t -> int
(** The applied watermark: every batch with seq <= this is in the store. *)

val shipped_seq : t -> int
(** The last batch seq fed to this replica. Replication lag in batches is
    [shipped_seq - applied_seq]. *)

val queued : t -> int
val lag_histogram : t -> Afs_util.Stats.Histogram.t

val failure : t -> string option
(** The first apply error, if any; a failed replica stops applying. *)

val drain : t -> unit
(** Apply everything queued, synchronously, recording lag as of now. *)

val promote : t -> expected_epoch:int -> unit Afs_core.Errors.r
(** Test-and-set on the epoch register: wins iff the register still holds
    [expected_epoch], bumping it to [expected_epoch + 1] and draining the
    queue so the store holds every batch the old primary ever gated.
    Loses with [Conflict] (emitting a fence trace point) if the epoch
    already moved — someone else promoted first. *)

val adopt : t -> epoch:int -> unit
(** Drain, then follow [epoch]: how sibling replicas re-home onto a
    freshly promoted primary's stream. *)

val store_digest : Afs_core.Store.t -> (int * bytes option) list Afs_core.Errors.r
(** Every allocated block with its readable contents (allocated-never-
    written blocks digest as [None]), sorted by block — byte-identity of
    two stores is equality of their digests. *)

(** {2 The primary side} *)

module Source : sig
  type source

  val create :
    ?reg:register ->
    ?seq:int ->
    counters:Afs_util.Stats.Counter.t ->
    ?trace:Afs_trace.Trace.t ->
    Afs_sim.Engine.t ->
    Afs_core.Store.t ->
    source
  (** Wrap [store]. Without [reg] a fresh register is made, its identity
      block allocated through the capture wrapper (so the allocation
      ships and frontiers stay aligned); pass the old register at
      promotion so the new primary continues the same token, and [seq]
      (the promoted replica's shipped watermark) so batch numbering
      stays monotone across the epoch change. The server must be created
      over {!capture_store}, with {!tap} as its [publish_tap]. *)

  val capture_store : source -> Afs_core.Store.t
  (** The wrapped store the primary server must run on: reads pass
      through; successful single-block mutations are recorded for the
      next cut. A [write_batch] is not: the publish leg is its only
      caller, and {!tap} has already cut those pages and references. *)

  val register : source -> register
  val born_epoch : source -> int
  val shipped_seq : source -> int

  val fenced : source -> bool
  (** True once the register's epoch moved past this source's: a
      promotion deposed it and every gate now loses. *)

  val attach : source -> t -> unit
  (** Attach a replica to the stream. Must happen before the first cut
      for the replica to receive the full history. *)

  val tap : source -> (int * Afs_core.Page.t) list -> unit Afs_core.Errors.r
  (** The publish gate, shaped for [Server.create ?publish_tap]: fails
      with [Conflict] when {!fenced} (the commit aborts, nothing is
      written), otherwise cuts captured ops + the publish's pages and
      references into one batch and feeds every attached replica. *)

  val flush : source -> unit
  (** Cut any captured-but-unshipped operations (e.g. file creations
      between commits) without a publish; no-op when fenced or empty. *)
end

(** {2 The replica as a remote service} *)

val host :
  ?latency_ms:float ->
  ?proc_ms:float ->
  Afs_sim.Engine.t ->
  name:string ->
  t ->
  (int, int Afs_core.Errors.r) Afs_rpc.Rpc.t
(** Serve the promotion behind an RPC endpoint, its trace label
    ["promote"]: a request carries the expected epoch and runs
    {!promote}; a win answers the applied watermark, and {!epoch} then
    reads the new epoch. *)
