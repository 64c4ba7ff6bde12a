(** Cross-shard atomic transactions, composed entirely from ordinary
    optimistic commits (the Migration idiom generalised — no lock is ever
    held across a shard boundary).

    A transaction {e stages} a marker ({!Afs_cluster.Marker.Staged}) into each
    participant file's root by an ordinary single-shard commit (the
    computed writes ride the marker; no page is touched), {e decides} by
    one more ordinary commit test-and-setting a coordinator record's root
    from the outcome it last held to this transaction's outcome — the
    transaction-wide atomic point — and then {e flips} each participant:
    restore the old root, apply the marker's writes in place, commit.
    The record lives on the last participant's shard, so the decide rides
    the last seal's message, and flips every participant on that shard
    in the same handler event; the coordinator flips the others before
    {!exec} answers. Participants' roots carry the location check's [R]
    flag, so a stage conflicts with every concurrently opened version in
    both commit orders; once staged, only resolvers can advance the file
    (ordinary opens answer [Txn_in_doubt]). Any client can resolve an
    in-doubt participant from the marker and the record alone — crash
    recovery is {!sweep}, not a log.

    A transaction that meets another's marker waits for its outcome with
    one request on the record ({!Afs_rpc.Remote.await}), held by the
    record's shard until the record commits; then it tries again, and
    flips the marker itself only if it meets it again.

    Coordinator records are reused. Each [t] keeps a per-shard free list;
    a transaction takes a record from its last participant's shard
    (creating a file only when that list is empty) and numbers itself
    above every seq the record has seen. The record's root is always the
    outcome of the newest transaction decided on it
    ({!Afs_cluster.Marker.Outcome}). A record returns to the list
    only once its transaction's outcome is definite and every
    participant's flip or unstage answered, so no marker naming an older
    seq survives (a transaction whose staging failed is rolled back and
    qualifies too, unless a stage's seal failed with anything but
    [Conflict] and so may have committed after all). After a crash, a
    decision that could not reach the record, such a seal, or a deferred
    flip or unstage, it is never reused.

    Must run inside a simulation process (everything is RPCs). A
    coordinator keeps no counter table: it counts its [txn.*] figures
    into its cluster's, {!Afs_cluster.Cluster.counters}, which lists
    them. *)

type op =
  | Read of Afs_util.Pagepath.t
  | Write of Afs_util.Pagepath.t * bytes
  | Rmw of Afs_util.Pagepath.t * (bytes -> bytes)
      (** Read the page, write the transform of what was read. *)

type part = { file : Afs_util.Capability.t; ops : op list }
(** One participant. A transaction's parts must name distinct files. *)

type failure =
  | Local of Afs_core.Errors.t
      (** A participant stage lost an ordinary single-shard OCC race —
          the same retry situation as a [Conflict] on one shard. *)
  | Cross of Afs_core.Errors.t
      (** The record decision lost to a contender's force-abort: the
          transaction was staged everywhere but aborted cross-shard. *)
  | Failed of Afs_core.Errors.t
      (** Transport or harness trouble; retry policy is the caller's. *)

type t

val create : ?trace:Afs_trace.Trace.t -> Afs_cluster.Cluster_client.t -> t
(** A coordinator bound to a cluster client. A waiter grants a
    still-pending coordinator 1.195 s before force-aborting it. That
    comfortably covers a live coordinator's full stage-decide-flip
    protocol under load, so force-aborts only fire on genuinely dead
    coordinators; crash recovery grants none, via {!sweep}. *)

val exec :
  ?on_record:(Afs_util.Capability.t -> int -> unit) -> t -> part list -> (unit, failure) result
(** Run one transaction to a definite outcome. A single part needs no
    record and no marker: it is one {!update} allowed one attempt, and a
    lost validation is a [Local] failure; multiple parts run the
    stage/decide/flip protocol, staging in capability order. Within
    a part an [Rmw] of a page the part already wrote transforms that
    pending write.
    [on_record] observes the coordinator record's capability and the
    transaction's seq as soon as the record is acquired — the hook crash
    tests use to audit outcomes ({!record_decision}) after a killed
    coordinator. Once staged, the outcome is driven to a
    decision even through transient transport errors (bounded patience),
    so a [failure] never hides a committed transaction. Every event of
    [t]'s trace is a crash site (a [Kill_at] entry of
    {!Afs_cluster.Faults.run}): each flip or unstage the coordinator
    sends is a [txn.flip] or [txn.unstage] span labelled with the
    participant's staging index. *)

type tries = { mutable made : int; allowed : int }
(** An attempt count shared by a caller's retry loop and {!commit_part}:
    [made] attempts so far, the first included, of at most [allowed]. *)

val update : t -> tries:tries -> Afs_util.Capability.t -> op list -> unit Afs_core.Errors.r
(** One optimistic update of a single file on a cluster: {!commit_part}
    inside {!Afs_cluster.Cluster_client.routed}, its commit credited to
    the shard that took it ({!Afs_cluster.Cluster_client.note_commit}).
    Redoes in one message each, as [tries] allows. A file held by
    another transaction's marker is waited out as a stage waits it out
    (one held request on the marker's record, then a flip of its own if
    it meets the same marker again) and the update tried again, at most
    8 times, after which it fails with [Store_failure]; meeting a marker
    uses no attempt. Errors are {!commit_part}'s, less [Txn_in_doubt].
    A single-file update is not coordinator work: its messages count no
    [txn.round_trips]. *)

val commit_part :
  tries:tries ->
  Afs_rpc.Remote.conn ->
  Afs_util.Capability.t ->
  op list ->
  unit Afs_core.Errors.r
(** Optimistic attempts at one file on the connection that serves it:
    two messages for the first attempt, one per redo. The first opens
    with an [Open] batch that reads the root and every page the ops
    read, then sends a [Version] batch that writes the computed values
    and commits. A batch over {!Afs_rpc.Remote.message_cap} splits:
    extra reads go into further [Version] batches, and the writes into
    several, the last of which commits.

    Every attempt but the last that [tries] allows ends its last batch
    with a [Redo]: a lost validation then comes back with the next
    attempt's opening ({!Afs_rpc.Remote.Reopened}), and the writes are
    recomputed from those reads and sent at once. Each redo adds one to
    [made], and so does a redo answered with [Moved]. With [made =
    allowed] the attempt asks for no redo.

    Errors: [Conflict] (the version is gone), [Store_failure] from the
    commit (it may have been published), or the error of an earlier
    batch, whose version is then aborted. A root holding a cross-shard
    marker answers [Txn_in_doubt]; a [Moved] from an opening is the
    caller's to chase. {!update} runs it on a cluster; lib/workload's
    bare-server backend runs it on its connection. *)

val sweep : t -> Afs_util.Capability.t list -> int Afs_core.Errors.r
(** Crash recovery's last mile: resolve every in-doubt file in the list
    with zero patience (a still-pending coordinator is presumed dead), and
    flip it at once. Returns how many files needed resolving. *)

(** {2 The decision logic}

    Pure (C1 critical sections): the protocol's brain, exposed for tests
    and for the record audit a crash harness runs. *)

type decision =
  | Pending  (** The record's newest outcome is for an earlier seq. *)
  | Committed
  | Aborted
  | Superseded
      (** The seq was decided and the record has been reused since: every
          marker naming it is already gone. *)
  | Unknown_record  (** The root data is not an outcome. *)

val decide : seq:int -> record_data:bytes -> decision
(** Classify a coordinator record's root data for transaction [seq]. *)

type action =
  | Forward of Afs_cluster.Marker.staged
  | Back of Afs_cluster.Marker.staged
  | Wait of Afs_cluster.Marker.staged
  | Gone  (** Write nothing: the marker was resolved long ago. *)

val resolve : Afs_cluster.Marker.staged -> decision -> action
(** What a resolver must do to a marker given the record's decision on
    the marker's seq. *)

val record_decision :
  t -> Afs_util.Capability.t -> seq:int -> decision Afs_core.Errors.r
(** Read what a record says about transaction [seq] (routed,
    forward-chasing). *)

val force_abort :
  t -> Afs_cluster.Marker.staged -> seen:bytes -> decision Afs_core.Errors.r
(** What a resolver out of patience does to a marker's record: one
    test-and-set from [seen], the root data it last polled, to the
    marker's seq aborted, re-tried from the answered value while that
    seq stays pending. Answers the record's final word on the seq —
    [Committed] if the coordinator's decide won, [Superseded] if the
    record had already moved past it (and then nothing was written). *)
