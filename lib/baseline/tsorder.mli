(** A SWALLOW-style multiversion timestamp-ordering store (paper §3:
    Reed 1978/1981) — the second comparison baseline.

    Every transaction is stamped with a pseudo-time at [begin_]; every
    object keeps a history of committed versions, each with its write
    timestamp and the largest read timestamp that observed it. Reads at
    time [ts] return the version current at [ts] and advance its read
    stamp; a write at [ts] aborts if a transaction with a later timestamp
    already read the state the write would supersede (a "late write").
    Writes are buffered and installed at commit, which revalidates.

    Unlike locking there is no waiting — conflicts abort immediately — and
    unlike the optimistic scheme the abort can strike on first touch even
    when a redo would have been cheap.

    It keeps no counters: a late write is a trace point. *)

type t

type txn

val create : ?trace:Afs_trace.Trace.t -> unit -> t
(** With a [trace], late writes emit [ts.late_write] events naming the
    object, the losing timestamp and the blocker. *)

val begin_ : t -> txn
val timestamp_of : txn -> int
val is_active : txn -> bool

val read : t -> txn -> obj:int -> bytes
(** Never fails in basic MVTO: a read always finds a version (empty bytes
    before the first write), since no history is ever truncated. *)

val write : t -> txn -> obj:int -> bytes -> (unit, [ `Late_write of int ]) result
(** [`Late_write rts] reports the read timestamp that killed it. *)

val commit : t -> txn -> (unit, [ `Late_write of int ]) result
val abort : t -> txn -> unit

val value : t -> obj:int -> bytes
(** Latest committed state. *)
