(** An XDFS-style locking file server (paper §3: Sturgis et al. 1980) —
    the comparison baseline for the C1/C2/C9 experiments.

    Transactions bracket reads and writes; serialisability comes from
    page-grain two-phase locking with XDFS's three lock kinds: shared
    {e read} locks, {e intention-write} locks (compatible with readers;
    writes are buffered on an intentions list), and exclusive {e commit}
    locks taken at commit time while the intentions list is applied.
    Locks held longer than a threshold become {e vulnerable}: a waiter may
    prod the holder, which releases (aborts) if it is quiescent.

    Crash behaviour is the foil to the optimistic design: on a crash the
    server leaves held locks and a possibly half-applied intentions list;
    {!recover} must clear every lock, discard in-flight transactions and
    replay interrupted intention lists before service resumes — work the
    Amoeba design simply does not have. Objects are numbered pages; the
    driver maps (file, page) onto them.

    It keeps no counters: its events are trace points. *)

type t

type txn

type denial = {
  holder : int;
      (** Transaction id currently in the way; 0 means the requesting
          transaction itself is no longer active (it was prodded out by a
          waiter) and must be redone from scratch. *)
  vulnerable : bool;  (** The holder's lock has passed the threshold. *)
}

type outcome = [ `Ok | `Denied of denial | `Aborted ]

val create :
  ?vulnerable_after_ms:float ->
  ?trace:Afs_trace.Trace.t ->
  clock:(unit -> float) ->
  unit ->
  t
(** [clock] supplies the (simulated) time used for lock vulnerability.
    With a [trace], lock acquisitions, denials and prod-steals emit
    [lock.acquire]/[lock.wait]/[lock.steal] events, and {!recover} emits
    [recovery.rollback]/[recovery.replay] events whenever it had real
    work to undo or redo — the observable contrast with AFS recovery. *)

val begin_ : t -> txn
val txn_id : txn -> int
val is_active : t -> txn -> bool

val read : t -> txn -> obj:int -> (bytes, denial) result
(** Acquire/confirm a read lock and return the committed value (empty
    bytes for never-written objects). *)

val reserve : t -> txn -> obj:int -> (unit, denial) result
(** Acquire the intention-write lock without writing yet: the update lock
    a read-modify-write takes {e before} reading, avoiding the classic
    read-then-upgrade deadlock. *)

val write : t -> txn -> obj:int -> bytes -> (unit, denial) result
(** Acquire an intention-write lock and append to the intentions list. *)

val commit : t -> txn -> (unit, denial) result
(** Upgrade every intention-write lock to a commit lock (denied while
    other readers remain), apply the intentions list, release all locks. *)

val abort : t -> txn -> unit

val prod : ?by:int -> ?obj:int -> t -> victim:int -> bool
(** A waiter prods the holder of a vulnerable lock: if that transaction
    has been idle since the vulnerability threshold it is aborted and the
    prod returns true ("if it is in a state to do so, it releases its
    lock, otherwise it ignores the prod"). [by] and [obj] label the
    resulting [lock.steal] trace event with the prodding transaction and
    the contended object. *)

val value : t -> obj:int -> bytes
(** Committed state, for checking. *)

(** {2 Crash and recovery} *)

type recovery_stats = {
  locks_cleared : int;
  txns_rolled_back : int;
  intentions_replayed : int;
}

val crash : t -> unit
(** Stop service. If a commit was mid-apply, its intentions list stays
    durable and partially applied. *)

val crash_mid_commit : t -> txn -> (unit, denial) result
(** Run the commit's lock upgrades, apply {e half} of the intentions list,
    then crash — the worst case §5.3 contrasts with. *)

val recover : t -> recovery_stats
(** Clear locks, roll back in-flight transactions, finish interrupted
    intention lists, resume service. The returned counts are the units of
    recovery work; the experiment harness prices them in milliseconds. *)

val is_up : t -> bool
