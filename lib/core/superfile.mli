(** Super-files and the crash-recoverable locking mechanism (§5.3).

    A super-file is a file whose page tree contains the version pages of
    sub-files: the nested "tree of trees" of Figure 2. Updates that span
    several files use locking — it warns in advance that a large update is
    in progress — while updates to individual small files keep using the
    optimistic mechanism untouched.

    Locks are two fields in a version page: the {e top lock}, set on the
    version block of the file being updated, and {e inner locks}, set on
    the current version pages of the sub-files the update visits. Both
    hold the updating transaction's port. Because a port dies with its
    process, no lock ever needs a timeout: a waiter finding a dead port
    either discards the abandoned update (commit reference still unset) or
    finishes it (commit reference set: the new super version is durable
    and names the new sub-versions, so the waiter just sets their commit
    references) — crash recovery with no rollback, no log. *)

type update
(** An in-progress super-file update: the super version, its lock port and
    the sub-files locked so far. *)

val make :
  Server.t -> subfiles:Afs_util.Capability.t list -> ?data:bytes -> unit ->
  Afs_util.Capability.t Errors.r
(** Build a super-file whose version page references the current version
    of each sub-file (and set those sub-files' parent references). *)

val subfiles : Server.t -> Afs_util.Capability.t -> Afs_util.Capability.t list Errors.r
(** The file capabilities of the sub-files, in reference order. *)

val is_superfile : Server.t -> Afs_util.Capability.t -> bool

val begin_update : Server.t -> Afs_util.Capability.t -> update Errors.r
(** The §5.3 version-creation algorithm: check that the current version's
    top and inner locks are both clear (a live holder means
    [Locked_out]; a dead one is recovered first), then set the top lock
    and create the super version. *)

val port_of : update -> int
val super_version : update -> Afs_util.Capability.t

val touch_subfile : update -> index:int -> Afs_util.Capability.t Errors.r
(** Enter the sub-file at the given reference index: set the inner lock on
    its current version page, create a version of it, and repoint the
    super version's reference at that new sub-version. Returns the
    sub-version capability for page operations. Touching the same index
    twice returns the same capability. *)

val commit : update -> unit Errors.r
(** Make every dirty page durable ({!Pagestore.flush}: the sub-versions'
    pages must be on disk before the super version points at them), commit
    the super version (the top lock guarantees the fast path), then
    descend: commit every touched sub-version — these always succeed,
    because the inner locks kept competitors out — and clear all locks. *)

val abort : update -> unit Errors.r
(** Abort every sub-version and the super version; clear all locks. *)

val crash_holder : update -> unit
(** Simulate the updating process dying mid-update: kills its port and
    abandons all its state (locks remain set on durable pages). *)

type recovery = No_lock | Holder_alive of int | Cleared | Finished of int

val recover_abandoned : Server.t -> Afs_util.Capability.t -> recovery Errors.r
(** What a waiter does when it finds the super-file's top lock set: if the
    port is alive, keep waiting ([Holder_alive]); if dead and the locked
    version's commit reference is unset, clear the locks ([Cleared]); if
    dead and set, finish the crashed commit — set the sub-files' commit
    references ([Finished n] reports how many) — per §5.3. *)

val recover_inner_waiter : Server.t -> Afs_util.Capability.t -> recovery Errors.r
(** A waiter blocked on a sub-file's inner lock ascends parent references
    to the super-file and applies {!recover_abandoned} there. *)
