(** The block server (paper §4).

    Manages fixed-size blocks on one disk: allocate, deallocate, read,
    write. Writing a block is atomic and acknowledged only once durable.
    Protection: every block is owned by the account that allocated it and
    is inaccessible to other accounts. A simple locking facility supports
    the file service's commit critical section ("lock and read a block,
    examine and modify it, then write and unlock"). A recovery operation
    lists the blocks owned by an account so a file server can rebuild its
    state from block-level redundancy after a severe crash.

    Every operation reports its simulated cost so callers under the event
    engine can charge virtual time. *)

type t

type account = int

type error =
  | No_free_blocks
  | Not_allocated of int
  | Not_owner of { block : int; owner : account; caller : account }
  | Locked of { block : int; holder : account }
  | Not_locked of int
  | Disk_error of Afs_disk.Disk.error

val pp_error : error Fmt.t

type 'a outcome = { result : ('a, error) result; cost_ms : float }

val create : ?trace:Afs_trace.Trace.t -> disk:Afs_disk.Disk.t -> unit -> t

val disk : t -> Afs_disk.Disk.t
val block_size : t -> int
val allocated_blocks : t -> int

val allocate : t -> account -> int outcome
(** Reserve a block for the account; no disk traffic until first write.
    The first free block at or after the last one allocated, wrapping:
    deterministic. The stable pair draws its own addresses
    ([Stable_pair.tentative_allocate]). *)

val deallocate : t -> account -> int -> unit outcome
(** Free the block and erase its contents (no-op erase on write-once
    media: the space is simply unlinked). *)

val read : t -> account -> int -> bytes outcome
(** The disk's image itself, not a copy: the caller must not change it. *)

val write : t -> account -> int -> bytes -> unit outcome
(** Atomic: the acknowledgement implies durability. Respects locks held by
    other accounts. The disk keeps [data] itself: do not change it. *)

val lock : t -> account -> int -> unit outcome
(** Grab the block's lock; fails with [Locked] when another account holds
    it (no queueing here — the file service layers its own waiting). *)

val unlock : t -> account -> int -> unit outcome

val owned_blocks : t -> account -> int list
(** The §4 recovery operation: all blocks owned by the account, sorted. *)
