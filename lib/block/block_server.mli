(** The block server (paper §4).

    Manages fixed-size blocks on one disk: allocate, deallocate, read,
    write. Writing a block is atomic and acknowledged only once durable.
    Protection: every block is owned by the account that allocated it and
    is inaccessible to other accounts. A simple locking facility supports
    the file service's commit critical section ("lock and read a block,
    examine and modify it, then write and unlock"). A recovery operation
    lists the blocks owned by an account so a file server can rebuild its
    state from block-level redundancy after a severe crash.

    Operations answer plain results; the server keeps one clock,
    {!busy_ms}, which a caller reads around an operation to time it. A
    simulated run charges only its disk's share ([Rpc.serve ?disks]). *)

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

val create : ?trace:Afs_trace.Trace.t -> disk:Afs_disk.Disk.t -> unit -> t

val disk : t -> Afs_disk.Disk.t
val block_size : t -> int
val allocated_blocks : t -> int

val busy_ms : t -> float
(** The server's clock: its disk's {!Afs_disk.Disk.busy_ms} plus 0.1 ms
    per request taken so far, failed ones included. *)

val allocate : t -> account -> (int, error) result
(** Reserve a block for the account; no disk traffic until first write.
    The first free block at or after the last one allocated, wrapping:
    deterministic. The stable pair draws its own addresses
    ([Stable_pair.tentative_allocate]). *)

val deallocate : t -> account -> int -> (unit, error) result
(** Free the block and erase its contents. On write-once media the erase
    is refused and the space is simply unlinked: the block never returns
    to the free pool. While the disk is offline, fails with
    [Disk_error Offline] and frees nothing. *)

val read : t -> account -> int -> (Afs_util.Image.t, error) result
(** The disk's image itself, not a copy: the caller only ever splits it. *)

val write : t -> account -> int -> bytes -> (unit, error) result
(** Atomic: the acknowledgement implies durability. Respects locks held by
    other accounts. The disk keeps [data] itself: do not change it. *)

val lock : t -> account -> int -> (unit, error) result
(** Grab the block's lock; fails with [Locked] when another account holds
    it (no queueing here — the file service layers its own waiting). *)

val unlock : t -> account -> int -> (unit, error) result

val owned_blocks : t -> account -> int list
(** The §4 recovery operation: all blocks owned by the account, sorted. *)
