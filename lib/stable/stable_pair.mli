(** Stable storage on a pair of companion block servers (paper §4).

    The paper modifies Lampson & Sturgis: each block is stored by {e two
    servers} on two disks sharing one address space. A write received by
    server [P] is first performed on the companion [Q]'s disk, then on
    [P]'s own — so the companion copy is never older, and a crash between
    the two writes loses nothing. Reads are served locally and fall back
    to the companion on corruption (detected by checksum), repairing the
    local copy. Allocate/write collisions — both servers concurrently
    choosing the same block — are detected at the companion {e before any
    damage is done}; the loser retries. While a companion is down, writes
    are recorded on an intentions list; a restarting server first compares
    notes with its companion and restores its disk before accepting
    requests.

    Each disk block holds a sector ({!Afs_disk.Disk.sector}): the payload,
    and beside it a header with a magic number, the write's sequence
    number, the payload's length and a CRC-32 of those fields followed by
    the payload. Because the checksum covers the sequence number, a
    damaged seq fails the read like a damaged payload, instead of
    winning compare-notes as a spuriously newer copy. The pair keeps the
    writer's bytes as the payload, a whole {!Afs_util.Image}, under
    [Afs_core.Store]'s ownership rule: a writer hands them over and
    never changes them again, and a reader only ever splits the image
    {!read} answers. A stable write seals its header once and both legs
    write that one sector, so a split shows on both disks. Repairs copy
    the surviving side's verified sector unchanged. A read checks the
    header against the image in place, its head and then its data, and
    answers the image itself, without a copy.

    The protocol steps ({!tentative_allocate}, {!shadow_write}) are
    exposed individually so the RPC layer can interleave them between
    concurrent clients under the event engine; the composite operations
    run all steps back-to-back for synchronous use.

    Operations answer plain results; the pair keeps one clock,
    {!busy_ms}, which a caller reads around an operation to time it. A
    simulated run charges only the disks' share of it ([Rpc.serve
    ?disks]): no companion hop or back-off reaches service time, and a
    commit's publish leg costs its two disk writes and no hop. *)

type t

type id = int
(** Server identity: 0 or 1. [companion id = 1 - id]. *)

type error =
  | Unavailable of id  (** That server is crashed; try the other one. *)
  | No_free_blocks
  | Collision of int  (** Concurrent allocate/write of the same block. *)
  | Not_allocated of int
  | Corrupt_both of int  (** Both copies failed the checksum. *)
  | Recovering of id  (** Server is up but has not finished compare-notes. *)
  | Disk_error of Afs_disk.Disk.error

val pp_error : error Fmt.t

val create :
  ?seed:int ->
  ?media:Afs_disk.Media.t ->
  ?trace:Afs_trace.Trace.t ->
  blocks:int ->
  block_size:int ->
  unit ->
  t
(** Two fresh online servers over two fresh disks. [seed] drives the
    randomised block choice (which is what makes collisions possible).
    With a trace, each write leg emits a [stable.leg] event — ["shadow"]
    (A→B), ["local"] (back to A), ["companion_read"] and ["repair"] on
    fallback reads — making the A→B→A pattern of §4 visible. *)

val block_size : t -> int
val disk : t -> id -> Afs_disk.Disk.t
val online : t -> id -> bool
val some_online : t -> id option
(** An arbitrary serving (online, recovered) server, if any. *)

val busy_ms : t -> float
(** The pair's clock: both disks' {!Afs_disk.Disk.busy_ms}, plus a 2 ms
    companion hop per A→B→A write or batch, per free, per companion read
    and per compare-notes restart, plus every collision back-off. *)

(** {2 Composite operations (synchronous client view)} *)

val allocate_write : t -> id -> bytes -> (int, error) result
(** Full §4 sequence via the given server: choose block, shadow-write at
    the companion, write locally, return the block number. Retries
    internally on collision (bounded), as the paper's "redo the operation
    after a random wait interval". *)

val write_batch : t -> id -> (int * bytes) list -> (unit, error) result
(** The §4 write, for any number of blocks in one A→B→A round trip: the
    pair's clock charges the companion hop once, then every block pays
    its two disk writes (all companion copies before any local copy).
    Each block must
    be allocated or held tentatively (from {!tentative_allocate}) by this
    server, else [Not_allocated] with nothing written; a tentative block's
    first write is its allocation. The companion checks every block for a
    collision before writing any copy: a block it holds tentatively, or a
    tentative block it has allocated, fails the batch with [Collision] and
    nothing written. Otherwise the batch stops at the first failing block,
    so each block ends fully stable, companion-only (repaired at restart)
    or untouched — never torn. Works with the companion down (intentions
    recorded). The commit publish stage uses this to make the winners'
    fresh pages and their commit references stable for one hop. *)

val write : t -> id -> int -> bytes -> (unit, error) result
(** [write t i b p] is [write_batch t i [ (b, p) ]]. *)

val read : t -> id -> int -> (Afs_util.Image.t, error) result
(** Local read with checksum verification; falls back to the companion and
    repairs the local copy on corruption. Answers the stored image
    itself, uncopied. *)

val free : t -> id -> int -> (unit, error) result
(** Release a block on both servers. A block this server holds only
    tentatively was never written: freeing it just drops the
    reservation. With the companion down, the free is recorded on the
    intentions list, and the companion's restart drops its stale copy. *)

(** {2 Protocol steps (for interleaved / RPC use)} *)

val tentative_allocate : t -> id -> (int, error) result
(** Choose and reserve a block number in this server's local view only;
    nothing is written. The block's first {!write} or {!write_batch}
    through this server allocates it. A crash of this server drops the
    reservation. *)

val abort_tentative : t -> id -> int -> unit

val shadow_write : t -> primary:id -> int -> bytes -> (int64, error) result
(** Executed {e at the companion} of [primary]: {!write_batch}'s companion
    leg for one block. The block is fresh when [primary] has not allocated
    it; a fresh block the companion has allocated, or any block it holds
    tentatively, is a collision. Otherwise writes the companion copy and
    returns the sequence number the primary must reuse in
    {!local_write_seq}. *)

val local_write_seq : t -> id -> int -> bytes -> int64 -> (unit, error) result
(** The primary's own disk write, performed after a successful shadow,
    with the sequence number the shadow returned. *)

(** {2 Crashes and recovery} *)

val crash : t -> id -> unit
(** Server process dies; its disk stays intact but unreachable. *)

val wipe_and_crash : t -> id -> unit
(** Disk head crash: contents lost, server down. *)

val restart : t -> id -> (int, error) result
(** Compare notes with the companion and restore this disk before
    accepting requests (returns the number of blocks repaired). A block
    either side's intentions list records as freed is dropped on both
    sides, not repaired. If the
    companion is down too, the server comes up alone, trusting its own
    disk (checksums still guard reads). *)

val verify_companion_invariant : t -> (unit, string) result
(** Test hook: checks that for every allocated block the surviving copies
    agree or the companion-written copy is the newer one. *)
