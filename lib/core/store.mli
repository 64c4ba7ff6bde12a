(** The storage abstraction the file service runs on.

    A [Store.t] is a first-class bundle of block operations. The same file
    service code runs over an in-memory table (unit tests, benchmarks), a
    {!Afs_block.Block_server} on a simulated disk, or an
    {!Afs_stable.Stable_pair} (crash experiments) — that separation of file
    service from block service is itself a design point of the paper (§4).

    [lock]/[unlock] expose the block server's simple locking facility, used
    only for the commit critical section: "lock and read a block, examine
    and modify it, then write and unlock the block again".

    Images are shared, never copied, at this boundary (§5.1: a written
    image never changes). Every backend and wrapper keeps one ownership
    rule: a writer hands the bytes over and never changes them again, and
    a reader never changes the bytes [read] answers. A write takes one
    [bytes], the page's whole image; every backend keeps those bytes as
    an {!Afs_util.Image} and answers that image itself: the memory store,
    a block server and the stable pair, whose disk sectors keep their
    header beside the writer's bytes rather than around a copy of them.
    The first decode splits an image, once, into the page's encoded head
    and its data ({!Page.decode}); every later read of the block shares
    that data, so the codec copies a block's data at most once. The rule
    runs on to the request boundary: a page's data passes from the page
    cache to the client uncopied ([Server.read_page], the replies of
    [Afs_rpc.Remote], the client cache {!Cache}). *)

type t = {
  block_size : int;
  allocate : unit -> (int, string) result;
  free : int -> (unit, string) result;
  read : int -> (Afs_util.Image.t, string) result;
  write : int -> bytes -> (unit, string) result;
  write_batch : (int * bytes) list -> (unit, string) result;
      (** The writes in order, stopping at the first error, so the durable
          state is always a prefix of the batch. Plain backends perform
          the single writes; the stable pair amortises its companion hop
          across the whole batch (one A→B→A round trip) — the leg the
          group-commit publish stage rides. *)
  lock : int -> bool;  (** False when another holder has it; no queueing. *)
  unlock : int -> unit;
  list_blocks : unit -> (int list, string) result;
      (** All allocated blocks — the §4 per-account recovery listing. The
          garbage collector's sweep and crash recovery both rely on it. *)
}

type op = Alloc of int | Free of int | Write of int * bytes
(** One store mutation, as recorded and replayed by the replication
    commit stream: block numbers are absolute, so a replayed [Alloc]
    checks that the applying store hands back the same number. *)

val apply_ops : t -> op list -> (unit, string) result
(** Replay a batch in order, stopping at the first error. Consecutive
    [Write]s are coalesced into one {!field:write_batch} call, so a
    stable-pair replica pays its companion hop once per run of writes. *)

val memory : ?block_size:int -> unit -> t
(** Unbounded in-memory store (default block size 32768). It keeps the
    written bytes as an image and [read] returns it. *)

val of_block_server :
  Afs_block.Block_server.t -> account:Afs_block.Block_server.account -> t
(** All operations performed under the given account; the block server's
    per-account protection applies. Images pass to and from the disk's
    sectors uncopied. *)

val of_stable_pair : Afs_stable.Stable_pair.t -> t
(** Routes each operation to a currently-online server of the pair, so the
    file service keeps running across single-server crashes (§5.4.1).
    [allocate] only reserves a number at the serving server
    ({!Afs_stable.Stable_pair.tentative_allocate}); the block's first
    write — normally in the commit's publish batch — allocates it on both
    disks. [list_blocks] lists reserved blocks too: reading one that was
    never written fails, and freeing it drops the reservation. Both disks
    keep the written bytes as one image, and a sound read answers it
    uncopied. *)

val counting : t -> t * (unit -> int * int)
(** [counting s] wraps [s]; the second component returns (reads, writes)
    performed through the wrapper — used by experiments that report page
    I/O rather than time. *)

type worm_stats = {
  bulk_writes : int;  (** Blocks etched onto the write-once medium. *)
  bulk_blocks : int;
  index_writes : int;  (** Rewrites absorbed by the magnetic index. *)
  index_blocks : int;  (** Blocks that migrated to the index. *)
}

val worm_hybrid : blocks:int -> block_size:int -> unit -> t * (unit -> worm_stats)
(** The §6 optical configuration as Figure 2 implies it: a write-once
    optical bulk medium plus a small rewritable magnetic index. A block
    is etched onto the bulk medium on first write and silently migrates
    to the index the first time it needs rewriting — in practice only
    version pages do (commit references and flags), so "the top of the
    tree" ends up on magnetic media while data pages are written exactly
    once. Freeing a bulk block merely unlinks it: WORM space is
    unreclaimable by design. *)
