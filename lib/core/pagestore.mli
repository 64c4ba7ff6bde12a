(** Typed page access over a {!Store.t}, with a bounded write-back cache.

    The paper notes (§5.4) that the page cache "does not have to be a
    write-through cache": pages written in a version need not reach stable
    storage until just before commit. This module implements exactly that
    over a capacity-bounded LRU: {!write} updates the cache and marks the
    block dirty; a commit's publish writes its version's dirty pages
    ({!add_dirty}) in the same {!write_through_batch} as its commit
    references, pages first; and crash simulation calls {!drop_volatile}
    to lose whatever was not written.

    Eviction: when an insertion pushes the cache past its capacity, the
    least-recently-used unpinned entries are dropped; a dirty evictee is
    written back to the store first, so eviction never loses a write —
    only {!drop_volatile} (a crash) can do that. Blocks held under {!lock}
    are pinned and never evicted, keeping the §5.2 commit critical
    section's block resident. [cache.hits], [cache.misses],
    [cache.evictions] and [cache.writebacks] are counted into the table
    {!create} is given: its server's {!Server.counters}. *)

type t

val create :
  ?cache:bool ->
  ?capacity:int ->
  ?trace:Afs_trace.Trace.t ->
  counters:Afs_util.Stats.Counter.t ->
  Store.t ->
  t
(** [cache:false] makes every write write-through and every read hit the
    store — the ablation baseline. [capacity] bounds the number of cached
    pages (default 4096; raises [Invalid_argument] when [< 1]). With a
    [trace] that keeps host cost, three host-costed sections
    ({!Afs_trace.Trace.costed}, no events) cost the store traffic:
    [pagestore.miss] around a miss's store read and decode (a stale
    entry's re-read included), [pagestore.write] around every encode and
    store write, a publish batch's or a single page's, and [store.read]
    around the other store reads (the cache-neutral peeks). *)

val store : t -> Store.t

val allocate : t -> (int, Errors.t) result
val free : t -> int -> unit

val read : t -> int -> (Page.t, Errors.t) result

val write : t -> int -> Page.t -> (unit, Errors.t) result
(** Cached, deferred write. Fails with [Page_too_large] if the encoded
    page exceeds the block size; a store failure while writing back a
    dirty evictee also surfaces here. Writing a cached block's own page
    again, after {!Page.set_ref}, allocates nothing. *)

val write_through : t -> int -> Page.t -> (unit, Errors.t) result
(** Immediately durable, outside any publish batch (a new file's first
    version page, the lock fields of a committed version page). *)

val write_through_batch : ?pages:int -> t -> (int * Page.t) list -> (unit, Errors.t) result
(** [write_through_batch ~pages batch] durably writes [batch], in order,
    in one store [write_batch] — the commit publish leg, one amortised
    stable-storage round trip on a stable-pair backend. Its first [pages]
    entries (default 0) are dirty cached pages ({!add_dirty}), made clean
    in place without touching the LRU order; each later one, a commit
    reference, is cached clean. Every page is size-checked before the
    first write. The store stops at the first error, so a failure leaves
    a prefix of the batch durable: a reference is never durable unless
    every entry before it is. On failure the dirty pages stay dirty, so
    a retry writes them again, and any other cached batch block is
    dropped. *)

val mark_durable : t -> int -> unit
(** The block's page is known to be on disk although its write reported
    failure (a publish whose acknowledgement was lost): a dirty cache
    entry becomes clean in place. Cache-neutral. *)

val add_dirty : t -> (int * Page.t) list -> int -> (int * Page.t) list
(** [add_dirty t batch b] puts [b] with its page in front of [batch] when
    [b] is cached and dirty, and is [batch] otherwise. Cache-neutral: no
    reordering and no hit counted. *)

val flush : t -> (unit, Errors.t) result
(** Write every dirty block, one store write each, in ascending block
    order. The server's commit pipeline never calls it: a commit writes
    only its own pages, in its publish batch. It is a durability helper
    for tests and examples, and for the super-file layer, whose super
    version must not commit before the sub-versions it names are on
    disk. *)

val flush_block : t -> int -> (unit, Errors.t) result

val dirty_count : t -> int

val set_ref : t -> int -> Page.t -> int -> Page.ref_entry -> (unit, Errors.t) result
(** [set_ref t b page i entry] writes [page], [b]'s page, with entry [i]
    replaced. A dirty cache entry of [b] holding [page] (written here, not
    yet durable: on an access path, a fresh private page of the version
    that nothing else holds) owns it, so it is updated in place
    ({!Page.set_ref}) and the write allocates nothing; else it is copied. *)

val cached_blocks : t -> int list
(** The cached blocks, most recently used first: what a test compares to
    show that a collection leaves the cache alone. *)

val lock : t -> int -> bool
(** Store lock plus a pin: the block's cache entry (present or created
    while locked) is exempt from eviction until {!unlock}. *)

val unlock : t -> int -> unit

val drop_volatile : t -> unit
(** Simulates a server crash: forget the cache, clean and dirty alike,
    and release every store lock taken through this pagestore, in
    ascending block order. Unflushed writes are lost, exactly as the paper
    intends for uncommitted versions; other holders' locks are kept. *)

val refresh : t -> int -> unit
(** Mark a clean cached block stale, so the next read re-reads it from the
    store: used before examining a commit reference that another server
    may have set. A dirty (locally written, not yet durable) entry is kept:
    it is authoritative. *)

(** {2 Cache-neutral access}

    The garbage collector's reads and writes. Each takes a block from its
    cached page when the page is cached and not stale (dirty pages
    included), and from the store image otherwise. None of them inserts
    an entry, reorders the LRU list, or counts a hit or a miss, so a
    collection leaves the workload's cache as it found it. *)

val peek : t -> int -> (Page.t, Errors.t) result
(** The whole page, decoded from the store image when not cached. *)

val peek_commit_ref : t -> int -> (int option, Errors.t) result
(** The commit reference alone; a store image's header is read in place
    ({!Page.image_commit_ref}). *)

val peek_children : t -> int -> (int -> unit) -> (unit, Errors.t) result
(** Calls the function on the block number of each child reference, in
    table order; a store image's reference table is read in place
    ({!Page.iter_image_refs}). *)

val write_through_in_place : t -> int -> Page.t -> (unit, Errors.t) result
(** Immediately durable, like {!write_through}; a cached copy is replaced
    in place (recency kept, now clean) and an uncached block stays
    uncached. *)
