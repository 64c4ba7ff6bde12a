(** The garbage collector (paper abstract and §5.1).

    Once a version has committed, the information in its R and S flags is
    no longer needed, so pages that were {e copied but not written or
    modified} can be removed and the corresponding page of the base
    version re-shared. A commit that wins on the fast path does this
    itself, before its pages are written ({!Server.commit}), so its read
    copies are never written at all; the collector's pass ({!reshare})
    reshares the copies of versions that won by merging. Old committed
    versions beyond a retention window can be pruned from the family
    tree; a mark-and-sweep over the retained version trees then frees
    every unreachable block.

    Resharing only rewrites references — it never frees blocks itself, so
    a later version that still shares a to-be-reshared copy keeps it alive
    through the mark phase. The collector is safe to run at any quiescent
    point, so a simulation can run it as its own process between client
    commits ("independent of, and in parallel with, the operation of the
    system").

    Running beside the system means not getting in its way. A collection
    walks each file's chain once, and the mark reads only child block
    numbers: from the cached page when it is cached and not stale,
    otherwise straight from the store image's reference table, never
    decoding page data. Every read and write goes through the pagestore's
    cache-neutral calls ({!Pagestore.peek} and friends), so the cache's
    entries, recency order and hit/miss counts are as the collection found
    them, apart from the freed blocks, which leave it. The server then
    forgets every version the mark found dead ({!Server.reclaim_versions}),
    so its memory follows retained history, not total history. *)

type policy = {
  retain_committed : int;
      (** Committed versions kept per file, newest first (>= 1). Older
          versions are unlinked; pages they share with retained versions
          survive the sweep. *)
  reshare : bool;  (** Enable the read-copy resharing pass. *)
}

type stats = {
  versions_pruned : int;
  pages_reshared : int;
  blocks_freed : int;
  blocks_live : int;
}

val pp_stats : stats Fmt.t

val reshare_version : Server.t -> int -> int Errors.r
(** [reshare_version server vblock] re-shares the copied-but-unwritten
    subtrees of the committed version at [vblock] with its base version.
    Returns the number of references rewritten. Only merged winners
    still have any: a fast-path commit reshared its own. *)

val collect : ?policy:policy -> Server.t -> stats Errors.r
(** Full cycle: reshare every retained committed version, prune beyond the
    retention window, mark from every file's retained chain and
    uncommitted versions, drop the server's records of dead versions,
    sweep the store's allocated blocks in ascending order. A file's
    current version is not reshared while the file has uncommitted
    versions: their copies name its pages as their originals, and a
    fast-path commit points its read copies back at them. Blocks the
    store lists but never wrote (a stable pair's reservations) are marked
    when reachable and swept otherwise. *)

val live_blocks : Server.t -> int list Errors.r
(** The mark phase alone, ascending (exposed for the safety tests: GC must
    never free a block in this set). *)
