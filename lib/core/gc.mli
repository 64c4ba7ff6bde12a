(** The garbage collector (paper abstract and §5.1).

    Once a version has committed, the information in its R and S flags is
    no longer needed, so pages that were {e copied but not written or
    modified} can be removed and the corresponding page of the base
    version re-shared. Every winning commit does this itself, before its
    pages are written ({!Server.commit}), so read copies are never written
    at all and a committed tree keeps its references and flags. What is
    left to the collector: old committed versions beyond a retention
    window are pruned from the family tree, and a mark-and-sweep over the
    retained version trees frees every unreachable block. The collector is safe to run at
    any quiescent point, so a simulation can run it as its own process
    between client commits ("independent of, and in parallel with, the
    operation of the system").

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
  reshare : bool;
      (** No effect: every winner reshares its read copies at commit. The
          field stays only because the end-to-end benchmark
          ([bench/e2e/round.ml]) builds this record; the change to that
          benchmark in ROADMAP item 18 deletes it. *)
}

type stats = { versions_pruned : int; blocks_freed : int; blocks_live : int }

val pp_stats : stats Fmt.t

val collect : ?policy:policy -> Server.t -> stats Errors.r
(** Full cycle: prune beyond the retention window, mark from every
    file's retained chain and uncommitted versions, drop the server's
    records of dead versions, sweep the store's allocated blocks in
    ascending order. Blocks the store lists but never wrote (a stable
    pair's reservations) are marked when reachable and swept otherwise. *)

val live_blocks : Server.t -> int list Errors.r
(** The mark phase alone, ascending (exposed for the safety tests: GC must
    never free a block in this set). *)
