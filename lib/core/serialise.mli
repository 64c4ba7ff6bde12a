(** The one-pass serialisability test and version merge (paper §5.2).

    A candidate version [V_b], based on [V_a], wants to commit, but a
    concurrent update [V_c] (also based on [V_a]) committed first. By
    Kung & Robinson's condition (2) the schedule is serialisable as
    [V_c; V_b] iff the write set of [V_c] does not intersect the read set
    of [V_b]. The flags make both sets available without any per-
    transaction log: descending both page trees in parallel,

    - a data conflict is a page with [W] set in [V_c] and [R] set in [V_b];
    - a structure conflict is a page with [M] set in [V_c] and [S] set in
      [V_b];

    and any subtree whose reference has [C] clear in either version can be
    skipped wholesale — it was not even accessed there. In the same pass
    the merged successor is prepared: parts of [V_b]'s tree it never
    accessed are replaced by the corresponding written parts of [V_c], so
    the merged version carries both updates and is re-based on [V_c].

    The merge keeps one rule: a copy's [base_ref] names the page at the
    same path in its version's {e current} base. A copy that [V_c] left
    alone keeps it ([V_c] shares that page with [V_a]); a copy both
    accessed is rewritten with [base_ref] naming [V_c]'s page. So after a
    serialisable merge a read shadow (a copy with no [W] or [M] at or
    below it) holds the data and references of [V_c]'s page at its path,
    flags apart. Its data: the candidate did not write it, so the merge
    takes [V_c]'s when [V_c] wrote it and keeps the base data, which
    [V_c] shares, when not. Its references: the candidate did not
    restructure, so they are [V_c]'s table when [V_c] restructured, else
    entry by entry the untouched base page both share, [V_c]'s subtree
    adopted, or the candidate's own copy, which holds what [V_c]'s page
    there holds by the same argument. Hence a merged winner can point
    its read shadows back at the pages their [base_ref]s name, as a
    fast-path winner does ({!Server.commit}).

    One case the paper leaves open: [V_b] restructured a page's reference
    table ([M]) while [V_c] independently accessed pages below it. Index
    correspondence is lost, so we conservatively report a conflict; this
    can only over-abort, never accept a non-serialisable schedule (noted
    in DESIGN.md). *)

type stats = {
  pages_visited : int;  (** Pages read by the test — its cost metric. *)
  pages_adopted : int;  (** Subtrees of [V_c] grafted into the merge. *)
}

type verdict =
  | Serialisable of stats
  | Conflict of { path : Afs_util.Pagepath.t; reason : string; stats : stats }

val test_and_merge :
  Pagestore.t -> candidate:int -> committed:int -> (verdict, Errors.t) result
(** [test_and_merge ps ~candidate ~committed] checks the candidate version
    (by version-page block) against the committed one and, when
    serialisable, rewrites the candidate's pages in place (they are
    private copies) so that it is based on [committed]. The candidate's
    version page is updated with the new base reference. Every write is a
    cached, deferred {!Pagestore.write}: the candidate's publish makes the
    merged pages durable. *)

val test_only : Pagestore.t -> candidate:int -> committed:int -> (verdict, Errors.t) result
(** The same walk without any writes. *)

val flag_map : Pagestore.t -> version:int -> (Writeset.t, Errors.t) result
(** The given version's concurrency-control administration, read from
    its page tree: every path whose parent reference carries a flag (the
    version page's root flags for the root), with those flags. Its
    {!Writeset.written_paths} are the version's write set — exactly the
    pages a holder of the base version must discard. Reads through
    {!Pagestore.peek}, so it leaves the page cache as it found it. *)

type change = Data_changed | Structure_changed

val diff_trees :
  Pagestore.t -> old_version:int -> new_version:int ->
  ((Afs_util.Pagepath.t * change) list, Errors.t) result
(** Structural diff between two version trees of the same file, in time
    proportional to what differs: identical block numbers mean identical
    shared subtrees and are skipped without being read — the differential
    representation makes history diffs nearly free. Reports pages whose
    data differs and pages whose reference table changed shape (a
    [Structure_changed] page's descendants are compared positionally as
    far as both sides reach). Order is root-first. *)
