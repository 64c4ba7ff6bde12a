(** The concurrency-control administration of one version (§5.4).

    More precisely than its write set, the full flag map: every copied
    path with the C/R/W/S/M flags its parent reference holds (the
    version page's root flags for the root). The page tree's flags are
    the authority; a map is read from them by
    {!Serialise.flag_map}, so the §5.2 serialisability test can reject
    conflicting commits from two maps alone, before any page reads.

    Canonical representation: an ordered map over {!Afs_util.Pagepath},
    whose lexicographic order puts a page immediately before its
    descendants — subtree operations are range scans, derived lists come
    out sorted root-first. *)

type t

val empty : t

val add : t -> Afs_util.Pagepath.t -> Flags.t -> t
(** [add t p f] maps [p] to [f], replacing what [t] held for it. *)

val flags_at : t -> Afs_util.Pagepath.t -> Flags.t
(** [Flags.clear] for paths never accessed. *)

val paths : t -> Afs_util.Pagepath.t list
(** All recorded (copied) paths, sorted root-first. *)

val written_paths : t -> Afs_util.Pagepath.t list
(** Paths with [W] or [M] set — the §5.4 write set — sorted root-first. *)

val read_only : t -> Afs_util.Pagepath.t list
(** The read shadows: each topmost copied path with no [W] or [M] at or
    below it, root-first. The root is never one. Reads no page. *)

val without : t -> Afs_util.Pagepath.t list -> t
(** Drops the recordings at and below each given path. *)

(** {2 Serialisability pre-test} *)

val conflict : candidate:t -> committed:t -> (Afs_util.Pagepath.t * string) option
(** The §5.2 conflict conditions evaluated over the two flag maps with no
    page reads: data written by [committed] and read by [candidate];
    references modified by [committed] and searched by [candidate]; or
    [candidate] restructured a reference table over pages [committed]
    accessed below. [None] means the tree walk will find the schedule
    serialisable (the maps are exactly the trees' flags). *)

val union : t -> t -> t
(** Pointwise {!Flags.union} of two write sets over the same file's
    coordinate space. The conflict conditions are monotone per-path
    predicates of the committed flags, so
    [conflict ~candidate ~committed:(union a b)] is [Some] iff it would
    be against [a] or against [b] — one pass over a group-commit batch's
    admitted write sets answers for every member. *)
