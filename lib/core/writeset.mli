(** Incrementally-maintained concurrency-control administration (§5.4).

    The write set of an uncommitted version — more precisely, the full
    flag map: every copied path with the C/R/W/S/M flags its parent
    reference holds. The server grows it as {!Server.record_access_at}
    records flags, so deriving the §5.4 write set costs O(pages written)
    instead of the O(tree) flag walk, and the §5.2 serialisability test
    can reject conflicting commits from the two maps alone, before any
    page reads.

    Canonical representation: an ordered map over {!Afs_util.Pagepath},
    whose lexicographic order puts a page immediately before its
    descendants — subtree operations are range scans, derived lists come
    out sorted root-first (the order [Serialise.written_paths] produces).

    Invariant maintained by the server: for a version the server created,
    the map equals exactly the flags reachable in the version's page
    tree. Structural edits (insert/remove/move) must be mirrored
    with {!open_gap} / {!remove_at} / {!extract} / {!graft} so recorded
    paths keep naming the pages they named. *)

type t

val empty : t

val flags_at : t -> Afs_util.Pagepath.t -> Flags.t
(** [Flags.clear] for paths never accessed. *)

val record : t -> Afs_util.Pagepath.t -> Flags.access -> t
(** Accumulate the flags implied by an access, as {!Flags.record} does. *)

val paths : t -> Afs_util.Pagepath.t list
(** All recorded (copied) paths, sorted root-first. *)

val written_paths : t -> Afs_util.Pagepath.t list
(** Paths with [W] or [M] set — the §5.4 write set — sorted root-first. *)

val read_only : t -> Afs_util.Pagepath.t list
(** The read shadows: each topmost copied path with no [W] or [M] at or
    below it, root-first. The root is never one. Reads no page. *)

val without : t -> Afs_util.Pagepath.t list -> t
(** Drops the recordings at and below each given path. *)

(** {2 Structural edits} *)

val open_gap : t -> parent:Afs_util.Pagepath.t -> index:int -> t
(** A reference was inserted under [parent] at [index]: recorded siblings
    at [index] and beyond (with their subtrees) shift up by one. *)

val close_gap : t -> parent:Afs_util.Pagepath.t -> index:int -> t
(** A reference was removed: siblings beyond [index] shift down; anything
    still recorded inside the removed subtree is dropped. *)

val remove_at : t -> parent:Afs_util.Pagepath.t -> index:int -> t
(** The subtree at [parent].[index] was removed: drop its recordings and
    close the gap. *)

val extract : t -> Afs_util.Pagepath.t -> t * t
(** [(subtree, rest)]: the recordings under the given path (inclusive),
    re-rooted so the path itself maps to the root, and everything else. *)

val graft : t -> at:Afs_util.Pagepath.t -> t -> t
(** [graft t ~at sub] re-roots [sub] at the given path and merges it in
    (the re-attachment half of a move). *)

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

val equal : t -> t -> bool
