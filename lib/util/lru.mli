(** A capacity-bounded LRU index with pinning.

    Hashtable + intrusive doubly-linked recency list: {!find_or}, {!set} and
    {!remove} are O(1). The structure never evicts on its own — {!set}
    may push {!length} above the capacity, and the owner then drains the
    excess via {!lru_unpinned} + {!remove}, performing whatever write-back
    the evicted value needs first. Pinned entries are skipped as eviction
    candidates (used for blocks held under a commit lock). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val length : ('k, 'v) t -> int

val find_or : ('k, 'v) t -> 'k -> 'v -> 'v
(** [find_or t k default] is [k]'s value, promoted to most-recently-used,
    or [default] when [k] is absent. It allocates nothing, so an owner
    that passes a sentinel [default] and compares against it physically
    has an allocation-free hit. *)

val peek_or : ('k, 'v) t -> 'k -> 'v -> 'v
(** {!find_or} without promotion: the recency order is left as it was.
    It allocates nothing either. *)

val mem : ('k, 'v) t -> 'k -> bool

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, promoting to most-recently-used. Never evicts;
    check {!needs_eviction} afterwards. *)

val remove : ('k, 'v) t -> 'k -> unit

val pin : ('k, 'v) t -> 'k -> bool
(** Exempt the entry from eviction; [false] when the key is absent. *)

val unpin : ('k, 'v) t -> 'k -> unit

val needs_eviction : ('k, 'v) t -> bool
(** [length t] exceeds the capacity given to {!create}. *)

val lru_unpinned : ('k, 'v) t -> ('k * 'v) option
(** The least-recently-used unpinned entry — the eviction candidate.
    [None] when every entry is pinned (the cache may then transiently
    exceed its capacity). *)

val clear : ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Recency order, most recent first — deterministic given a deterministic
    access sequence. *)
