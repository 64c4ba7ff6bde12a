(** A directory service built {e on top of} the file service — the layered
    storage hierarchy of Figure 1 (directory server above file server
    above block server).

    A directory is an ordinary small file: a fixed set of hash-bucket
    pages under the root, each holding (name, capability) entries. Every
    directory mutation is an atomic optimistic update of one bucket page,
    so concurrent [enter]s of names in different buckets never conflict,
    and lookups ride the client page cache (§5.4). Storage goes through
    the ordinary {!Afs_core.Client} interface, and this module contains
    no concurrency control of its own — demonstrating that the file
    service's mechanism is sufficient substrate for higher services. *)

type t

val create : Afs_core.Client.t -> ?buckets:int -> unit -> t Afs_core.Errors.r
(** A fresh directory file with the given bucket count (default 16). *)

val of_capability : Afs_core.Client.t -> Afs_util.Capability.t -> t Afs_core.Errors.r
(** Re-open an existing directory (bucket count is read from the file). *)

val capability : t -> Afs_util.Capability.t
val buckets : t -> int

val enter : t -> string -> Afs_util.Capability.t -> unit Afs_core.Errors.r
(** Bind (or rebind) a name. Any deferred updates ride the same commit. *)

val lookup : t -> string -> Afs_util.Capability.t option Afs_core.Errors.r
(** Served through the client cache: repeated lookups of a quiet
    directory cost one validation round trip and no page transfer.
    Deferred updates are visible (the newest queued op for a name wins
    over the stored bucket). *)

val remove : t -> string -> bool Afs_core.Errors.r
(** True when the name existed (after the deferred updates, which ride
    the same commit, are applied). *)

val list_names : t -> string list Afs_core.Errors.r
(** All bound names, sorted, deferred updates included. *)

(** {2 Deferred updates}

    The naming-layer face of group commit: a deferred [enter]/[remove]
    costs no I/O when queued and is folded into the next update
    transaction that touches the directory — [enter], [remove] or an
    explicit {!flush} — so directory metadata joins an existing commit
    (one read/write per touched bucket) instead of forcing its own.
    Queued updates are immediately visible to this handle's [lookup] and
    [list_names]; other clients see them once flushed. The queue empties
    only when the carrying commit succeeds. *)

val enter_deferred : t -> string -> Afs_util.Capability.t -> unit

val remove_deferred : t -> string -> unit

val pending_count : t -> int
(** Queued deferred updates not yet flushed. *)

val flush : t -> unit Afs_core.Errors.r
(** Commit all queued deferred updates now, in one transaction grouped by
    bucket. No-op when the queue is empty. *)
