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
(** Bind (or rebind) a name: one update of its bucket page. *)

val lookup : t -> string -> Afs_util.Capability.t option Afs_core.Errors.r
(** Served through the client cache: repeated lookups of a quiet
    directory cost one validation round trip and no page transfer. *)

val remove : t -> string -> bool Afs_core.Errors.r
(** True when the name existed. A missing name writes nothing. *)

val list_names : t -> string list Afs_core.Errors.r
(** All bound names, sorted. *)
