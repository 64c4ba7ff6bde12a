(** Client-side request routing.

    A capability's 48-bit port identifies the server that minted it, so
    the port {e is} the location: routing is a pure local lookup from port
    to shard, with no directory service on the hot path. On top of that
    sits a forward cache, learned lazily from [Moved] errors, mapping a
    migrated file's old [(port, obj)] to its current capability. Both
    structures are caches of immutable facts (a port never changes owner;
    a tombstone never un-moves), so staleness is only ever one extra hop,
    never a wrong answer. *)

type t

val create : ports:Afs_util.Capability.port list -> t
(** One entry per shard, in shard order. *)

val shard_of_port : t -> Afs_util.Capability.port -> int option
(** Total over the cluster's own ports; [None] means a foreign
    capability. *)

val resolve : t -> Afs_util.Capability.t -> Afs_util.Capability.t
(** Chase cached forwards (bounded hops, cycle-proof); the result's port
    names the shard believed to hold the file now. *)

val note_forward : t -> old:Afs_util.Capability.t -> Afs_util.Capability.t -> unit
(** Learn [old → target] from a [Moved target] answer. Self-forwards are
    ignored. *)

val place : t -> int
(** Round-robin placement: the shard id for the next new file. *)
