(** Client-side convenience over a {!Server}.

    The concurrency-control contract of the paper puts redo on the client:
    when commit reports a serialisability conflict, "the client must redo
    the update". {!update} packages that loop — create a version, apply
    the caller's transaction body, commit, and on [Conflict] re-run the
    body against a fresh version, up to a retry budget.

    {!read_cached} demonstrates §5.4: reads are served from the client's
    page cache after one validation round trip, with no unsolicited
    messages from servers.

    A client counts into its server's {!Server.counters}, under
    [client.*] names. *)

type t

val connect : ?use_cache:bool -> Server.t -> t
val server : t -> Server.t

module Txn : sig
  (** Operations bound to one uncommitted version. *)

  type nonrec t

  val version : t -> Afs_util.Capability.t
  val attempt : t -> int
  (** 1 on the first try, incremented per conflict redo. *)

  val read : t -> Afs_util.Pagepath.t -> bytes Errors.r
  val write : t -> Afs_util.Pagepath.t -> bytes -> unit Errors.r
  val insert : t -> parent:Afs_util.Pagepath.t -> index:int -> ?data:bytes -> unit ->
    Afs_util.Pagepath.t Errors.r
  val remove : t -> parent:Afs_util.Pagepath.t -> index:int -> unit Errors.r
end

exception Give_up of Errors.t
(** Raise inside an update body to abort without retrying. *)

val update :
  ?retries:int -> ?respect_hints:bool -> ?large:bool -> t -> Afs_util.Capability.t ->
  (Txn.t -> 'a Errors.r) -> 'a Errors.r
(** [update t file body] runs [body] in a fresh version and commits. On
    [Conflict] (from commit or from the body) the whole body is re-run, up
    to [retries] times (default 16); other errors abort the version and
    propagate.

    The §5.3 soft-lock scheme, both sides: [respect_hints] makes this
    update honour a live top-lock hint on the file (fail fast with
    [Locked_out] rather than race a large update), and [large] makes this
    update {e set} the hint with a fresh port for its duration, warding
    off cooperating writers so it cannot starve (experiment c8). *)

val read_current : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Errors.r
(** One-shot read of the current version, bypassing the cache. *)

val read_cached : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Errors.r
(** Validate this file's cache entry, serve from it on a hit, and fill it
    on a miss. Fails like {!read_current} when the path is absent. *)

val write_whole_file : t -> Afs_util.Capability.t -> bytes -> unit Errors.r
(** The §6 fast path: a one-page file is rewritten as a single version
    whose root holds all the data — one version page, no tree. *)

val create_file : t -> ?data:bytes -> unit -> Afs_util.Capability.t Errors.r
