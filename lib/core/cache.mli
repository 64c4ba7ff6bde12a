(** Client page caches, validated without unsolicited messages (§5.4).

    A version behaves like a private copy from the moment of its creation,
    so a client can keep pages of the most recent version it saw and,
    before starting a new update, ask any file server which of them are
    stale. The server walks the committed chain from the cached version to
    the current one and returns the pathnames written or restructured in
    between — time proportional to what actually changed, and a null
    operation for a file nobody else touched. No server-to-client
    callbacks exist anywhere in the design, by intent.

    {!Flag_cache} is the §5.4 refinement where the server keeps the
    concurrency-control administration (each committed version's write
    set) in memory, so validation does not re-read page trees. The write
    sets themselves come from {!Server.written_set}: O(pages written) via
    the incrementally maintained {!Writeset} for versions this server
    created, the flag walk only as a fallback — so even a cold flag cache
    validates without tree reads. *)

module Flag_cache : sig
  type t

  val create : unit -> t

  val write_set :
    t -> Server.t -> version_block:int -> Afs_util.Pagepath.t list Errors.r
  (** The version's written/restructured paths, memoised: committed
      versions are immutable, so an entry never goes stale. *)

  val entries : t -> int
end

type validation = {
  current_block : int;  (** The file's current version at validation time. *)
  invalid : Afs_util.Pagepath.t list;
      (** Cached paths to discard; a path covers its whole subtree when
          the structure beneath it changed. *)
  versions_walked : int;  (** 0 means the cache basis is still current. *)
  pages_examined : int;  (** Server-side work: the validation's cost. *)
}

val server_validate :
  ?flag_cache:Flag_cache.t ->
  Server.t ->
  file:Afs_util.Capability.t ->
  basis_block:int ->
  validation Errors.r
(** The server half. [basis_block] is the committed version the client's
    cache reflects. If that version has been pruned or is unknown, every
    path is reported invalid (the empty-basis convention: [invalid] =
    [[root]], which covers everything). *)

(** {2 The client half} *)

type t
(** One client's cache across files. *)

val create : Server.t -> t

val put : t -> file:Afs_util.Capability.t -> basis_block:int ->
  path:Afs_util.Pagepath.t -> data:bytes -> unit
(** Remember a page of the given committed version. Entries whose basis
    does not match the cache's basis for the file reset that file's
    entry first. Keeps [data] itself, under {!Store.t}'s ownership rule:
    neither the caller nor a later reader changes it. *)

val get : t -> file:Afs_util.Capability.t -> path:Afs_util.Pagepath.t -> bytes option
(** The bytes {!put} kept, not a copy: the caller must not change them. *)

val basis : t -> file:Afs_util.Capability.t -> int option

val revalidate : ?flag_cache:Flag_cache.t -> t -> file:Afs_util.Capability.t ->
  validation Errors.r
(** Run {!server_validate} for this file, drop the reported paths (and
    their subtrees), and advance the basis to the current version.
    Validation of an untouched file discards nothing. *)

val pages_cached : t -> file:Afs_util.Capability.t -> int
