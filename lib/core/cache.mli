(** Client page caches, validated without unsolicited messages (§5.4).

    A version behaves like a private copy from the moment of its creation,
    so a client can keep pages of the most recent version it saw and,
    before starting a new update, ask any file server which of them are
    stale. The server walks the committed chain from the cached version to
    the current one and returns the pathnames written or restructured in
    between — time proportional to what actually changed, and a null
    operation for a file nobody else touched. No server-to-client
    callbacks exist anywhere in the design, by intent.

    The write sets come from {!Server.written_set}, which is the §5.4
    refinement where the server keeps the concurrency-control
    administration in memory: a committed version's flag map is read
    from its page tree once (at its admission, when this server
    committed it) and kept, so repeated validation re-reads no page
    tree. *)

type validation = {
  current_block : int;  (** The file's current version at validation time. *)
  invalid : Afs_util.Pagepath.t list;
      (** Cached paths to discard; a path covers its whole subtree when
          the structure beneath it changed. *)
  versions_walked : int;  (** 0 means the cache basis is still current. *)
  pages_examined : int;  (** Server-side work: the validation's cost. *)
}

val server_validate :
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

val revalidate : t -> file:Afs_util.Capability.t -> validation Errors.r
(** Run {!server_validate} for this file, drop the reported paths (and
    their subtrees), and advance the basis to the current version.
    Validation of an untouched file discards nothing. *)

val pages_cached : t -> file:Afs_util.Capability.t -> int
