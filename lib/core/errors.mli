(** The error vocabulary of the file service. *)

type t =
  | Conflict
      (** The commit-time serialisability test failed: the version has been
          removed and the client must redo the update (paper §5.2). *)
  | Invalid_capability
  | No_such_file of int
  | No_such_version of int
  | Version_not_mutable
      (** Write attempted on a committed or aborted version. *)
  | Bad_path of Afs_util.Pagepath.t
      (** No page at that pathname in the version's tree. *)
  | Bad_index of { path : Afs_util.Pagepath.t; index : int; nrefs : int }
  | Page_too_large of { bytes : int; limit : int }
      (** The encoded page would exceed the 32K transaction-message cap. *)
  | Message_too_large of { bytes : int; limit : int }
      (** A batch's write data, or its accumulated read replies, would
          exceed the same cap: the client must split it. *)
  | Locked_out of { port : int }
      (** A super-file top/inner lock held by a live updater blocks this
          operation (§5.3). *)
  | Not_superfile
  | Moved of Afs_util.Capability.t
      (** The file's chain now lives on another server; retry against the
          capability carried in the error (cluster forwarding). Only the
          cluster layer's location check raises this — a bare server never
          does. *)
  | Txn_in_doubt of Afs_util.Capability.t
      (** The file's current committed root is a cross-shard transaction
          marker: a staged update whose outcome lives in the coordinator
          record carried here. Resolve (roll forward or discard) against
          the record before reopening — the txn layer does this
          transparently. Like [Moved], only the cluster layer's location
          check raises this. *)
  | Store_failure of string
      (** The underlying block/stable layer failed. *)

val to_string : t -> string

type 'a r = ('a, t) result

val ( let* ) : 'a r -> ('a -> 'b r) -> 'b r
