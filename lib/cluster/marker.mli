(** In-band root data: the decisions the cluster records by committing
    them into a file's root, one codec for all three.

    - {!Moved}: a migration's {e tombstone}. When a flip commits, the old
      home keeps the file as a final version whose root names the file's
      new capability; any later opening there answers
      {!Afs_core.Errors.Moved}, so clients chase the forward with no
      central directory on the hot path (see {!Migration}).
    - {!Staged}: a cross-shard transaction's stage. The staged writes
      ride the marker instead of touching any page, so the stage is an
      ordinary optimistic commit writing only the root; while it stands,
      openings of the file answer the marker (see lib/txn).
    - {!Outcome}: a coordinator record's whole root data, the outcome of
      the newest transaction decided on it. A fresh record holds seq 0
      aborted; a decision is an optimistic commit replacing one outcome
      with a later seq's, so seqs only grow on a record and no value ever
      recurs.

    Each value is written as a magic prefix, a tag byte and its fields in
    {!Afs_util.Wire} framing. Ordinary file data that starts with the
    magic and decodes would be read as a marker (the caveat of any in-band
    signalling), so the magic is chosen to be improbable in text. *)

type staged = {
  record : Afs_util.Capability.t;  (** The coordinator record file. *)
  seq : int;
      (** The transaction's number, unique among those decided on
          [record] and larger than every earlier one. *)
  old_root : bytes;  (** Root data a discard restores. *)
  writes : (Afs_util.Pagepath.t * bytes) list;
      (** Absolute page writes a roll-forward applies. *)
}

type t =
  | Moved of Afs_util.Capability.t  (** The file's new home. *)
  | Staged of staged
  | Outcome of { seq : int; committed : bool }

val encode : t -> bytes
(** One byte string per value — what lets a decider test-and-set a root
    against the exact bytes it expects. Capability fields other than
    [check], seqs and page indices must be non-negative (as every minted
    capability's are); [check] may be any int. *)

val decode : bytes -> t option
(** [Some m] iff the bytes are exactly one encoded value. Total: anything
    else, plain data included, is [None], and bytes without the magic
    cost one comparison and no allocation. *)
