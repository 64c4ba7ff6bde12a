(** The cross-shard transaction marker (lib/txn's staging record), and
    the coordinator record's outcome codec.

    A participant's {e stage} commit replaces its root data with an
    encoded marker: the staged writes ride the marker instead of touching
    any page, so the stage is an ordinary optimistic commit whose flag
    map is [R] on every page the transaction read plus [R]+[W] on the
    root — conflicting with every concurrently opened version in both
    commit orders (each cluster version carries [R] on its root via the
    location check, exactly the invariant {!Migration}'s flip relies on).

    The marker names the coordinator record whose root data decides the
    transaction's fate, carries the transaction's sequence number (which
    the record's outcome is compared against, see {!encode_outcome}), the
    pre-transaction root data to restore, and the absolute page writes to
    apply on roll-forward. Applying writes from the marker (rather than
    flipping to a private copy) preserves any concurrent
    {e non-conflicting} committed update that merged underneath the
    stage.

    Both encoders are deterministic — one byte string per value — which
    is what lets a decider test-and-set a root against the exact bytes
    it expects. *)

type t = {
  record : Afs_util.Capability.t;  (** The coordinator record file. *)
  seq : int;
      (** The transaction's number, unique among those decided on
          [record] and larger than every earlier one. *)
  old_root : bytes;  (** Root data a discard restores. *)
  writes : (Afs_util.Pagepath.t * bytes) list;
      (** Absolute page writes a roll-forward applies. *)
}

val prefix : string

val encode : t -> bytes

val decode : bytes -> t option
(** [None] on anything that is not a complete well-formed marker. *)

val is_marker : bytes -> bool

val record_of : bytes -> Afs_util.Capability.t option
(** The coordinator record named by a marker, if [data] is one. *)

(** {2 Coordinator record outcomes}

    A coordinator record is reused, transaction after transaction: its
    entire root data is the outcome of the newest transaction decided on
    it, [txn:<seq>:c] (committed) or [txn:<seq>:a] (aborted). A fresh
    record holds [txn:0:a]. A decision is an optimistic commit replacing
    one outcome with a later seq's, so seqs only grow on a record and no
    value ever recurs. *)

val encode_outcome : seq:int -> committed:bool -> bytes

val decode_outcome : bytes -> (int * bool) option
(** [(seq, committed)], or [None] on anything else. *)
