(** Deterministic traversal of hash tables.

    [Hashtbl] iteration order depends on insertion history and internal
    resizing, so any iteration whose effects reach the wire format, the
    event queue, or a report is a reproducibility hazard (lint rule D1).
    These helpers snapshot the key set and walk it in ascending
    polymorphic-compare order; they also tolerate the callback removing
    entries from the table mid-walk (removed keys are skipped). *)

val sorted_keys : ('k, 'v) Hashtbl.t -> 'k list
(** All distinct keys, ascending. *)

val sorted_int_keys : (int, 'v) Hashtbl.t -> int list
(** {!sorted_keys} for integer keys. Dense non-negative keys (block
    numbers) are ordered through a byte map instead of a comparison sort;
    anything else is sorted with [Int.compare]. *)

val iter_sorted : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [Hashtbl.iter] in ascending key order over a snapshot of the keys. *)

val fold_sorted : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [Hashtbl.fold] in ascending key order over a snapshot of the keys. *)
