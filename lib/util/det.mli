(** Deterministic traversal of hash tables.

    [Hashtbl] iteration order depends on insertion history and internal
    resizing, so any iteration whose effects reach the wire format, the
    event queue, or a report is a reproducibility hazard (lint rule D1).
    These helpers snapshot the key set and walk it in ascending
    polymorphic-compare order; they also tolerate the callback removing
    entries from the table mid-walk (removed keys are skipped). *)

val sorted_int_keys : (int, 'v) Hashtbl.t -> int list
(** All distinct keys, ascending, with no polymorphic compare: dense
    non-negative keys (block numbers) through a byte map, anything else
    sorted with [Int.compare]. Prefer it to the walks below on int keys. *)

val iter_sorted : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [Hashtbl.iter] in ascending key order over a snapshot of the keys. *)

val fold_sorted : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [Hashtbl.fold] in ascending key order over a snapshot of the keys. *)
