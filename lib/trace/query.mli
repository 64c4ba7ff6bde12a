(** Structural queries over a recorded event stream.

    Because traces are deterministic, these results serve as test
    oracles: span structure and event counts assert {e causal} claims
    ("the uncontended commit issued exactly one test-and-set") that
    aggregate counters cannot express. All functions are pure over the
    event list, typically obtained from {!Trace.events} or a Catapult
    import. *)

type span = {
  id : int;
  parent : int;  (** 0 for root spans. *)
  kind : string;
  label : string;
  start_ms : float;
  stop_ms : float option;  (** [None] for spans never closed. *)
}

val duration : span -> float
(** Closed-span duration in virtual ms; 0 for unclosed spans. *)

val spans : Trace.event list -> span list
(** All spans, by id. Closes without a matching open (ring wrap-around)
    are ignored; unmatched opens surface with [stop_ms = None]. *)

val spans_of_kind : Trace.event list -> string -> span list

val points_of_kind : Trace.event list -> string -> Trace.payload list

val count : Trace.event list -> string -> int
(** Number of point events of the given kind. *)

val kind_counts : Trace.event list -> (string * int) list
(** Per-kind totals over points and spans, sorted by kind. *)

val slowest : Trace.event list -> int -> span list
(** The [n] longest closed spans, longest first (ties by id). *)

val self_ms : Trace.event list -> span -> float
(** Span duration minus the time covered by its direct children: the
    span's own critical-path contribution. *)

val critical_path_ms : Trace.event list -> span -> float
(** Duration of the longest root-to-descendant chain under the span. *)
