(** Chrome trace-event ("catapult") JSON export and import.

    Exported files open directly in [about://tracing] or Perfetto.
    Rendering uses a fixed field order and fixed float formats, so
    same-seed runs produce byte-identical files. Timestamps are virtual
    milliseconds scaled to the format's microsecond [ts] field. *)

type writer
(** Incremental writer for streaming sinks: brackets the event array. *)

val writer : (string -> unit) -> writer
(** [writer write] emits the opening bracket immediately; pass the
    result's {!emit} as the trace's stream callback. *)

val emit : writer -> Trace.event -> unit

val finish : writer -> unit
(** Emit the closing bracket. The underlying channel is the caller's to
    close. *)

val to_string : Trace.event list -> string
(** Render a complete trace document in one call. *)

val parse : string -> (Trace.event list, string) result
(** Import a catapult document, sorted by sequence number. Spans
    round-trip exactly; points come back as {!Trace.Generic} payloads
    with the original kind and scalar fields. Unrecognised phase records
    are skipped. *)
