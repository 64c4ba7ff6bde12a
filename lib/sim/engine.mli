(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock. All the distributed
    pieces of the reproduction (block servers, file servers, clients,
    crashes) run as coroutine processes ({!Proc}) scheduled by this engine,
    so experiments measure protocol time (network round trips, disk
    latencies) deterministically, independent of host speed.

    Events at equal times fire in schedule order (a monotone sequence number
    breaks ties), which makes every simulation run reproducible. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, in milliseconds by convention. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t delay thunk] schedules [thunk] to run [delay] from now.
    Raises [Invalid_argument] on negative delays. *)

val run : ?until:float -> t -> unit
(** Run events until the queue empties or the clock passes [until].
    The clock is left at the time of the last executed event (or [until]). *)

val trace : t -> Afs_trace.Trace.t
(** The engine's trace handle; {!Afs_trace.Trace.null} by default.
    Components built over the engine emit their events here, so
    installing one sink instruments the whole simulation. *)

val set_trace : t -> Afs_trace.Trace.t -> unit
(** Install a trace handle (typically a ring or stream whose [now] is
    [now t], keeping every timestamp on the virtual clock). *)

val events_executed : t -> int
(** Total events executed so far; a cheap work metric for experiments. *)

val pending : t -> int
(** Events currently queued. *)
