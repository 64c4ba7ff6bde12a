(** Deterministic fault schedules: labeled actions triggered at virtual
    times — one schedule drives tests, the failover smoke and the [r1]
    bench — and process kills triggered by trace events, so every event
    a component emits is a crash site, enumerable from a fault-free run.

    Every timed action runs inside a fresh simulated process, so it may
    block (RPC calls — a kill-and-promote action does). With a [seed]
    and a positive [jitter_ms], each trigger time gets a uniform jitter
    in [0, jitter_ms) drawn at scheduling time in call order — the whole
    schedule is a pure function of the seed and the [at] call sequence. *)

type t

val create : ?seed:int -> ?jitter_ms:float -> Afs_sim.Engine.t -> t

val set_trace : t -> Afs_trace.Trace.t -> unit
(** Every firing, timed or a kill, emits a [fault.fire] point (label +
    time) here, in firing order. *)

val at : t -> ms:float -> label:string -> (unit -> unit) -> unit
(** Schedule [fn] at [ms] from now (plus jitter). *)

val tap : t -> Afs_trace.Trace.t
(** A sink on the engine clock for the component whose events key
    {!killing} (e.g. [Txn.create ~trace]); it keeps nothing. *)

val killing : t -> label:string -> (Afs_trace.Trace.event -> bool) -> (unit -> 'a) -> 'a
(** [killing t ~label pred f] runs [f] with a kill armed for the calling
    process: the first event this process emits on a {!tap} that [pred]
    accepts raises {!Afs_sim.Proc.Killed} inside the emitting call, so
    nothing the process would do after it happens. [pred] sees only this
    process's events; the kill fires at most once, and is disarmed when
    [f] returns or raises. *)
