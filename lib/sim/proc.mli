(** Simulated processes: coroutines over the {!Engine} clock, implemented
    with OCaml 5 effect handlers.

    A process is an ordinary OCaml function that may call {!delay},
    {!suspend} and the blocking {!Ivar.read}. When it blocks, its
    continuation is parked and the engine moves on; virtual time only
    advances through {!delay} and event scheduling, never through real
    time. With the engine's trace enabled, each resumption — the process
    running until it next blocks — is a host-costed section of kind
    [proc.resume] ({!Afs_trace.Trace.costed}). *)

exception Killed
(** Raised inside a process that is resumed after {!kill}. *)

type handle
(** Identity of a spawned process. *)

val spawn : ?name:string -> Engine.t -> (unit -> unit) -> handle
(** [spawn engine body] schedules [body] to start at the current virtual
    time. Uncaught exceptions other than {!Killed} escape the engine's
    [run] loop — tests rely on that to surface bugs. *)

val self : unit -> handle
(** The running process; raises [Invalid_argument] outside one. *)

val delay : float -> unit
(** Advance virtual time by the given amount. Must be called from inside a
    process; raises [Invalid_argument] otherwise. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the current process; [register resume] is
    called immediately with a one-shot [resume] function that, when
    invoked (typically from another process or an engine event), schedules
    the parked process to continue with the given value. *)

val kill : handle -> unit
(** Marks the process dead: the next time it would be resumed it raises
    {!Killed} instead, unwinding the coroutine. Used by crash injection. *)

val alive : handle -> bool

val joinable : Engine.t -> ((unit -> unit) -> handle) * (unit -> unit)
(** [let spawn_joined, join_all = joinable engine] returns a spawner that
    tracks completion, and a blocking [join_all] that suspends the calling
    process until every tracked process has finished. *)
