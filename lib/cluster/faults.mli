(** Deterministic fault schedules: entries that {!pp} prints on one line
    and {!run} fires, the same entries at the same virtual times on every
    run (randomness belongs to whoever builds the schedule). Each firing
    is logged ({!fired}) and emits one [fault.fire] point on the engine's
    trace: the printed [entry], the time it fired ([at_ms]) and its
    [outcome]. *)

type matcher =
  | Any
  | Span of string * string option  (** A span of this kind opening, with this label if given. *)
  | Point of string * string * Afs_trace.Trace.value
      (** A point of this kind with this field value, e.g.
          [Point ("txn.decide", "committed", Bool true)]. *)

type shard_fault =
  | Crash_shard of { shard : int; down_ms : float }  (** Crash, wait, recover from the store. *)
  | Fail_over of { shard : int; after_ms : float }
      (** Crash the primary's host, wait, then {!Cluster.promote}. *)

type entry =
  | At of float * shard_fault  (** The fault, this many ms after {!run} is called. *)
  | Kill_at of int * matcher
      (** Raise {!Afs_sim.Proc.Killed} inside the emitting call at the
          [n]th ([n] ≥ 1) event the calling process emits on a {!tap}
          that the matcher accepts. *)

type schedule = entry list

val pp : schedule Fmt.t
(** One line: {v [@40ms -> crash shard 0 for 10ms; #1 span txn.decide -> kill] v} *)

type t

val create : Cluster.t -> t

val tap : t -> Afs_trace.Trace.t
(** A sink, keeping nothing, for the component whose events key the
    [Kill_at] entries (e.g. [Txn.create ~trace]): each is a crash site. *)

val run : t -> schedule -> (unit -> 'a) -> 'a
(** [run t schedule f] schedules the [At] entries, each to fire in a
    fresh process, and runs [f] with the [Kill_at] entries armed for the
    calling process, each to fire at most once and all disarmed when [f]
    returns or raises. A count below 1 or a negative time raises
    [Invalid_argument] before any entry is scheduled. *)

type firing = { entry : entry; at_ms : float; outcome : (string, string) result }

val fired : t -> firing list
(** Every firing so far, oldest first: [Error] if a recovery or promotion failed. *)
