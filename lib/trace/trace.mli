(** Deterministic structured tracing keyed on virtual time.

    A trace records typed point events and nested spans against the
    simulation clock ([now] is invariably [Engine.now]), never a wall
    clock, so same-seed runs yield byte-identical traces — the property
    that lets trace output double as a test oracle. Emission charges no
    simulated time: tracing observes a run without perturbing it.

    Three sinks: {!null} (disabled; one branch per emission site),
    {!ring} (bounded in-memory buffer keeping the newest window) and
    {!stream} (a callback per event, e.g. for incremental JSON export). *)

type value = Int of int | Float of float | Str of string | Bool of bool

(** Typed event payloads, one constructor per instrumented mechanism. *)
type payload =
  | Proc_spawn of { proc : string }
  | Proc_resume of { proc : string }
  | Crash of { component : string; what : string }
      (** [what] is ["crash"], ["restart"] or ["recover"]. *)
  | Rpc_send of { server : string; op : string }
  | Rpc_recv of { server : string; op : string }
  | Rpc_timeout of { server : string; op : string }
  | Disk_read of { media : string; block : int; bytes : int; cost_ms : float }
  | Disk_write of { media : string; block : int; bytes : int; cost_ms : float }
  | Block_lock of { block : int; won : bool }
  | Test_and_set of { block : int; won : bool }
      (** One commit-time test-and-set of a base version's commit
          reference; [won] iff the reference was clear and is now claimed
          for this pipeline run (it becomes durable at the run's
          publish, which can still fail or be vetoed). *)
  | Commit_phase of { vblock : int; phase : string }
      (** [phase] is ["pretest"], ["serialise"] or ["merge"]. *)
  | Commit_outcome of { vblock : int; outcome : string }
      (** [outcome] is ["fastpath"], ["merged"], ["conflict"],
          ["shortcircuit"] or ["decided_abort"]. The success outcomes
          (["fastpath"], ["merged"]) are emitted at publish, once the
          commit reference is durable; a failed publish emits none. *)
  | Commit_batch of { size : int; winners : int; aborts : int }
      (** One group-commit batch through the validate → merge → publish
          pipeline: [size] members attempted, [winners] published in one
          amortised stable-storage leg, [aborts] doomed by conflict. *)
  | Cache_validate of { file_obj : int; basis : int; current : int; invalid : int }
  | Cache_drop of { file_obj : int; path : string }
  | Stable_leg of { leg : string; server : int; block : int; cost_ms : float }
      (** One leg of a stable-pair operation: ["shadow"] (A→B), ["local"]
          (back to A), ["repair"], ["companion_read"]. *)
  | Lock_acquire of { obj : int; txn : int; mode : string }
  | Lock_wait of { obj : int; txn : int; holder : int }
  | Lock_steal of { obj : int; txn : int; victim : int }
  | Rollback of { txns : int }
  | Intentions_replay of { count : int }
  | Recovered_files of { count : int }
  | Gc_phase of { phase : string; count : int }
  | Ship of { seq : int; ops : int; epoch : int }
      (** One commit-stream batch cut at the primary's publish gate:
          [seq] is its position in the shard's total order, [ops] the
          store operations it carries, [epoch] the primary epoch it was
          shipped under. *)
  | Ship_apply of { seq : int; ops : int; lag_ms : float }
      (** Asynchronous replica application of batch [seq]; [lag_ms] is
          virtual time between ship and apply — the replication lag. *)
  | Promote of { shard : int; epoch : int; watermark : int }
      (** A replica won promotion: test-and-set on the epoch register
          succeeded, [watermark] is the last applied batch seq. *)
  | Fence of { epoch : int; stale : int }
      (** A deposed primary's publish lost the test-and-set: it carried
          stale epoch [stale] against current [epoch]. *)
  | Txn_stage of { txn : int; file_obj : int }
      (** Cross-shard transaction [txn] staged its marker on participant
          file [file_obj] (an ordinary optimistic commit of the root). *)
  | Txn_decide of { txn : int; committed : bool }
      (** The coordinator record's pending state was replaced — the
          transaction-wide decision, itself one optimistic commit. *)
  | Txn_flip of { txn : int; file_obj : int; writes : int }
      (** A resolver rolled participant [file_obj] forward, applying
          [writes] staged page writes from the marker. *)
  | Txn_resolve of { txn : int; file_obj : int; action : string }
      (** A resolver acted on an in-doubt participant: [action] is
          ["forward"], ["back"] or ["force_abort"]. *)
  | Generic of { kind : string; fields : (string * value) list }
      (** Escape hatch; also the representation of imported events. *)

val kind_of_payload : payload -> string
(** Stable dotted kind, e.g. ["commit.test_and_set"]; the key used by
    {!Query} and the exporters. *)

val fields_of_payload : payload -> (string * value) list
(** The payload's arguments as ordered key/value pairs. *)

type event =
  | Point of { seq : int; at_ms : float; span : int; payload : payload }
  | Span_open of { seq : int; at_ms : float; id : int; parent : int; kind : string; label : string }
  | Span_close of { seq : int; at_ms : float; id : int }

val event_seq : event -> int

type t

val null : t
(** The disabled trace: every operation is a no-op, {!enabled} is false.
    Instrumented modules default to it, so an untraced run pays one
    branch per emission site and allocates nothing. *)

val ring : ?capacity:int -> ?host:(unit -> float) -> now:(unit -> float) -> unit -> t
(** Bounded in-memory sink: once [capacity] (default 65536) events are
    held, each new event overwrites the oldest ({!dropped} counts them).
    [host] turns host cost on ({!host_costs}). *)

val stream : ?host:(unit -> float) -> now:(unit -> float) -> (event -> unit) -> t
(** Streaming sink: the callback receives each event as it is emitted.
    [host] turns host cost on ({!host_costs}). *)

val enabled : t -> bool
(** Guard for hot paths: skip payload construction entirely when false. *)

val point : t -> payload -> unit
(** Record an instantaneous event under the current ambient span. *)

val open_span : t -> ?parent:int -> kind:string -> ?label:string -> unit -> int
(** Begin a span and return its id (0 on a disabled trace). [parent]
    defaults to the ambient span. Use the explicit form for sections
    that suspend (RPC round trips, driver transactions): the ambient
    stack must not be held across a process switch. *)

val close_span : t -> int -> unit

val span : t -> kind:string -> ?label:string -> (unit -> 'a) -> 'a
(** [span t ~kind f] runs [f] inside a fresh ambient span. Only for
    synchronous sections (no [Proc.delay]/[suspend] inside), otherwise
    interleaved processes would inherit the wrong parent. On a sink with
    host cost on, the span's allocation and host time are added to its
    kind's {!host_costs}. *)

(** {2 Host cost}

    A sink built with [~host:clock] also keeps, per span kind, what every
    {!span} of that kind spent on the host: minor-heap words
    ([Gc.minor_words]) and [clock] time (the caller's monotonic clock, in
    µs). Each is kept total and own, net of the child spans inside. The
    events carry none of it, so a trace stays deterministic. The words
    allocated while no span is open are kept too ({!outside_words}): the
    spans' own words and the outside words add up to every word allocated
    since the sink was built. That holds by construction, whatever the
    spans cover, as long as they nest; checking the sum finds misnested
    spans and nothing else. A probe allocates nothing. *)

type host_cost = {
  kind : string;
  spans : int;  (** Spans of this kind closed so far. *)
  own_words : float;
  total_words : float;
  own_us : float;
  total_us : float;
}

val costing : t -> bool
(** Whether the sink keeps host cost: the guard for {!costed} sites on
    hot paths, so a run without it builds no closure. *)

val costed : t -> kind:string -> (unit -> 'a) -> 'a
(** [costed t ~kind f] runs [f], a synchronous section, and adds its
    host cost to [kind]'s row like a {!span} of that kind, but emits no
    event and leaves the ambient span alone: the section may open spans
    that outlive it. Without host cost it is [f ()]. *)

val host_costs : t -> host_cost list
(** One row per span kind seen, sorted by kind; [[]] unless host cost is
    on. *)

val outside_words : t -> float
(** Words allocated while no span was open, since the sink was built;
    [0.] unless host cost is on. *)

val events : t -> event list
(** Ring-sink contents, oldest first; [[]] for null and stream sinks. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val events_emitted : t -> int
(** Total events emitted to this trace (including ones the ring has
    since dropped); the bench overhead metric. *)
