(** The closed-loop multi-client experiment driver.

    Spawns [clients] simulated processes, each alternating exponential
    think time with one generated transaction run through the SUT, until
    the virtual clock passes [duration_ms]. Reports throughput, abort
    rate and latency percentiles in simulated time — the same numbers for
    every backend, which is what makes the C1-style comparisons fair. *)

type config = {
  clients : int;
  duration_ms : float;
  think_ms : float;  (** Mean of the exponential think time. *)
  max_retries : int;
  seed : int;
  max_txns : int;
      (** When positive, the run is count-driven: exactly this many
          transactions are admitted across all clients and the run ends
          when the last one completes (set [duration_ms] high enough not
          to interfere). 0 means duration-driven, the default. *)
}

val default_config : config

type report = {
  sut_name : string;
  committed : int;
  given_up : int;  (** Transactions that exhausted their retry budget. *)
  attempts : int;  (** Total executions including redos. *)
  elapsed_ms : float;
  throughput_per_s : float;  (** Committed transactions per simulated second. *)
  mean_latency_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  retry_histogram : (int * int) list;
      (** [(attempts, transactions)] pairs, ascending, zero counts
          omitted: how many transactions finished (either way) after
          exactly that many executions. The final slot
          [max_retries + 1] absorbs any overshoot. *)
  local_aborts : int;
      (** Redos forced by ordinary one-shard OCC races, summed over all
          transactions (see {!Sut.exec_result}). *)
  cross_aborts : int;
      (** Redos forced cross-shard: fully staged (or prepared)
          transactions aborted at their coordinator. 0 on single-file
          backends. *)
}

val report_row : report -> string
(** Fixed-width table row (see {!header_row}). *)

val header_row : string

val retry_histogram_row : report -> string
(** The retry histogram as ["1x:412 2x:31 3x:2"]-style cells. *)

val abort_split_row : report -> string
(** The abort split as ["aborts: 12 local, 3 cross-shard"]. *)

val run :
  ?on_progress:(int -> unit) ->
  Afs_sim.Engine.t -> config -> Sut.t -> gen:Workload.generator -> report
(** Must be called with a quiescent engine; returns once the engine has
    drained. [on_progress] is called after every completed transaction
    with the completed count (committed + given up) — the hook the
    million-transaction scenario uses to run the collector at a
    deterministic cadence. It runs synchronously inside a client process
    and must not yield. *)
