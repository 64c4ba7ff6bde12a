(** The system-under-test abstraction the workload driver runs against.

    A transaction is a file plus a list of page operations; [Rmw] makes
    the written value depend on the read one, which is what lets the
    test-suite check serialisability by invariant (conserved totals) on
    every backend. Adapters exist for the Amoeba file service (over
    simulated RPC, to one server or a shard cluster, the cluster with the
    cross-shard coordinator), its 2PC baseline, the XDFS-style locking
    baseline and the SWALLOW-style timestamp baseline.

    Every backend's [exec] is one retry loop plus a function that makes
    one attempt. An attempt ends committed, in a local abort, in a cross
    abort, or in a back-off; anything else is {!Fatal}. An abort redoes
    at once; a back-off (a lock hint, a crashed host, a prepare window)
    waits 5 ms of simulated time, then redoes. Every redo is an attempt,
    and [max_retries] bounds them all; the loop gives up before waiting.
    One counting rule holds for every backend: a failed attempt is an
    abort unless it backed off.

    The Amoeba attempts open a version and read, then write and commit —
    two messages for the first attempt, one per redo, because a commit
    that loses validation answers with the redo's opening
    ({!Afs_txn.Txn.commit_part}). Such a redo happens inside the
    attempt and counts in the loop's attempt count; the last allowed
    attempt asks for no redo, so giving up leaves no version open. *)

exception Fatal of { where : string; error : Afs_core.Errors.t }
(** A reply the workload can never legitimately see: a harness bug or
    corrupted protocol state, never an outcome a backend may report.
    Raised so it escapes the engine loop and fails the run loudly
    instead of miscounting; carries the protocol {!Afs_core.Errors.t}
    (lint rule P1: no stringly [failwith] in protocol paths). *)

type op =
  | Read of int
  | Write of int * bytes
  | Rmw of int * (bytes -> bytes)  (** Read page, write the transform. *)

type txn_spec = {
  file : int;
  ops : op list;
  parts : (int * op list) list;
      (** Non-empty makes this a multi-file transaction — one
          [(file, ops)] participant per entry, honoured only by the
          cluster backends ({!afs_cluster}, {!afs_txn}, {!afs_twopc});
          [file]/[ops] are ignored then. The other backends refuse
          multi-part specs with {!Fatal}. *)
}

type exec_result = {
  committed : bool;
  attempts : int;  (** 1 = first try succeeded. *)
  local_aborts : int;
      (** Failed attempts that neither backed off nor aborted
          cross-shard: ordinary one-shard races, a redo inside an
          Amoeba attempt included. *)
  cross_aborts : int;
      (** Attempts aborted cross-shard: a fully staged (or past its
          first participant, prepared) transaction aborted at its
          coordinator. Always 0 on single-file specs. *)
}

type t = {
  name : string;
  exec : txn_spec -> max_retries:int -> exec_result;
      (** Runs one transaction to completion, including the backend's own
          waiting/redo policy. Inside a simulation process this advances
          virtual time. *)
  stats : unit -> (string * int) list;
      (** {!afs_remote}: its server's counters; the cluster backends:
          the cluster's, then each shard server's prefixed
          ["shard-<i>."]; the locking baselines keep none ([[]]). *)
  read_page : int -> int -> bytes;
      (** [read_page file page] outside any transaction, for invariant
          checks. *)
}

val afs_remote :
  ?name:string ->
  Afs_rpc.Remote.conn ->
  fallback:Afs_core.Server.t ->
  files:Afs_util.Capability.t array ->
  t
(** Over simulated RPC on a fixed connection (one server, or several
    serving one store): an [Open] batch of the reads, then a [Version]
    batch of the computed writes and [Commit] — and, per redo, one more
    [Version] batch computed from the reads the conflicted commit's
    answer carried. [Conflict] is a local abort; [Locked_out] and
    [Store_failure] back off. [fallback] is only used for out-of-band
    invariant reads. *)

val afs_txn :
  ?trace:Afs_trace.Trace.t ->
  Afs_cluster.Cluster_client.t ->
  files:Afs_util.Capability.t array ->
  t
(** Over a shard cluster, location-transparently. A single-file spec is
    {!afs_remote}'s attempt run by {!Afs_txn.Txn.update}: inside the
    cluster client's routing ({!Afs_cluster.Cluster_client.routed}: a
    local port lookup, no simulated time) instead of on a fixed
    connection, each commit's load credited to its shard, redoing in
    one message. A file held by another transaction's marker is waited
    out (one held request on its record) and the update tried again; a
    wait is no attempt. A bare server is the one-shard case, so a
    one-shard cluster reports bit-identically to {!afs_remote} on the
    same engine and seed. Tolerates concurrent migrations: a [Moved]
    answer is chased, and invariant reads follow tombstones.

    A multi-part spec runs lib/txn's optimistic coordinator
    (stage/decide/flip, {!Afs_txn.Txn.exec}): a participant stage
    losing an ordinary one-shard race is a local abort, a staged
    transaction force-aborted at the coordinator record a cross abort,
    and a transport failure before anything was staged a back-off.
    [trace] is the coordinator's. *)

val afs_cluster : Afs_cluster.Cluster_client.t -> files:Afs_util.Capability.t array -> t
(** {!afs_txn} under another name, without a coordinator trace. *)

val afs_twopc : Afs_cluster.Cluster_client.t -> files:Afs_util.Capability.t array -> t
(** The blocking two-phase-commit baseline over the same cluster:
    participant versions are prepared in canonical file order (each
    shard's host parking the run, base lock held), then decided.
    Competitors colliding with a prepare window back off on
    [Store_failure] — the lock-holding cost {!afs_txn} avoids. A
    conflict at the first participant is a local abort, past it a cross
    abort. *)

val twopl :
  remote:Afs_sim.Engine.t ->
  Afs_baseline.Twopl.t -> pages_per_file:int -> retry_wait_ms:float -> t
(** Lock denials wait [retry_wait_ms] of simulated time and retry,
    prodding vulnerable holders; a bounded number of waits, then abort
    and redo (a local abort). Must run inside a simulation process. Every operation is
    one request to a serialised RPC endpoint on [remote] with the same
    cost model as {!afs_remote} — the fair-comparison configuration,
    under which lock state genuinely interleaves between clients. *)

val tsorder : remote:Afs_sim.Engine.t -> Afs_baseline.Tsorder.t -> pages_per_file:int -> t
(** Late writes abort immediately and redo with a fresh timestamp (a
    local abort).
    [remote] as in {!twopl}. *)
