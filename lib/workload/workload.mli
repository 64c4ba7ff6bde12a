(** Parameterised transaction generators.

    The shape mirrors the knobs the paper's claims turn on: how much a
    transaction touches (update size), how skewed access is (conflict
    probability) and how much of the work is read-only. *)

type shape = {
  nfiles : int;
  pages_per_file : int;
  read_pages : int;  (** Read-only pages per transaction. *)
  rmw_pages : int;  (** Read-modify-write pages per transaction. *)
  payload_bytes : int;  (** Size of written values. *)
  file_theta : float;  (** Zipf skew over files (0 = uniform). *)
  page_theta : float;  (** Zipf skew over pages within a file. *)
}

val small_updates : shape
(** The paper's favourable regime: one-page read-modify-writes over many
    files. *)

type generator = Afs_util.Xrng.t -> Sut.txn_spec

val make : shape -> generator
(** Distinct pages per transaction; read-only operations precede writes. *)

val setup_pages :
  Afs_core.Server.t -> shape -> initial:bytes ->
  Afs_util.Capability.t array Afs_core.Errors.r
(** Create [nfiles] files, each with [pages_per_file] children of the root
    holding [initial] — the layout every {!Sut} adapter assumes. *)

val setup_cluster :
  Afs_cluster.Cluster.t -> shape -> initial:bytes ->
  Afs_util.Capability.t array Afs_core.Errors.r
(** {!setup_pages} over a cluster: file [i] lands on the round-robin
    placement shard, built by the same direct-call sequence (so a
    one-shard cluster ends up in the same state as a bare server). *)

(** {2 The cross-shard banking mix (scenario S2)} *)

type transfer_shape = {
  accounts : int;  (** One-page balance files, in the conservation sum. *)
  objects : int;  (** Move-target files, outside the sum (0 = no moves). *)
  shards : int;  (** Must match the cluster; placement is [i mod shards]. *)
  cross_ratio : float;
      (** Fraction of transactions whose partner file lives on a
          different shard (meaningless with one shard). *)
  move_ratio : float;  (** Fraction that are renames/moves over objects. *)
  account_theta : float;  (** Zipf skew over debited accounts. *)
  amount : int;  (** Units moved per transfer. *)
}

val bank_transfers : transfer_shape
(** The S2 default: 64 accounts and 16 objects over 4 shards, half the
    transactions crossing shards. *)

val transfer : transfer_shape -> generator
(** Two-part transactions for the cross-shard backends: a balance
    transfer [(debit a; credit b)] or (with probability [move_ratio]) a
    blind-write move between object files. Requires at least two
    accounts (and, if moves are on, two objects) per shard so both the
    same-shard and cross-shard partner draws are feasible. *)

val setup_accounts :
  Afs_cluster.Cluster.t -> transfer_shape -> initial_balance:int ->
  Afs_util.Capability.t array Afs_core.Errors.r
(** Create the account then object files (one page each) round-robin on
    a {e fresh} cluster, so file [i] lands on shard [i mod shards] as
    {!transfer} assumes. *)

val total_balance : Sut.t -> transfer_shape -> int
(** Sum of all account balances via out-of-band reads — the conserved
    quantity. Callers sweep in-doubt files first. *)

(** {2 Transfers under a fault schedule (the S2 crash leg)} *)

type crash_audit = {
  committed : int;  (** Transfers acknowledged committed. *)
  killed : int;  (** Coordinators the schedule killed. *)
  rolled_forward : int;  (** Killed or failed transfers whose record committed. *)
  swept : int;  (** In-doubt participants the recovery sweep resolved. *)
  violations : string list;  (** Empty unless a fault failed or conservation broke. *)
}

(** Coordinator crash points: a kill at the first event that opens the
    decide's span, answers the decide committed, or opens the flip of
    the participant with staging index [i]. *)

val before_decide : Afs_cluster.Faults.schedule
val after_decide : Afs_cluster.Faults.schedule
val mid_flip : int -> Afs_cluster.Faults.schedule

val coordinator_kills : Afs_cluster.Faults.schedule array
(** Where a two-part transfer's coordinator may die: nowhere; before the
    first stage; before the second, which is the last and carries the
    decide (twice, weighting it as the two points it was); once the
    decide committed; before each flip it sends. *)

val crash_transfers :
  Afs_cluster.Cluster_client.t ->
  Afs_util.Capability.t array ->
  initial_balance:int ->
  Afs_cluster.Faults.schedule ->
  (Afs_util.Xrng.t * int) list ->
  crash_audit
(** [crash_transfers client accounts ~initial_balance crashes workers],
    inside a process, runs the timed schedule [crashes] while each
    [(rng, n)] worker process makes [n] transfers of 1–9 units between
    two random one-page accounts, each after a pause of up to 4 ms and
    under a random entry of {!coordinator_kills}, all through one
    coordinator traced into the schedule's tap. After 200 ms of
    quiet it reports each fault of the schedule that failed, then
    recovers as any client would — a sweep, then each killed or
    failed transfer classified by its record — and audits: a second
    sweep finds nothing in doubt, and every balance is what the definite
    outcomes give. *)
