(** The file service as a remote service: a request ADT over {!Rpc}, a
    host wrapper around a {!Afs_core.Server}, and a client stub with
    failover.

    A client connection holds an ordered list of hosts; when one fails to
    respond it retries the request at the next ("Clients do not have to
    wait until the server is restored, because they can use another
    server", §3.1 — several servers can serve the same store). *)

type request =
  | Create_file of bytes
  | Current_version of Afs_util.Capability.t
  | Create_version of {
      file : Afs_util.Capability.t;
      respect_hints : bool;
      updater_port : int;
    }
  | Read_page of Afs_util.Capability.t * Afs_util.Pagepath.t
  | Write_page of Afs_util.Capability.t * Afs_util.Pagepath.t * bytes
  | Insert_page of {
      version : Afs_util.Capability.t;
      parent : Afs_util.Pagepath.t;
      index : int;
      data : bytes;
    }
  | Remove_page of { version : Afs_util.Capability.t; parent : Afs_util.Pagepath.t; index : int }
  | Page_info of Afs_util.Capability.t * Afs_util.Pagepath.t
  | Commit of Afs_util.Capability.t
  | Abort_version of Afs_util.Capability.t
  | Destroy_file of Afs_util.Capability.t
  | Validate_cache of { file : Afs_util.Capability.t; basis_block : int }
  | Txn_mark of Afs_util.Capability.t
      (** The file's current root data, marker and all: how a transaction
          resolver sees past the cluster wrapper's in-doubt trap (the
          wrapper still answers [Moved] for migrated-away files). *)
  | Txn_open of { file : Afs_util.Capability.t; reads : Afs_util.Pagepath.t list }
      (** [Create_version] minus the in-doubt trap, fused with the root
          read and the listed page reads: answers [Opened]. All reads run
          inside the fresh version (so they are in its read set), and the
          cluster wrapper still applies the [Moved] check. *)
  | Txn_seal of {
      version : Afs_util.Capability.t;
      root : bytes;
      writes : (Afs_util.Pagepath.t * bytes) list;
    }
      (** Root write, page writes and the ordinary optimistic commit in
          one message — pure batching of the individual calls, with their
          exact validation semantics. *)
  | Txn_cas of {
      file : Afs_util.Capability.t;
      expected : bytes;
      root : bytes;
      writes : (Afs_util.Pagepath.t * bytes) list;
    }
      (** A whole root test-and-set in one round trip: open a version,
          read the root, and — iff it equals [expected] — write [root]
          plus [writes] and commit. On mismatch the current root data
          comes back instead. Still an ordinary optimistic commit;
          bypasses the cluster wrapper's in-doubt trap like [Txn_open]. *)
  | Prepare of Afs_util.Capability.t  (** {!Afs_core.Server.prepare}. *)
  | Decide of { version : Afs_util.Capability.t; commit : bool }
      (** {!Afs_core.Server.decide}. *)
  | Ship of { epoch : int; seq : int; ops : Afs_core.Store.op list }
      (** One commit-stream batch for a replica to apply; rejected by a
          plain file server. Local replica sets feed directly through the
          publish gate — this message is the wire form for a replica
          hosted behind its own RPC endpoint. *)
  | Promote of { expected_epoch : int }
      (** Test-and-set on the replica's epoch register: wins (and the
          replica becomes promotable) iff its current epoch is exactly
          [expected_epoch]. *)
  | Replica_watermark  (** Read back epoch and shipped/applied seqs. *)

val request_kind : request -> string
(** Short operation name, used as the [op] label in RPC trace events. *)

type value =
  | Cap of Afs_util.Capability.t
  | Data of bytes
  | Opened of {
      version : Afs_util.Capability.t;
      root : bytes;
      pages : bytes list;  (** Aligned with the request's [reads]. *)
    }
  | Unit
  | Path of Afs_util.Pagepath.t
  | Info of { nrefs : int; dsize : int }
  | Validation of Afs_core.Cache.validation
  | Watermark of { epoch : int; shipped : int; applied : int }

type response = (value, Afs_core.Errors.t) result

type host

val host :
  ?latency_ms:float ->
  ?proc_ms:float ->
  ?disks:Afs_disk.Disk.t list ->
  ?wrap:((request -> response) -> request -> response) ->
  ?group_commit:int ->
  Afs_sim.Engine.t ->
  name:string ->
  Afs_core.Server.t ->
  host
(** [wrap] interposes on the host's handler (it receives the base
    dispatch applied to the server). The whole wrapped handler still runs
    atomically within one simulated event, so a wrapper's pre/post work is
    indivisible from the request it decorates — the property the cluster's
    location check depends on.

    [group_commit] (default 1, must be ≥ 1; [Invalid_argument] otherwise)
    is the commit batch window: up to that many queued [Commit] requests
    drain together into one {!Afs_core.Server.commit_batch} run. 1 installs
    no batcher at all, preserving the paper's one-at-a-time behaviour
    exactly. *)

val crash_host : host -> unit
(** RPC endpoint dies and the server loses its volatile state (page cache,
    uncommitted-version table). *)

val restart_host : host -> unit
val host_server : host -> Afs_core.Server.t
val host_up : host -> bool

type conn

val connect : ?balance:bool -> host list -> conn
(** At least one host. Requests go to the first responsive host, sticky
    after a failover; with [balance] they rotate round-robin across hosts
    instead — several servers serving the same store, any of which may
    carry out any commit (§5.2). *)

(** {2 Stub operations — must run inside a simulation process} *)

val create_file : conn -> bytes -> Afs_util.Capability.t Afs_core.Errors.r
val current_version : conn -> Afs_util.Capability.t -> Afs_util.Capability.t Afs_core.Errors.r

val create_version :
  ?respect_hints:bool -> ?updater_port:int -> conn -> Afs_util.Capability.t ->
  Afs_util.Capability.t Afs_core.Errors.r

val read_page :
  conn -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Afs_core.Errors.r

val write_page :
  conn -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes -> unit Afs_core.Errors.r

val insert_page :
  conn -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int -> data:bytes ->
  Afs_util.Pagepath.t Afs_core.Errors.r

val remove_page :
  conn -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int ->
  unit Afs_core.Errors.r

val page_info :
  conn -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> (int * int) Afs_core.Errors.r
(** [(nrefs, dsize)] of the page — structure discovery without recording
    any access flags (the migration copy walk uses it). *)

val commit : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r
val abort_version : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r
val destroy_file : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r

val validate_cache :
  conn -> file:Afs_util.Capability.t -> basis_block:int ->
  Afs_core.Cache.validation Afs_core.Errors.r

val txn_mark : conn -> Afs_util.Capability.t -> bytes Afs_core.Errors.r
(** May answer [Moved] behind a cluster wrapper — callers chase it. *)

val txn_open :
  ?reads:Afs_util.Pagepath.t list ->
  conn -> Afs_util.Capability.t ->
  (Afs_util.Capability.t * bytes * bytes list) Afs_core.Errors.r
(** A fresh version, its root data and the [reads] pages (in order) in one
    message; every read runs inside the version, so a conflicting
    committed update collides with this caller's seal. May answer [Moved]
    behind a cluster wrapper — callers chase it. *)

val txn_seal :
  conn -> Afs_util.Capability.t -> root:bytes ->
  (Afs_util.Pagepath.t * bytes) list -> unit Afs_core.Errors.r
(** Root write, page writes and the ordinary optimistic commit in one
    message — pure batching of the individual calls. *)

val txn_cas :
  conn -> Afs_util.Capability.t -> expected:bytes -> root:bytes ->
  (Afs_util.Pagepath.t * bytes) list ->
  [ `Swapped | `Mismatch of bytes ] Afs_core.Errors.r
(** Root test-and-set in one round trip (see {!type:request}); [`Mismatch]
    carries the current root data. May answer [Moved] behind a cluster
    wrapper — callers chase it. *)

val prepare : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r
val decide : conn -> Afs_util.Capability.t -> commit:bool -> unit Afs_core.Errors.r
