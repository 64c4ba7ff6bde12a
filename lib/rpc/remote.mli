(** The file service as a remote service: a request ADT over {!Rpc}, a
    host wrapper around a {!Afs_core.Server}, and a client stub with
    failover.

    A client connection holds an ordered list of hosts; when one fails to
    respond it retries the request at the next ("Clients do not have to
    wait until the server is restored, because they can use another
    server", §3.1 — several servers can serve the same store).

    Bytes cross this boundary shared, in both directions, under
    {!Afs_core.Store.t}'s ownership rule: a request's data ([Write],
    [Insert], [Swap], [Create_file]) is handed over and never changed by
    its sender, and a reply's bytes ([reads], [Guard_failed], [Marked],
    [Data]) are the server's own page data, which the client must not
    change. *)

(** The version a batch runs against. *)
type target =
  | Open of Afs_util.Capability.t
      (** A fresh version of the file: {!Afs_core.Server.create_version}
          with no soft-lock hints, which stay server-side (§5.3:
          {!Afs_core.Client.update}, {!Afs_core.Superfile}). *)
  | Current of Afs_util.Capability.t
      (** The file's committed version: read-only, because the server
          refuses writes and commits on committed versions. *)
  | Version of Afs_util.Capability.t  (** A version the caller already holds. *)

(** One step of a batch: an existing call on the batch's version. *)
type step =
  | Read of Afs_util.Pagepath.t
      (** {!Afs_core.Server.read_page}; its data joins the answer's [reads]. *)
  | Write of Afs_util.Pagepath.t * bytes  (** {!Afs_core.Server.write_page}. *)
  | Insert of { parent : Afs_util.Pagepath.t; index : int; data : bytes }
      (** {!Afs_core.Server.insert_page}: the new page is
          [Pagepath.child parent index]. *)
  | Remove of { parent : Afs_util.Pagepath.t; index : int }
      (** {!Afs_core.Server.remove_page}. *)
  | Info of Afs_util.Pagepath.t
      (** {!Afs_core.Server.page_info}: the page's [(nrefs, dsize)] joins
          the answer's [infos] — structure discovery that records no
          access flags. *)
  | Commit  (** The ordinary optimistic {!Afs_core.Server.commit}. *)
  | Abort  (** {!Afs_core.Server.abort_version}. *)
  | Redo of Afs_util.Capability.t * Afs_util.Pagepath.t list
      (** Allowed only right after the batch's final [Commit]: if that
          commit loses validation, open the file afresh with the [Open]
          batch of [Read] of the root and of these pages — the redo's
          opening, sent through the host's whole handler as a client's
          would be — and answer [Reopened]. *)
  | Swap of {
      file : Afs_util.Capability.t;
      expected : bytes;
      writes : (Afs_util.Pagepath.t * bytes) list;
    }
      (** The root test-and-set, on any file of the same server, in the
          same handler event: on a fresh version of [file], iff its root
          is [expected], apply [writes] and commit. A different root
          answers [Guard_failed] and ends the batch. No version of [file]
          is left open. *)

type request =
  | Create_file of bytes
  | Destroy_file of Afs_util.Capability.t
  | Batch of { target : target; steps : step list }
      (** A short program of version operations, run atomically in one
          handler event against one version (see {!batch}). *)
  | Await of { file : Afs_util.Capability.t; until : bytes list; budget_ms : float }
      (** The root data of the file's committed version, held by the
          host until it is worth answering (see {!await}). *)
  | Prepare of Afs_util.Capability.t
      (** 2PC phase one, {!Afs_core.Server.prepare}: the host parks the
          run's answer under this exact capability, on the queue the
          optimistic protocol waits in too. *)
  | Decide of { version : Afs_util.Capability.t; commit : bool }
      (** Phase two: answer the run parked under [version]. With none
          (never prepared, decided, lost in a crash, or another
          capability) the host presumes abort: [commit = true] fails with
          [Store_failure]. *)

type batch_answer =
  | Ran of { version : Afs_util.Capability.t; reads : bytes list; infos : (int * int) list }
      (** Every step ran: the batch's version, the data of its [Read]
          steps and the [(nrefs, dsize)] of its [Info] steps, in order. *)
  | Guard_failed of bytes  (** A [Swap] step found this root instead. *)
  | Reopened of { version : Afs_util.Capability.t; reads : bytes list }
      (** The [Commit] lost validation and the [Redo] opened [version]:
          the data of its reads, the root's first. *)
  | Marked of bytes
      (** Behind a cluster wrapper: an [Open] batch (or a redo's opening)
          that begins by reading the root found a cross-shard transaction
          marker there, these bytes. Nothing was opened. *)

type value =
  | Cap of Afs_util.Capability.t
  | Data of bytes
  | Batched of batch_answer
  | Unit

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
    is the commit batch window: up to that many queued commits —
    [Version] batches whose last step is [Commit], or [Commit] then
    [Redo] — drain together. Each batch member's other
    steps run first, in queue order; a member whose steps fail answers
    alone, and the rest commit in one {!Afs_core.Server.commit_batch}
    run, after which each member that lost validation runs its redo
    ({!Rpc.Batching}). 1 installs no batcher at all, preserving the
    paper's one-at-a-time behaviour exactly.

    Without a window ([group_commit] 1) the host serves one kind of
    request first ({!Rpc.First}): the OCC loop's commit, a
    [Version] batch whose steps end [Commit; Redo _]. If it loses
    validation its answer is the client's next attempt, so serving it
    ahead of new openings keeps the opening queue out of every attempt's
    validation window, and conflicts rare. Among themselves such
    commits keep their arrival order, and so does everything else:
    openings, plain commits, seals, flips, [Await] and
    [Create_file]. A host with a window keeps one FIFO queue: serving
    commits first would take each as soon as the server frees up, and
    leave none queued to form the next batch.

    Every host holds [Await] requests ({!Rpc.holding}): see {!await}. *)

val crash_host : host -> unit
(** RPC endpoint dies, the host forgets its parked 2PC runs, and the
    server loses its volatile state (page cache, store locks,
    uncommitted-version table). *)

val restart_host : host -> unit
val host_server : host -> Afs_core.Server.t
val host_up : host -> bool

val requests_served : host -> int
(** Requests the host has answered, a group-commit batch counting each
    member ({!Rpc.requests_served}). *)

val redos_served : host -> int
(** Conflicted commits the host answered with their redo's opening
    ([Reopened]); each saved the client one message. *)

type conn

val connect : ?balance:bool -> host list -> conn
(** At least one host. Requests go to the first responsive host, sticky
    after a failover; with [balance] they rotate round-robin across hosts
    instead — several servers serving the same store, any of which may
    carry out any commit (§5.2). *)

(** {2 Stub operations — must run inside a simulation process} *)

val create_file : conn -> bytes -> Afs_util.Capability.t Afs_core.Errors.r
val destroy_file : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r

val message_cap : int
(** 32 768: the paper's RPC carries at most 32K bytes per message. A
    batch whose [Write] and [Swap] data exceeds it, or whose [Read]
    replies add up to more, is refused with [Message_too_large] — except
    a [Redo] whose reads would exceed it, which answers a plain
    [Conflict] and leaves no version open. *)

val batch :
  conn -> target -> step list -> batch_answer Afs_core.Errors.r
(** Run [steps] in order against [target]'s version in one message. Each
    step is the ordinary call with its ordinary validation; the batch
    stops at the first error (answered as the batch's error) or failed
    [Swap], and obeys {!message_cap}. An error or a failed [Swap] abandons
    a version the batch opened itself ([Open]) — the caller never learns
    its capability — while a successful [Open] batch without [Commit]
    hands its version over, and so does a [Reopened] answer. A redo that
    fails answers the error a fresh [Open] batch would have met ([Moved],
    say); no version is left open then.
    Behind a cluster wrapper an [Open] or [Current] batch may answer
    [Moved] — callers chase it — and an [Open] batch must begin by
    reading the root: one that does not is refused, and one whose root
    holds a transaction marker answers [Marked]. Other batches pass the
    in-doubt trap. *)

val on_version :
  conn -> Afs_util.Capability.t -> step list ->
  (bytes list * (int * int) list) Afs_core.Errors.r
(** {!batch} on a [Version] the caller holds, for steps that answer
    [Ran] (no [Redo] or [Swap]): its [reads] and [infos].
    A [Version] batch passes a cluster wrapper unchecked, so it never
    answers [Moved]. *)

val abandon : conn -> Afs_util.Capability.t -> unit
(** Abort a version the caller holds, in one message, and ignore the
    answer: whatever it says, the caller is done with the version. *)

val await :
  conn -> Afs_util.Capability.t -> until:bytes list -> budget_ms:float ->
  bytes Afs_core.Errors.r
(** The root data of the file's committed version, as soon as it is worth
    knowing, in one request. If the root is one of [until], or
    [budget_ms] is not positive, the host answers at once. Otherwise it
    holds the request without staying busy, and answers the new root as
    soon as a commit changes it, or the unchanged root once [budget_ms]
    have passed. A crash of the host fails the request like any other.
    Behind a cluster wrapper it passes the in-doubt trap, but may answer
    [Moved]. *)

val prepare : conn -> Afs_util.Capability.t -> unit Afs_core.Errors.r
val decide : conn -> Afs_util.Capability.t -> commit:bool -> unit Afs_core.Errors.r
