(** The Amoeba file server (paper §5).

    A server manages files — chains of committed versions plus their
    uncommitted descendants — over a {!Store.t}. Several servers can share
    one store (and one capability [seed]); the commit critical section
    goes through the store's lock facility, so any of them may carry out
    any commit, as §5.2 requires.

    Version lifecycle: {!create_version} gives a private copy-on-write
    view of the current version; page operations record the C/R/W/S/M
    flags; {!commit} runs the optimistic validation and makes the version
    current, or fails with [Conflict], after which the client redoes the
    update on a fresh version. Uncommitted versions are volatile: a
    {!crash} loses them by design, and {!recover_from_blocks} rebuilds the
    file table from the pages alone — no rollback, no intentions lists. *)

type t

type version_status = Uncommitted | Committed | Aborted

type page_info = {
  nrefs : int;
  dsize : int;
  child_flags : Flags.t array;  (** Access flags of each child reference. *)
}

val create :
  ?page_cache:bool ->
  ?cache_capacity:int ->
  ?seed:int ->
  ?ports:Ports.t ->
  ?name:string ->
  ?publish_tap:((int * Page.t) list -> (unit, Errors.t) result) ->
  ?trace:Afs_trace.Trace.t ->
  Store.t ->
  t
(** Servers sharing a store must share [seed] (the capability secret) and
    should share [ports]. [cache_capacity] bounds the write-back page
    cache (default 4096 pages); the cache's hit, miss,
    eviction and write-back counters land in this server's {!counters}.
    With a [trace], every pipeline run — a commit, a batch or a prepare —
    runs inside one [commit] span that records each test-and-set of a
    base's commit reference, the pretest / serialise / merge phases and
    the final outcomes; [name] (e.g. the owning cluster shard's id)
    becomes the span's label, so per-shard commit traffic is separable in
    a cluster trace. Each page access's descent is costed as [server.access].

    [publish_tap] is the replication gate: it receives the (block, page)
    pairs a publish is about to write through — the winners' pages, then
    their commit references (base block, updated page) — before the local
    store sees them. Returning an error vetoes the publish: nothing is
    written and the would-be winners get the error, which is exactly how
    a deposed primary is fenced after failover. The default always
    succeeds. The tap must be synchronous (it runs inside the commit
    critical section). *)

val name : t -> string

val trace : t -> Afs_trace.Trace.t

val pagestore : t -> Pagestore.t
val ports : t -> Ports.t
val port : t -> Afs_util.Capability.port

val counters : t -> Afs_util.Stats.Counter.t
(** The server's one counter table; its page store ([cache.hits],
    [cache.misses], [cache.evictions], [cache.writebacks]) and local
    {!Client}s ([client.attempts], [client.redone], [client.committed],
    [client.cache_hits], [client.cache_misses]) count into it too. Its
    own: [versions.created], [pages.copied], [commits.ok] with
    [commits.fastpath] or [commits.merged], [commits.intercepted] (a
    lost test-and-set, or loss to the run's winners),
    [commits.conflict] (a doomed version), [commits.shortcircuit] (doomed
    by the pre-test), [serialise.pages_visited], [commits.batches],
    [commits.batch_members] and [versions.reclaimed]. Crashes,
    recoveries and decided aborts are trace points only. *)

(** {2 Files} *)

val create_file : t -> ?data:bytes -> unit -> Afs_util.Capability.t Errors.r
(** A new file with one committed initial version holding [data]. *)

val current_version : t -> Afs_util.Capability.t -> Afs_util.Capability.t Errors.r
(** Capability of the current committed version (read rights only). *)

val current_root_data : t -> Afs_util.Capability.t -> bytes Errors.r
(** {!read_page} of {!current_version}'s root, but minting no capability.
    Needs read rights. *)

val committed_chain : t -> Afs_util.Capability.t -> int list Errors.r
(** Version-page blocks of the committed versions, oldest first — the
    Figure 4 family tree's spine. The walk reads commit references
    through {!Pagestore.peek_commit_ref}, leaving the page cache as it
    was. *)

val uncommitted_versions : t -> Afs_util.Capability.t -> int list Errors.r

val destroy_file : t -> Afs_util.Capability.t -> unit Errors.r
(** Unregister the file (requires the destroy right) and abort its
    uncommitted versions. Its pages become garbage: the next GC sweep
    reclaims everything no other file shares. *)

(** {2 Versions} *)

val create_version :
  ?respect_hints:bool -> ?updater_port:int -> ?holding_port:int -> t ->
  Afs_util.Capability.t -> Afs_util.Capability.t Errors.r
(** Start an update: a new uncommitted version based on the current one,
    initially sharing its whole page tree. [updater_port] is written to
    the current version's top-lock field as the advisory hint of §5.3;
    [respect_hints] makes this call itself honour a live hint by failing
    with [Locked_out] (the "soft-locking scheme"). A live {e inner} lock
    always blocks version creation; a dead one is recovered per §5.3. *)

val abort_version : t -> Afs_util.Capability.t -> unit Errors.r
(** Remove an uncommitted version and free its private pages. *)

val version_status : t -> Afs_util.Capability.t -> version_status Errors.r
val version_block : t -> Afs_util.Capability.t -> int Errors.r
val version_of_block : t -> int -> Afs_util.Capability.t Errors.r

(** {2 Pages}

    Operations take a version capability. On uncommitted versions they
    copy-on-write and record flags; reads of committed versions are plain
    traversals with no side effects. *)

val read_page : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Errors.r
(** The page's own data, not a copy: a page never changes once written
    (an update makes a new one), so the answer is shared with the page
    cache, and with every other reader of the page. The caller must not
    change it — the store boundary's ownership rule ({!Store.t}), carried
    to the request boundary. *)

val write_page : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes -> unit Errors.r
(** Takes ownership of the data: the caller must not change it afterwards. *)

val page_info : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> page_info Errors.r
(** Read-only on any version; records no flags. *)

val insert_page :
  t -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int ->
  ?data:bytes -> unit -> Afs_util.Pagepath.t Errors.r
(** Add a fresh page under [parent] at [index] (an explicit reference-
    table modification: sets the parent's [M]); returns its path. Takes
    ownership of [data], as {!write_page} does. *)

val remove_page :
  t -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int -> unit Errors.r

val move_page :
  t -> Afs_util.Capability.t -> src_parent:Afs_util.Pagepath.t -> src_index:int ->
  dst_parent:Afs_util.Pagepath.t -> dst_index:int -> unit Errors.r
(** Detach a subtree and re-attach it elsewhere in the same version.
    Fails if the destination lies inside the moved subtree. *)

(** {2 Commit} *)

val commit : t -> Afs_util.Capability.t -> unit Errors.r
(** Run the §5.2 protocol: test-and-set the base's commit reference; on
    interception, serialisability-test and merge against each intervening
    committed version, retrying until the set succeeds or the test fails
    with [Conflict] (the version is then removed); then write the
    version's pages and the base's commit reference in one store batch,
    pages first.

    Only the committing version's own pages are written — the version
    page and the blocks it allocated (copies and inserted pages) that
    are still dirty in the cache — and only once the version has won. A doomed commit, like {!abort_version}, writes
    nothing: its pages are dropped from the cache and freed. A winner
    writes no read copy either, whether it won at its original base (the
    fast path) or by merging: each copy with no W or M at or below it is
    pointed back at the page at its path in the base it won at (§5.1)
    and freed, and leaves the version's flag map, before any later
    member of the run validates.

    Each admission first reads the version's flag map ({!Writeset})
    from its page tree ({!Serialise.flag_map}, cache-neutral), inside
    the critical section, and uses it for the whole run. On
    interception the conflict conditions are decided from that map and
    the intervening version's alone — a conflicting commit is rejected
    without reading any page of either tree (counter
    [commits.shortcircuit]); only the no-conflict case still walks the
    trees, to build the merge. The intervening version's map is the one
    its own admission read when this server committed it, or is read
    from its tree once (and kept, when this server knows it committed).
    A committed version's tree no longer changes, so it keeps its map
    until {!reclaim_versions} drops its record; an uncommitted one keeps
    none.

    Internally a commit is a validate → merge → publish pipeline run of
    one member, the same run {!commit_batch} and {!prepare} use: the test-and-set of the base's commit reference under the
    store lock (the only fencing point) claims the reference for the run
    and keeps the lock; the pre-test plus serialisability walk handles an
    interception; publish writes the pages and the claimed reference
    durably, and only then does the commit count ([commits.ok],
    [commits.fastpath] / [commits.merged], the success [Commit_outcome]
    point). If the publish fails, the pages that did not land stay dirty,
    so retrying the commit writes them again. A winner that pointed read
    copies back has lost their R flags, so any interception on the retry
    dooms it with [Conflict]. The store may also have written the batch
    and lost its answer, so each claimed base is read back: a base that
    names the version makes it committed, its pages clean (a retry then
    answers [Version_not_mutable]), one without the reference leaves it
    uncommitted, and one that cannot be read leaves it aborted, its
    pages left to the collector. The commit answers the store error in
    every case. The run's one [commit]
    span encloses the publish. A base lock held by anyone else (another
    server sharing the store, a {!prepare}d run awaiting its answer)
    fails the commit at once with [Store_failure "commit lock
    contention"], leaving the version uncommitted: the critical section is synchronous, so waiting
    could never see the lock released. *)

val commit_batch : t -> Afs_util.Capability.t list -> unit Errors.r list
(** Group commit: one pipeline run of N members. Every capability goes
    through validate and merge in submission order — winning references
    collect in the run's overlay that later members' test-and-sets
    consult, and a member conflicting with the union of the admitted
    winners' flag maps ({!Writeset.union}) is doomed by one pre-test pass
    without dooming the batch — then one publish writes all winners'
    pages, oldest winner first, and then all their references in one
    amortised stable-storage leg ({!Pagestore.write_through_batch}).
    Outcomes, counters of record
    ([commits.ok] / [commits.conflict]) and the final store image are
    identical to committing the members one by one; one result per
    capability, in order. A one-element list is exactly {!commit}, trace
    included, apart from the batch counters. If the
    publish leg fails, the durable prefix of winners is committed on disk
    but every would-be winner gets the store error and none counts as a
    commit — recovery reads the truth back. Counts [commits.batches] and
    [commits.batch_members]. The whole run is one [commit] span; a batch
    of two or more also emits one [Trace.Commit_batch] point in it. *)

val prepare : t -> Afs_util.Capability.t -> (commit:bool -> unit Errors.r) Errors.r
(** Two-phase-commit baseline, phase one: a pipeline run of one, stopped
    before its publish, so its [commit] span ends before the answer — the
    winning test-and-set is recorded in the run's overlay, nothing reaches stable storage, and the base's store
    lock is {e retained}. Until the returned answer is called (at most
    once) any other commit of the file fails at once with
    [Store_failure "commit lock contention"]: the lock-holding window the
    optimistic coordinator (lib/txn) exists to avoid. [~commit:true]
    publishes the run; [~commit:false] drops it and its locks and aborts
    the version. Errors (e.g. [Conflict]) leave no run and no locks. The
    server keeps no record of the run: the caller parks the answer
    ({!Afs_rpc.Remote}'s host does). An answer whose version is no
    longer uncommitted — a {!crash} aborted it and freed the lock in the
    store layer — presumes abort: [~commit:true] fails with
    [Store_failure "2pc: version not prepared"], [~commit:false] is
    [Ok ()]. *)

(** {2 Crash simulation and recovery} *)

val crash : t -> unit
(** Lose all volatile state: the page cache (unflushed writes vanish),
    every store lock this server holds ({!Pagestore.drop_volatile}) and
    knowledge of uncommitted versions. Committed state is untouched — the
    defining property being reproduced. *)

val recover_from_blocks : t -> int list -> int Errors.r
(** Rebuild the file table by decoding the given blocks (obtained from the
    block server's per-account recovery listing, §4). Returns the number
    of files recovered. Orphaned uncommitted version pages are ignored:
    their owners must redo, as the paper prescribes. *)

(** {2 Introspection for tests, GC and experiments} *)

val written_set : t -> int -> Afs_util.Pagepath.t list Errors.r
(** The write set (§5.4) of the version at the given block, root-first:
    the written paths of its flag map. A committed version's map is
    kept: from its admission, when this server committed it, or read
    from its tree on first need. A block this server does not know is
    learned first, as any capability for it would be, so its map is kept
    too. An uncommitted version's map is read afresh each time. *)

val tracked_writeset : t -> int -> Writeset.t option
(** The flag map kept for a committed version, if it has been read —
    exposed for tests asserting that it equals the tree's flags. *)

val set_lock_fields :
  t -> int -> top:int option -> inner:int option -> unit Errors.r
(** Update the top/inner lock fields of a version page in place (used by
    the super-file locking layer). [None] leaves a field unchanged. *)

val current_block_of_file : t -> Afs_util.Capability.t -> int Errors.r

val note_pruned_chain : t -> Afs_util.Capability.t -> new_oldest:int -> unit Errors.r
(** Tell the server the GC unlinked committed versions older than
    [new_oldest]; chain walks start there from now on. *)

val reclaim_versions : t -> live:(int -> bool) -> int
(** Drop the record, write set included, of every version that is aborted
    or whose version-page block [live] rejects (the collector passes its
    mark: pruned history, crash orphans), and trim each file's version
    index to match. Afterwards such a version is unknown here, so
    {!version_status} and {!tracked_writeset} treat it as any unknown
    block. Server memory thus follows retained history, not every version
    ever created. Returns the number of records dropped and adds it to
    counter [versions.reclaimed]. *)

val list_files : t -> Afs_util.Capability.t list
