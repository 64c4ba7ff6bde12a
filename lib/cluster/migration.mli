(** Online shard migration as a pure application of the paper's
    optimistic-commit machinery — no locks, no downtime, no new protocol.

    [migrate] moves one file between shards in three steps, all ordinary
    file-service operations:

    + {b Snapshot}: open a version on the source and read the whole page
      tree through it (recording R/S flags — the reads join the version's
      read set).
    + {b Copy}: create a fresh file on the destination holding the
      snapshot and commit it there (conflict-free: the file is unknown to
      everyone else).
    + {b Flip}: in the {e same} source version, remove the root's children
      and overwrite the root with a tombstone ({!Marker.Moved}) naming the
      copy, then commit. This is the linearisation point, and it is just an
      optimistic commit: if any client committed an update since the
      snapshot, the serialisability test fails, the destination copy is
      destroyed, and the migration redoes from a fresh snapshot.

    Safety (no committed version can be lost) needs the flip to conflict
    with concurrent updates in {e both} commit orders; the flag choreography
    that guarantees this is documented at {!Shard} (the R-on-root location
    check) and in the implementation. Liveness under heavy write traffic
    is the usual optimistic story: the migration retries and may give up
    ([Conflict] after [retries] attempts); giving up is harmless — the
    file simply stays where it was.

    The old home keeps the file as a tombstone whose root is the marker,
    answering [Moved] forever after (clients' old capabilities keep
    working, one extra hop until their router learns the forward). *)

val migrate :
  ?retries:int ->
  Cluster.t ->
  file:Afs_util.Capability.t ->
  dst:int ->
  Afs_util.Capability.t Afs_core.Errors.r
(** Move [file] to shard [dst]; returns its new capability (or the
    current one unchanged if it already lives on [dst]). Must run inside
    a simulation process. [Conflict] means the retry budget (default 8)
    was exhausted racing live writers. Each attempt runs through
    {!Cluster_client.routed}, which chases a tombstone met on the way and
    fails a forward chain past its hop limit. *)
