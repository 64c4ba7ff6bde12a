(* Cross-shard atomic transactions from ordinary optimistic commits.

   The protocol generalises Migration's snapshot/copy/flip trick: every
   multi-step distributed operation here is a sequence of single-shard
   optimistic commits, with no lock ever held across a shard boundary.

   1. Record.  The coordinator takes a coordinator record — a plain
      committed file on the last participant's shard, nobody but
      coordinators and resolvers ever touches it — from its free list,
      creating one only when that shard has none pooled. The record's
      entire root data is the outcome of the newest transaction decided
      on it, a {!Marker.Outcome}: its seq, committed or aborted (a fresh
      record holds seq 0 aborted). The transaction takes the next
      sequence number, larger than every seq the record has seen, so
      until it is decided the record reads as pending for it.

   2. Stage.  On each participant shard in turn, the coordinator opens an
      ordinary version, performs the transaction's reads (recording R
      flags; Rmw computes the write values from what it read), then
      replaces the root data with an encoded {!Marker.Staged}: the
      record's capability, the transaction's sequence number, the old
      root data, and the computed page writes — which ride the marker
      instead of touching any page — and commits. The commit's flag map
      is R on every page read plus R+W on the root, and every
      cluster-created version carries R on its root (the location
      check), so the stage conflicts with every concurrently opened
      version of the file in both commit orders: whoever commits second
      loses. Once a stage is committed, ordinary opens of the file
      answer [Txn_in_doubt] and openings by batch answer the marker's
      image (the shard wrapper's trap), so from here on only resolvers
      can advance the file.

   3. Decide.  The coordinator replaces the record's root data — the
      value it last saw there — with seq committed as one more ordinary
      optimistic commit: a root test-and-set ([Remote.Swap]). A
      contender who tired of waiting force-aborts the same way, from the
      value it saw to seq aborted; both test-and-set the same root, so
      exactly one wins, and because seqs only grow on a record no value
      ever recurs (no ABA). This single commit IS the transaction-wide
      atomic point. It rides the last participant's seal: the record
      lives on that shard, so one [Version] batch seals the last marker,
      then test-and-sets the record — only if the seal committed — in the
      same handler event. Sent alone, the same [Swap] is the one step of
      a [Current] batch on the record.

   4. Flip.  Each staged participant is resolved by one more optimistic
      commit, again one [Swap]: iff the root still carries this
      transaction's exact marker bytes, restore the old root data
      and — iff the record committed — apply the marker's page writes in
      place. Applying writes (never flipping to a wholesale copy)
      preserves any concurrent non-conflicting update that merged
      underneath the stage. The batch that decides also flips every
      participant on the record's shard, behind the record's commit;
      the coordinator flips the rest, one message each, before it
      answers. Flips race only other resolvers; the loser's [Swap] fails,
      which is its answer: the marker is gone.

   5. Wait.  A transaction that meets another's marker waits for that
      marker's outcome with one [Remote.await] on its record, which the
      record's shard holds until the record commits — the decide, or a
      force-abort — or the waiter's budget runs out; then it force-aborts
      the pending coordinator, presumed dead. Having learnt the outcome
      it leaves the flip to the coordinator, which sent it before any
      waiter could hear the decide, and simply tries again; only if it
      meets the same marker image again does it flip the marker itself.

   6. Reuse.  The record goes back on the free list only once the
      decision is definite and every participant's flip (or unstage)
      answered — swapped or mismatched, so no marker naming this seq
      survives. A record whose outcome has moved past a marker's seq
      therefore proves that marker gone ([Superseded]), and a resolver
      holding such a stale marker writes nothing. A transaction whose
      staging failed is rolled back (record aborted, stages undone) and
      pools its record the same way — unless a seal failed in a way that
      does not prove it never committed (anything but a [Conflict]). After
      that, a crash, an unreachable record or a deferred flip or unstage
      the record is simply never reused — its markers still resolve,
      since its value stays at or below their seq — so the leak is one
      record per failure.

   A single-file update needs none of this, because one single-shard
   commit is already atomic: it opens its version with the same reading
   batch a stage does and commits the computed writes in one more — two
   batches in all ([commit_part]) — and a commit that loses validation
   may answer with the redo's opening, so each redo is one message more.
   [update] runs it on the file's shard and waits out a marker as step 5
   does; a one-part transaction is one [update] allowed no redo, and
   lib/workload's single-file updates run it with their retry budget.
   Every request here is routed through the cluster client's one
   [Moved] loop, [Cluster_client.routed].

   Recovery needs no log: a marker names its record and seq, the
   record's root names the outcome, and [sweep] walks the files and
   applies step 4 — present-and-committed rolls forward, anything else
   discards. *)

module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Trace = Afs_trace.Trace
module Marker = Afs_cluster.Marker
module Shard = Afs_cluster.Shard
module Cluster = Afs_cluster.Cluster
module CC = Afs_cluster.Cluster_client
module Proc = Afs_sim.Proc
open Errors

type op =
  | Read of Pagepath.t
  | Write of Pagepath.t * bytes
  | Rmw of Pagepath.t * (bytes -> bytes)

type part = { file : Capability.t; ops : op list }

type failure =
  | Local of Errors.t  (** A participant stage lost an ordinary OCC race. *)
  | Cross of Errors.t  (** The record decision lost to a contender's force-abort. *)
  | Failed of Errors.t  (** Transport or harness trouble; retry policy is the caller's. *)

type t = {
  client : CC.t;
  trace : Trace.t;
  mutable next_seq : int;
  free : (int, (Capability.t * bytes) list) Hashtbl.t;
      (** Reusable coordinator records by shard id, each with the root
          data it holds. *)
  round_trip : unit -> unit;  (** Counts one message: {!rt}, for {!stage}. *)
}

(* The wait before retrying a record decision a shard could not take,
   or a participant that keeps losing its stage. *)
let backoff_ms = 5.0

(* How long a waiter grants a pending coordinator before force-aborting
   it: comfortably more than a live coordinator's whole
   stage-decide-flip protocol takes under load, so force-aborts fire only
   on dead coordinators. *)
let wait_budget_ms = 1195.0

(* A coordinator keeps no counter table: it counts into its cluster's. *)
let bump ?by t name = Stats.Counter.incr ?by (Cluster.counters (CC.cluster t.client)) name
let rt ?(n = 1) t = bump ~by:n t "txn.round_trips"

let create ?(trace = Trace.null) client =
  let rec t =
    {
      client;
      trace;
      next_seq = 1;
      free = Hashtbl.create 8;
      round_trip = (fun () -> rt t);
    }
  in
  t

let tpoint t payload = if Trace.enabled t.trace then Trace.point t.trace payload

(* A numeric span label, built only when traced: a disabled trace drops it. *)
let label t n = if Trace.enabled t.trace then string_of_int n else ""

(* {2 The decision logic (pure)}

   These two are the protocol's brain and C1 critical sections: given
   what the RPC loops read, what must happen next. Transitively yield-
   and ambient-free — every suspension lives in the loops that call
   them. *)

type decision = Pending | Committed | Aborted | Superseded | Unknown_record

let decide ~seq ~record_data =
  match Marker.decode record_data with
  | Some (Outcome { seq = decided; committed }) ->
      if decided < seq then Pending
      else if decided > seq then Superseded
      else if committed then Committed
      else Aborted
  | Some (Moved _ | Staged _) | None -> Unknown_record

type action = Forward of Marker.staged | Back of Marker.staged | Wait of Marker.staged | Gone

let resolve marker decision =
  match decision with
  | Committed -> Forward marker
  | Aborted | Unknown_record -> Back marker
  | Pending -> Wait marker
  | Superseded -> Gone

(* {2 Routed RPC helpers} *)

(* A record's root data once [seq] is decided. *)
let encoded_outcome ~seq ~committed = Marker.encode (Outcome { seq; committed })

(* How often a part re-opens a file it found in doubt before giving up
   (staging, which also re-stages after ordinary conflicts, allows four
   times as many). *)
let retry_limit = 8

let malformed = Error (Store_failure "txn: malformed batch answer")

(* The file's current committed root data, marker and all: a [Current]
   batch passes the shard's in-doubt trap. *)
let root_data t file =
  CC.routed t.client file (fun conn ~shard:_ file ->
      rt t;
      match Remote.batch conn (Remote.Current file) [ Remote.Read Pagepath.root ] with
      | Ok (Remote.Ran { reads = [ root ]; _ }) -> Ok root
      | Ok _ -> malformed
      | Error e -> Error e)

(* The record's test-and-set, as the decide and a force-abort make it:
   iff [record]'s root still holds [expected], replace it with
   [outcome]. *)
let record_step record ~expected ~outcome =
  Remote.Swap { file = record; expected; writes = [ (Pagepath.root, outcome) ] }

(* The record is an ordinary file whose root IS the latest outcome: one
   [Current] batch reads it. *)
let record_decision t record ~seq =
  let* data = root_data t record in
  Ok (decide ~seq ~record_data:data)

(* {2 Staging} *)

(* The pages a part must read, in op order — they ride the opening
   batch, so staging costs two round trips however many pages the
   transaction touches. *)
let read_paths ops =
  List.filter_map
    (function Read path | Rmw (path, _) -> Some path | Write _ -> None)
    ops

(* Pair the fetched pages back up with the ops that asked for them
   (pure; [pages] mirrors [read_paths ops] by construction). The pages
   were read before any write, so an [Rmw] of a path the part already
   wrote transforms the newest pending write instead, as the same ops
   run one by one would. *)
let computed_writes ops pages =
  let pending path acc =
    List.find_map (fun (p, data) -> if Pagepath.equal p path then Some data else None) acc
  in
  let rec go pages acc = function
    | [] -> List.rev acc
    | Read _ :: rest -> go (match pages with _ :: ps -> ps | [] -> []) acc rest
    | Write (path, data) :: rest -> go pages ((path, data) :: acc) rest
    | Rmw (path, f) :: rest -> (
        match pages with
        | data :: ps ->
            let data = Option.value ~default:data (pending path acc) in
            go ps ((path, f data) :: acc) rest
        | [] -> List.rev acc)
  in
  go pages [] ops

(* Abort a version the caller holds, in one message. *)
let abandon ~round_trip conn version =
  round_trip ();
  Remote.abandon conn version

(* Read [paths] on [target]'s version in one batch, or — when the
   replies exceed the 32K message cap — in halves, the later ones as
   [Version] batches on the version the first opened. A failure after
   the opening batch abandons the version the caller never learns.
   [round_trip] counts messages. *)
let rec read_batches ~round_trip conn target paths =
  round_trip ();
  match Remote.batch conn target (List.map (fun path -> Remote.Read path) paths) with
  | Error (Message_too_large _) when List.compare_length_with paths 1 > 0 -> (
      let half = List.length paths / 2 in
      let first = List.filteri (fun i _ -> i < half) paths
      and rest = List.filteri (fun i _ -> i >= half) paths in
      match read_batches ~round_trip conn target first with
      | Ok (Remote.Ran { version; reads = early; infos }) -> (
          match read_batches ~round_trip conn (Remote.Version version) rest with
          | Ok (Remote.Ran { reads = late; _ }) ->
              Ok (Remote.Ran { version; reads = early @ late; infos })
          | failed ->
              (match target with
              | Remote.Open _ -> abandon ~round_trip conn version
              | Remote.Current _ | Remote.Version _ -> ());
              failed)
      | failed -> failed)
  | answer -> answer

(* What an [Open] batch or a redo opened: the version, the old root data
   and the part's computed writes — or, when the shard found another
   transaction's marker in the root and opened nothing, its image. *)
type opening = Opened of Capability.t * bytes * (Pagepath.t * bytes) list | Held of bytes

(* The reads of an opening are the root and then every page the part's
   ops read. *)
let opened ops = function
  | Remote.Ran { version; reads = old_root :: pages; _ }
  | Remote.Reopened { version; reads = old_root :: pages } ->
      Ok (Opened (version, old_root, computed_writes ops pages))
  | Remote.Marked image -> Ok (Held image)
  | Remote.Ran _ | Remote.Reopened _ | Remote.Guard_failed _ -> malformed

(* Open a version of a part's file with one [Open] batch that reads the
   root and [paths], the pages its ops read. *)
let open_part ~round_trip conn file ops paths =
  let* answer = read_batches ~round_trip conn (Remote.Open file) (Pagepath.root :: paths) in
  opened ops answer

(* The writes as [Version] batches within the 32K cap, in order, the
   last one ending in [tail] — [Commit], then the redo if one is asked
   for: one batch unless the data is over. *)
let version_batches ~tail writes =
  let rec go batches batch size = function
    | [] -> List.rev (List.rev_append batch tail :: batches)
    | (path, data) :: rest ->
        let n = Bytes.length data in
        if batch <> [] && size + n > Remote.message_cap then
          go (List.rev batch :: batches) [ Remote.Write (path, data) ] n rest
        else go batches (Remote.Write (path, data) :: batch) (size + n) rest
  in
  go [] [] 0 writes

(* Send the batches in order and answer the last one's answer. *)
let rec send_writes ~round_trip conn version = function
  | [] -> malformed
  | steps :: rest -> (
      round_trip ();
      match (Remote.batch conn (Remote.Version version) steps, rest) with
      | Ok answer, [] -> Ok answer
      | Ok _, _ -> send_writes ~round_trip conn version rest
      (* A lost validation removed the version, and so did a redo that
         failed as a fresh opening would ([Moved]); a store failure may
         have published it, like an in-doubt seal. *)
      | Error ((Conflict | Store_failure _ | Moved _) as e), [] -> Error e
      | Error e, _ ->
          (* A write step failed: the version is still open. *)
          abandon ~round_trip conn version;
          Error e)

type tries = { mutable made : int; allowed : int }

(* [commit_part], answering [Error image] when an opening — the first or
   a redo's — met another transaction's marker. A single-file update is
   not coordinator work: its messages count no round trip. *)
let commit_held ~tries conn file ops =
  let paths = read_paths ops in
  let redo_tail : Remote.step list = [ Remote.Commit; Remote.Redo (file, paths) ] in
  let rec commit = function
    | Held image -> Ok (Error image)
    | Opened (version, _, writes) -> (
        let tail = if tries.made < tries.allowed then redo_tail else [ Remote.Commit ] in
        match send_writes ~round_trip:ignore conn version (version_batches ~tail writes) with
        | Ok ((Remote.Reopened _ | Remote.Marked _) as answer) ->
            tries.made <- tries.made + 1;
            let* next = opened ops answer in
            commit next
        | Ok (Remote.Ran _ | Remote.Guard_failed _) -> Ok (Ok ())
        | Error (Moved _ as e) ->
            tries.made <- tries.made + 1;
            Error e
        | Error e -> Error e)
  in
  let* first = open_part ~round_trip:ignore conn file ops paths in
  commit first

(* Each attempt but the last allowed asks that a lost validation answer
   with the redo's opening, so a redo costs one message: the client
   recomputes its writes from the reopened reads and sends only the next
   [Version] batch. A redo that met [Moved] consumed its attempt too. *)
let commit_part ~tries conn file ops =
  let* held = commit_held ~tries conn file ops in
  match held with
  | Ok () -> Ok ()
  | Error image -> (
      match Marker.decode image with
      | Some (Staged { record; _ }) -> Error (Txn_in_doubt record)
      | Some (Moved _ | Outcome _) | None -> malformed)

(* A committed stage: the participant, its marker, and the marker's
   exact root bytes — what the flip test-and-sets against. *)
type staged = { sfile : Capability.t; marker : Marker.staged; image : bytes }

(* {2 Resolution} *)

(* The trace point of a marker resolved one way. *)
let resolved t { sfile = file; marker = m; _ } ~forward =
  if forward then
    tpoint t
      (Trace.Txn_flip
         { txn = m.Marker.seq; file_obj = file.Capability.obj; writes = List.length m.Marker.writes })
  else
    tpoint t
      (Trace.Txn_resolve { txn = m.Marker.seq; file_obj = file.Capability.obj; action = "back" })

(* A staged participant's resolution as a [Swap] on [file]: iff the
   root still holds the marker's exact bytes, restore the
   pre-transaction root data and, iff rolling [forward], apply the staged
   writes in place. *)
let flip_step ~forward file { marker = m; image; _ } =
  Remote.Swap
    {
      file;
      expected = image;
      writes = (Pagepath.root, m.Marker.old_root) :: (if forward then m.Marker.writes else []);
    }

(* Overwrite a still-staged marker with its resolution, in one batch.
   Idempotent against other resolvers: a failed [Swap] means the marker
   is gone — somebody already resolved (or a later transaction
   re-staged) — and there is nothing left to do. The [Swap] names the
   capability [routed] chased to, which after a migration is the only
   one the file's new home accepts. *)
let apply t entry ~forward =
  let step =
    CC.routed t.client entry.sfile (fun conn ~shard:_ file ->
        rt t;
        Remote.batch conn (Remote.Current file) [ flip_step ~forward file entry ])
  in
  match step with
  | Ok (Remote.Ran _) ->
      resolved t entry ~forward;
      Ok ()
  | Ok (Remote.Guard_failed _) -> Ok ()
  | Ok (Remote.Reopened _ | Remote.Marked _) -> malformed
  | Error e -> Error e

(* How long a step that must reach a crashed shard keeps retrying before
   giving up: recovery is expected within this budget, and giving up
   earlier would leave the caller guessing about an outcome a later
   retry could duplicate. *)
let transport_patience = 256

let on_shard t file shard =
  match Afs_cluster.Cluster.shard_of_cap (CC.cluster t.client) file with
  | Ok (_, s) -> Shard.id s = Shard.id shard
  | Error _ -> false

(* The flips of [staged] that a batch on [shard] can carry: those of
   participants on that shard, as long as the batch stays within [room]
   bytes of writes. *)
let carried t ~shard ~room staged =
  let rec go room = function
    | [] -> []
    | entry :: rest ->
        if on_shard t entry.sfile shard then
            let size =
              Bytes.length entry.marker.Marker.old_root
              + List.fold_left (fun n (_, data) -> n + Bytes.length data) 0 entry.marker.Marker.writes
            in
            if size > room then go room rest else entry :: go (room - size) rest
        else go room rest
  in
  go room staged

(* Drive the record from [seen] — the value its decider last saw there —
   to [seq]'s outcome as an ordinary optimistic commit, returning what
   the record finally says about [seq] and the value it holds: the other
   outcome if a racing decider won the root's test-and-set, [Superseded]
   if [seq] was decided long ago and the record has moved on. Both the
   coordinator's decide and a contender's force-abort funnel through
   here, which is the whole mutual-exclusion argument. A mismatch that
   still leaves [seq] pending retries from the value it answered.
   Transport errors back off and retry (within [transport_patience])
   rather than surface: once a transaction is staged its outcome must
   become definite, not be retried wholesale. *)
let decide_record t ~record ~seq ~seen ~commit =
  let outcome = encoded_outcome ~seq ~committed:commit in
  let rec attempt expected n =
    if n > transport_patience then Error (Store_failure "txn: record decision starved")
    else
      let step =
        CC.routed t.client record (fun conn ~shard:_ record ->
            rt t;
            Remote.batch conn (Remote.Current record) [ record_step record ~expected ~outcome ])
      in
      match step with
      | Ok (Remote.Ran _) -> Ok ((if commit then Committed else Aborted), outcome)
      | Ok (Remote.Guard_failed current) -> (
          match decide ~seq ~record_data:current with
          | Pending -> attempt current (n + 1)
          | Unknown_record -> Error (Store_failure "txn: unrecognised record state")
          | (Committed | Aborted | Superseded) as final -> Ok (final, current))
      | Ok (Remote.Reopened _ | Remote.Marked _) -> malformed
      | Error (Store_failure _) when n < transport_patience ->
          Proc.delay backoff_ms;
          attempt expected (n + 1)
      | Error e -> Error e
  in
  attempt seen 0

let force_abort t marker ~seen =
  let* final, _ =
    decide_record t ~record:marker.Marker.record ~seq:marker.Marker.seq ~seen
      ~commit:false
  in
  Ok final

(* Apply a record's [decision] to a marker as a resolver: roll it
   forward or back, or write nothing when the record proves it gone. *)
let settle t entry decision =
  match resolve entry.marker decision with
  | Forward _ ->
      bump t "txn.resolved.forward";
      apply t entry ~forward:true
  | Back _ ->
      bump t "txn.resolved.back";
      apply t entry ~forward:false
  | Wait _ | Gone -> Ok ()

(* What the record of [file]'s marker says about the marker's seq,
   learnt with one request: an [Await] that the record's shard holds
   until the record decides that seq, or until [budget_ms] runs out. A
   coordinator still pending then is presumed dead and force-aborted
   (step 3's race: exactly one of the force-abort and its decide wins).
   A record that has moved past the seq proves the marker already gone
   (step 6). *)
let outcome t ~budget_ms file marker =
  let { Marker.record; seq; _ } = marker in
  let until =
    [ encoded_outcome ~seq ~committed:true; encoded_outcome ~seq ~committed:false ]
  in
  let* root =
    CC.routed t.client record (fun conn ~shard:_ record ->
        rt t;
        bump t "txn.record_reads";
        Remote.await conn record ~until ~budget_ms)
  in
  match decide ~seq ~record_data:root with
  | Pending ->
      bump t "txn.force_aborts";
      tpoint t
        (Trace.Txn_resolve { txn = seq; file_obj = file.Capability.obj; action = "force_abort" });
      force_abort t marker ~seen:root
  | decision -> Ok decision

let resolving t f =
  let span = Trace.open_span t.trace ~kind:"txn.resolve" () in
  let result = f () in
  Trace.close_span t.trace span;
  result

(* A waiter met [image], another transaction's marker, in [file]'s root.
   The first time, it learns the outcome and leaves the flip to that
   transaction's coordinator, which sent it before its own client heard
   the outcome: the caller tries again at once. If it meets the same
   image again, the coordinator has not flipped — it died, or its flip
   failed — so the waiter applies the outcome it learnt itself. Answers
   what to remember for the next meeting. *)
let waited t file image ~last =
  resolving t (fun () ->
      match (Marker.decode image, last) with
      | Some (Staged marker), Some (seen, decision) when Bytes.equal seen image ->
          let* () = settle t { sfile = file; marker; image } decision in
          Ok None
      | Some (Staged marker), _ ->
          bump t "txn.in_doubt";
          let* decision = outcome t ~budget_ms:wait_budget_ms file marker in
          Ok (Some (image, decision))
      | (Some (Moved _ | Outcome _) | None), _ -> malformed)

(* {2 A single-file update} *)

(* [commit_held] on the file's shard, its commit credited there for the
   rebalancer. A file in doubt is waited out and the update tried again,
   at most [retry_limit] times: meeting a marker uses no attempt. *)
let rec update_waiting ~waits ~last t ~tries file ops =
  if waits > retry_limit then Error (Store_failure "txn: in-doubt resolution starved")
  else
    let held =
      CC.routed t.client file (fun conn ~shard file ->
          match commit_held ~tries conn file ops with
          | Ok (Ok ()) as committed ->
              CC.note_commit t.client ~shard file;
              committed
          | answer -> answer)
    in
    match held with
    | Ok (Ok ()) -> Ok ()
    | Ok (Error image) -> (
        match waited t file image ~last with
        | Ok last -> update_waiting ~waits:(waits + 1) ~last t ~tries file ops
        | Error e -> Error e)
    | Error e -> Error e

let update t ~tries file ops = update_waiting ~waits:0 ~last:None t ~tries file ops

(* {2 Staging a participant} *)

(* Why a participant is not staged. A seal that failed in the store or
   met a tombstone may have committed anyway — a failed publish leaves a
   durable prefix, and the marker surfaces once the shard recovers — so
   only [Seal_in_doubt] can leave a marker behind; it carries the stage
   it attempted. A seal refused before it ran ([Message_too_large],
   [Page_too_large]) or that lost validation is [Unstaged]. *)
type stage_error = Unstaged of Errors.t | Seal_in_doubt of Errors.t * staged

(* A stage that went through — with the flips it made, if it carried a
   decide that committed — or the image of another transaction's marker
   met in the root instead. *)
type staging = Staged of staged * staged list option | Held_by of bytes

(* What a stage needs to carry the decide: the value the record holds,
   and the participants staged before it. *)
type ride = { seen : bytes; before : staged list }

(* Stage one participant: [open_part], then the marker committed into
   the root. Nothing but the root is written — the computed writes ride
   the marker until the flip. With [ride], and the record on the
   participant's shard, the sealing batch carries the decide as well:
   the record's test-and-set from [ride.seen] to committed, and the
   flips of the participants on that shard, this one included. The
   decide then runs iff the seal commits, and the flips iff the decide
   does, all in one handler event. A failed [Swap] leaves the decide's
   fate to be asked of the record: it may be a flip's, or the record's
   at a tombstone this batch could not chase. *)
let stage ?ride t ~record ~seq part =
  let span = Trace.open_span t.trace ~kind:"txn.stage" ~label:(label t seq) () in
  let result =
    CC.routed t.client part.file (fun conn ~shard file ->
        let* opening =
          open_part ~round_trip:t.round_trip conn file part.ops (read_paths part.ops)
        in
        match opening with
        | Held image -> Ok (Ok (Held_by image))
        | Opened (version, old_root, writes) -> (
            let marker = { Marker.record; seq; old_root; writes } in
            let image = Marker.encode (Staged marker) in
            let entry = { sfile = file; marker; image } in
            let outcome = encoded_outcome ~seq ~committed:true in
            let swap, flips =
              match ride with
              | Some { seen; before } when on_shard t record shard ->
                  let room = Remote.message_cap - Bytes.length image - Bytes.length outcome in
                  ( [ record_step record ~expected:seen ~outcome ],
                    carried t ~shard ~room (before @ [ entry ]) )
              | Some _ | None -> ([], [])
            in
            let tail =
              (Remote.Commit :: swap) @ List.map (fun e -> flip_step ~forward:true e.sfile e) flips
            in
            match
              send_writes ~round_trip:t.round_trip conn version
                (version_batches ~tail [ (Pagepath.root, image) ])
            with
            | Ok answer -> (
                CC.note_commit t.client ~shard file;
                tpoint t (Trace.Txn_stage { txn = seq; file_obj = file.Capability.obj });
                match (answer, swap) with
                | Remote.Ran _, _ :: _ ->
                    List.iter (resolved t ~forward:true) flips;
                    Ok (Ok (Staged (entry, Some flips)))
                | (Remote.Ran _ | Remote.Guard_failed _), _ -> Ok (Ok (Staged (entry, None)))
                | (Remote.Reopened _ | Remote.Marked _), _ -> malformed)
            (* Answered, not raised: an in-doubt seal must not be retried
               anywhere — not even at a [Moved] target. *)
            | Error ((Store_failure _ | Moved _) as e) -> Ok (Error (Seal_in_doubt (e, entry)))
            (* A lost validation removed the version; any other failure
               refused the seal before it ran, and [send_writes] has
               abandoned the version. *)
            | Error e -> Error e))
  in
  Trace.close_span t.trace span;
  match result with Ok r -> r | Error e -> Error (Unstaged e)

(* {2 The coordinator} *)

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* A coordinator record for a transaction whose last participant lives
   on [shard], with the root data it holds: a pooled one when that shard
   has one — no message, no yield — else a fresh file. *)
let acquire_record t shard =
  let id = Shard.id shard in
  match Hashtbl.find_opt t.free id with
  | Some (pooled :: rest) ->
      Hashtbl.replace t.free id rest;
      Ok pooled
  | Some [] | None ->
      let fresh = encoded_outcome ~seq:0 ~committed:false in
      rt t;
      let* record = CC.create_file_on t.client shard ~data:fresh in
      bump t "txn.records_created";
      Ok (record, fresh)

(* Pool a record once no marker can name its latest seq (step 6). *)
let release_record t shard pooled =
  let id = Shard.id shard in
  let rest = Option.value ~default:[] (Hashtbl.find_opt t.free id) in
  Hashtbl.replace t.free id (pooled :: rest)

(* Resolve every staged participant one way but those in [done_], one
   [Swap] each, in staging order, and pool the record once every
   one has answered (step 6) — [pool] names the shard and the record, or
   is [None] when the record must never be reused. A participant that
   cannot be reached is deferred to resolvers ([deferred] counts it), and
   the record is then not reused either. Each flip (or unstage) is a span
   labelled with the participant's staging index, a crash site. *)
let resolve_all t staged ~forward ~done_ ~deferred ~pool =
  let kind = if forward then "txn.flip" else "txn.unstage" in
  let answered =
    List.fold_left
      (fun (i, answered) entry ->
        if List.memq entry done_ then (i + 1, answered)
        else begin
          let span = Trace.open_span t.trace ~kind ~label:(label t i) () in
          let applied = apply t entry ~forward in
          Trace.close_span t.trace span;
          match applied with
          | Ok () -> (i + 1, answered)
          | Error _ ->
              bump t deferred;
              (i + 1, false)
        end)
      (0, true) staged
    |> snd
  in
  if answered then Option.iter (fun (shard, pooled) -> release_record t shard pooled) pool

(* Stage one participant, waiting out other transactions' markers and
   re-staging after ordinary conflicts: the stage, and the flips it made
   if it carried a decide that committed. *)
let stage_retrying ?ride t ~record ~seq part =
  let rec attempt tries last =
    if tries > 4 * retry_limit then Error (Unstaged (Store_failure "txn: staging starved"))
    else
      match stage ?ride t ~record ~seq part with
      | Ok (Held_by image) -> (
          (* Another transaction holds this participant: wait for its
             outcome (force-aborting a dead coordinator) and try again. *)
          match waited t part.file image ~last with
          | Ok last -> attempt (tries + 1) last
          | Error e -> Error (Unstaged e))
      | Ok (Staged (entry, ridden)) -> Ok (entry, ridden)
      | Error (Unstaged Conflict) ->
          (* Only this participant raced an ordinary commit: earlier
             parts stay frozen behind their markers, so re-staging just
             this one against the new current version is sound — and far
             cheaper than redoing the transaction. This is the structural
             edge over a prepare/decide coordinator, which can only
             discover the same race by aborting every prepared
             participant. *)
          bump t "txn.stage_retries";
          if tries mod 4 = 3 then Proc.delay backoff_ms;
          attempt (tries + 1) last
      | Error _ as e -> e
  in
  attempt 0 None

let coordinated t ~on_record parts =
  bump t "txn.coordinated";
  (* Stage in capability order so two transactions over the same files
     collide head-on (and resolve) instead of staging each other's tails. *)
  let parts = List.sort (fun a b -> Capability.compare a.file b.file) parts in
  match List.rev parts with
  | [] -> Ok ()
  | last :: rev_before -> (
      (* The record lives on the last participant's shard, so that the
         last seal can carry the decide — placement is explicit, so the
         round-robin cursor (and with it the workload's file layout) is
         unperturbed. *)
      let acquired =
        let* _, shard = Afs_cluster.Cluster.shard_of_cap (CC.cluster t.client) last.file in
        let* record, seen = acquire_record t shard in
        Ok (shard, record, seen)
      in
      match acquired with
      | Error e -> Error (Failed e)
      | Ok (shard, record, seen) -> (
          (* Numbered only now, so the seq exceeds every seq already
             decided on the record however long the acquisition took. *)
          let seq = fresh_seq t in
          let span = Trace.open_span t.trace ~kind:"txn.coord" ~label:(label t seq) () in
          let finish r =
            Trace.close_span t.trace span;
            r
          in
          (match on_record with Some f -> f record seq | None -> ());
          let pool value = Some (shard, (record, value)) in
          let unstage_all staged pool =
            resolve_all t staged ~forward:false ~done_:[] ~deferred:"txn.unstage_deferred" ~pool
          in
          let decided ?(flipped = []) staged = function
            | Error e -> finish (Error (Failed e))
            | Ok (Aborted, value) ->
                (* A contender force-aborted the record between our last
                   stage and the decide. *)
                unstage_all staged (pool value);
                finish (Error (Cross Conflict))
            | Ok ((Pending | Superseded | Unknown_record), _) ->
                finish (Error (Failed (Store_failure "txn: impossible record state")))
            | Ok (Committed, value) ->
                bump t "txn.committed";
                (* The transaction is committed the moment the record is;
                   flips are completion, not decision. The decide carried
                   those on the record's shard. *)
                resolve_all t staged ~forward:true ~done_:flipped ~deferred:"txn.flip_deferred"
                  ~pool:(pool value);
                finish (Ok ())
          in
          (* Close the record first, so no resolver can roll the staged
             prefix forward while it is being unstaged. Like a cross
             abort, the record is pooled again only once every unstage
             answered — and never after an in-doubt seal, whose marker
             may yet surface and must still resolve against this seq's
             outcome. A seal that carried the decide may have committed
             both: the record then says committed, and the transaction
             is rolled forward instead. *)
          let rollback staged failure =
            let e, in_doubt =
              match failure with
              | Unstaged e -> (e, None)
              | Seal_in_doubt (e, entry) ->
                  bump t "txn.seal_in_doubt";
                  (e, Some entry)
            in
            match decide_record t ~record ~seq ~seen ~commit:false with
            | Ok (Committed, _) as committed ->
                tpoint t (Trace.Txn_decide { txn = seq; committed = true });
                decided (staged @ Option.to_list in_doubt) committed
            | Ok (final, value) ->
                unstage_all staged
                  (if final = Aborted && Option.is_none in_doubt then pool value else None);
                finish (Error (Failed e))
            | Error _ ->
                bump t "txn.rollback_deferred";
                finish (Error (Failed e))
          in
          let rec stage_all staged = function
            | [] -> Ok (List.rev staged)
            | part :: rest -> (
                match stage_retrying t ~record ~seq part with
                | Ok (entry, _) -> stage_all (entry :: staged) rest
                | Error e -> Error (staged, e))
          in
          match stage_all [] (List.rev rev_before) with
          | Error (staged, e) -> rollback staged e
          | Ok before -> (
              let dspan =
                Trace.open_span t.trace ~kind:"txn.decide" ~label:(label t seq) ()
              in
              match stage_retrying ~ride:{ seen; before } t ~record ~seq last with
              | Error e ->
                  Trace.close_span t.trace dspan;
                  rollback before e
              | Ok (entry, ridden) ->
                  let staged = before @ [ entry ] in
                  let decision =
                    match ridden with
                    | Some _ -> Ok (Committed, encoded_outcome ~seq ~committed:true)
                    | None ->
                        (* The record is elsewhere — a migration moved one
                           of them — or its [Swap] failed: the decide takes
                           a message of its own. *)
                        decide_record t ~record ~seq ~seen ~commit:true
                  in
                  (match decision with
                  | Ok (final, _) ->
                      tpoint t (Trace.Txn_decide { txn = seq; committed = final = Committed })
                  | Error _ -> ());
                  Trace.close_span t.trace dspan;
                  decided ?flipped:ridden staged decision)))

let exec ?on_record t parts =
  match parts with
  | [] -> Ok ()
  | [ { file; ops } ] -> (
      (* One participant needs no coordination: the single-shard commit
         is already atomic. No redo: a conflict is the caller's. *)
      match update t ~tries:{ made = 1; allowed = 1 } file ops with
      | Ok () ->
          bump t "txn.committed";
          Ok ()
      | Error Conflict -> Error (Local Conflict)
      | Error e -> Error (Failed e))
  | parts -> coordinated t ~on_record parts

(* {2 Recovery} *)

(* A sweep presumes a pending coordinator dead: it awaits nothing, and
   flips what it finds itself. *)
let sweep t files =
  List.fold_left
    (fun acc file ->
      let* n = acc in
      let* root = root_data t file in
      match Marker.decode root with
      | Some (Moved _ | Outcome _) | None -> Ok n
      | Some (Staged marker) ->
          bump t "txn.in_doubt";
          let* () =
            resolving t (fun () ->
                let* decision = outcome t ~budget_ms:0.0 file marker in
                settle t { sfile = file; marker; image = root } decision)
          in
          Ok (n + 1))
    (Ok 0) files
