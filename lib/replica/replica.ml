(* Shard replication by commit-stream log shipping.

   The primary's publish stage already produces the exact unit worth
   replicating: the winners' pages and their commit references. A
   [Source] wraps the primary's store so every successful mutation (page
   write-backs, allocations, frees) is captured as a [Store.op]; the
   server's [publish_tap] then acts as the gate — when a publish is about
   to make a batch of pages and commit references durable, the captured
   operations plus that batch are cut into one sequenced batch and fed to the
   attached replicas. Feeding is synchronous (it models the reliable
   append to a replication log on the commit path and costs no simulated
   time); application is asynchronous — each replica drains its queue a
   fixed virtual-time interval later, so replication lag is real and
   observable per shard.

   Fencing reuses the paper's own commit mechanism. Each source owns an
   epoch register, identified by a block allocated on the primary store
   (allocated, never written — recovery skips it). Promotion is a
   test-and-set on that register: it succeeds only against the expected
   epoch and bumps it, so a deposed primary's next publish finds the
   epoch moved, loses its test-and-set and aborts the commit cleanly —
   the transaction is reported aborted, never silently lost. *)

module Engine = Afs_sim.Engine
module Store = Afs_core.Store
module Page = Afs_core.Page
module Errors = Afs_core.Errors
module Stats = Afs_util.Stats
module Trace = Afs_trace.Trace
module Rpc = Afs_rpc.Rpc

type register = { block : int; mutable epoch : int }

let register_epoch r = r.epoch

type batch = { seq : int; epoch : int; ship_at : float; ops : Store.op list }

type t = {
  engine : Engine.t;
  shard : int;
  store : Store.t;
  reg : register;
  mutable epoch : int;  (** Epoch of the stream this replica follows. *)
  queue : batch Queue.t;
  mutable shipped_seq : int;
  mutable applied_seq : int;
  mutable armed : bool;  (** An apply event is already scheduled. *)
  lag : Stats.Histogram.t;
  counters : Stats.Counter.t;
  mutable failed : string option;  (** First apply error, sticky. *)
  trace : Trace.t;
}

(* The virtual-time delay between a feed and the drain that applies it. *)
let apply_interval_ms = 5.0

let create ?store ~counters ?(trace = Trace.null) engine ~shard ~reg () =
  let store = match store with Some s -> s | None -> Store.memory () in
  {
    engine;
    shard;
    store;
    reg;
    epoch = reg.epoch;
    queue = Queue.create ();
    shipped_seq = 0;
    applied_seq = 0;
    armed = false;
    lag = Stats.Histogram.create ();
    counters;
    failed = None;
    trace;
  }

let store r = r.store
let epoch r = r.epoch
let applied_seq r = r.applied_seq
let shipped_seq r = r.shipped_seq
let queued r = Queue.length r.queue
let lag_histogram r = r.lag
let failure r = r.failed

let tpoint r payload = if Trace.enabled r.trace then Trace.point r.trace payload

let apply_batch r b =
  match r.failed with
  | Some _ -> ()
  | None -> (
      match Store.apply_ops r.store b.ops with
      | Ok () ->
          r.applied_seq <- b.seq;
          let lag_ms = Engine.now r.engine -. b.ship_at in
          Stats.Histogram.add r.lag lag_ms;
          Stats.Counter.incr r.counters "replica.applied";
          tpoint r (Trace.Ship_apply { seq = b.seq; ops = List.length b.ops; lag_ms })
      | Error msg ->
          (* Divergence is terminal for this replica: applying further
             batches onto a hole could only corrupt it. The failure is
             sticky and visible to the report/tests. *)
          r.failed <- Some msg)

let drain r =
  while not (Queue.is_empty r.queue) do
    apply_batch r (Queue.pop r.queue)
  done

(* Arm one apply event per quiet period: the first feed after an empty
   queue schedules a drain [apply_interval_ms] later; batches fed in the
   meantime ride the same event. No standing process — the engine must
   quiesce when the workload does. *)
let arm r =
  if not r.armed then begin
    r.armed <- true;
    Engine.at r.engine apply_interval_ms (fun () ->
        r.armed <- false;
        drain r)
  end

let feed r b =
  Queue.add b r.queue;
  r.shipped_seq <- b.seq;
  arm r

let promote r ~expected_epoch =
  if r.reg.epoch <> expected_epoch then begin
    tpoint r (Trace.Fence { epoch = r.reg.epoch; stale = expected_epoch });
    tpoint r (Trace.Test_and_set { block = r.reg.block; won = false });
    Error Errors.Conflict
  end
  else begin
    (* Win the register first, then catch up: any batch already fed was
       gated under the old epoch, before the deposed primary could have
       acked anything newer. *)
    r.reg.epoch <- expected_epoch + 1;
    drain r;
    r.epoch <- r.reg.epoch;
    tpoint r (Trace.Test_and_set { block = r.reg.block; won = true });
    tpoint r
      (Trace.Promote { shard = r.shard; epoch = r.reg.epoch; watermark = r.applied_seq });
    match r.failed with
    | None -> Ok ()
    | Some msg -> Error (Errors.Store_failure ("replica diverged: " ^ msg))
  end

(* A sibling replica re-homing onto the freshly promoted primary's
   stream: catch up on everything the old primary fed (the streams are
   identical — feeding was synchronous to all replicas), then follow the
   new epoch. *)
let adopt r ~epoch =
  drain r;
  r.epoch <- epoch

(* {2 The primary-side source} *)

module Source = struct
  type source = {
    engine : Engine.t;
    capture : Store.t;
    reg : register;
    born_epoch : int;  (** The register epoch when this source was primary. *)
    buffer : Store.op list ref;  (** Captured ops since the last cut, newest first. *)
    mutable seq : int;
    mutable replicas : t list;
    counters : Stats.Counter.t;
    trace : Trace.t;
  }

  let create ?reg ?(seq = 0) ~counters ?(trace = Trace.null) engine store =
    let buffer = ref [] in
    let record op = buffer := op :: !buffer in
    let capture =
      {
        store with
        Store.allocate =
          (fun () ->
            match store.Store.allocate () with
            | Ok b ->
                record (Store.Alloc b);
                Ok b
            | Error _ as e -> e);
        free =
          (fun b ->
            match store.Store.free b with
            | Ok () ->
                record (Store.Free b);
                Ok ()
            | Error _ as e -> e);
        write =
          (fun b data ->
            match store.Store.write b data with
            | Ok () ->
                record (Store.Write (b, data));
                Ok ()
            | Error _ as e -> e);
        (* [write_batch] is not captured: its one caller is the publish
           leg, whose pages and references the gate has already cut. *)
      }
    in
    let reg =
      match reg with
      | Some r -> r
      | None -> (
          (* The register's identity is a block of the primary store:
             allocated through the capture wrapper so the allocation
             ships, never written so recovery skips it. *)
          match capture.Store.allocate () with
          | Ok block -> { block; epoch = 0 }
          | Error msg -> invalid_arg ("Replica.Source.create: " ^ msg))
    in
    {
      engine;
      capture;
      reg;
      born_epoch = reg.epoch;
      buffer;
      seq;
      replicas = [];
      counters;
      trace;
    }

  let capture_store s = s.capture
  let register s = s.reg
  let born_epoch s = s.born_epoch
  let shipped_seq s = s.seq
  let fenced s = s.reg.epoch <> s.born_epoch

  let attach s r = s.replicas <- s.replicas @ [ r ]

  (* Cut the captured buffer, plus the pages and commit references a
     publish is carrying, into one sequenced batch and feed it to every
     replica. They are encoded exactly as the primary's page store is
     about to write them, so replica bytes match primary bytes. *)
  let cut s refs =
    let ops =
      List.rev_append !(s.buffer)
        (List.map (fun (b, p) -> Store.Write (b, Page.encode p)) refs)
    in
    s.buffer := [];
    if ops <> [] then begin
      s.seq <- s.seq + 1;
      let batch =
        { seq = s.seq; epoch = s.born_epoch; ship_at = Engine.now s.engine; ops }
      in
      Stats.Counter.incr s.counters "replica.shipped";
      (if Trace.enabled s.trace then
         Trace.point s.trace
           (Trace.Ship { seq = batch.seq; ops = List.length ops; epoch = batch.epoch }));
      List.iter (fun r -> feed r batch) s.replicas
    end

  let gate s refs =
    if fenced s then begin
      (* The register moved since this source was primary: a promotion
         happened. Lose the test-and-set; the commit aborts before any
         reference reaches the store. *)
      Stats.Counter.incr s.counters "replica.fenced";
      (if Trace.enabled s.trace then begin
         Trace.point s.trace (Trace.Fence { epoch = s.reg.epoch; stale = s.born_epoch });
         Trace.point s.trace (Trace.Test_and_set { block = s.reg.block; won = false })
       end);
      Error Errors.Conflict
    end
    else begin
      cut s refs;
      Ok ()
    end

  let tap s refs = gate s refs
  let flush s = if not (fenced s) then cut s []
end

(* {2 Byte-identity}

   The property the whole scheme is judged by: after the ship queue is
   drained, a replica's store is byte-identical to the primary's. The
   digest is every allocated block with its readable contents (the epoch
   register is allocated-never-written on both sides and digests as
   [None]). *)

let store_digest (store : Store.t) =
  match store.Store.list_blocks () with
  | Error msg -> Error (Errors.Store_failure msg)
  | Ok blocks ->
      Ok
        (List.map
           (fun b ->
             ( b,
               match store.Store.read b with
               | Ok image -> Some (Afs_util.Image.to_bytes image)
               | Error _ -> None ))
           blocks)

(* {2 The replica as a remote service}

   A replica's endpoint answers one request, the promotion: the epoch
   the caller expects in, the applied watermark out. It has no server,
   no capabilities and no files until promotion builds a server over its
   store, and it is fed through the publish gate, not over the wire. *)

let host ?latency_ms ?proc_ms engine ~name r =
  Rpc.serve ?latency_ms ?proc_ms ~describe:(fun _ -> "promote") engine ~name
    ~handler:(fun expected_epoch ->
      Result.map (fun () -> r.applied_seq) (promote r ~expected_epoch))
