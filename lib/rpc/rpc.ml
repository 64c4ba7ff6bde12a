module Engine = Afs_sim.Engine
module Ivar = Afs_sim.Ivar
module Disk = Afs_disk.Disk
module Trace = Afs_trace.Trace

type call_error = Timeout | Server_crashed

let pp_call_error ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | Server_crashed -> Fmt.string ppf "server crashed"

(* Client-side request timeout against a dead server. *)
let timeout_ms = 500.0

type ('req, 'resp) pending = {
  req : 'req;
  op : string;
  reply : ('resp, call_error) result Ivar.t;
}

(* Group-commit front end: while the server is busy (one batch in its
   processing/publish window) batchable requests queue; when it frees up,
   up to [window] of them are drained and handed to [handle_batch] as one
   unit, paying the per-request overheads once. *)
type ('req, 'resp) batcher = {
  window : int;  (** Max requests served as one batch; must be >= 1. *)
  batchable : 'req -> bool;
  handle_batch : 'req list -> 'resp list;  (** Same length, same order. *)
}

(* Which requests a server serves out of turn: those [First] picks ahead
   of the rest, or batchable requests drained as one [Batching] batch. *)
type ('req, 'resp) policy = First of ('req -> bool) | Batching of ('req, 'resp) batcher

(* Held requests: answered late, without keeping the server busy. *)
type ('req, 'resp) holding = {
  hold : 'req -> 'resp -> float option;
  recheck : unit -> 'req -> 'resp -> 'resp option;
}

(* A request the server holds, with the answer it was held with. [live]
   turns false once it is answered or failed, so its expiry does nothing. *)
type ('req, 'resp) held = {
  pending : ('req, 'resp) pending;
  answer : 'resp;
  mutable live : bool;
}

type ('req, 'resp) t = {
  engine : Engine.t;
  name : string;
  handler : 'req -> 'resp;
  policy : ('req, 'resp) policy option;
  holding : ('req, 'resp) holding option;
  describe : 'req -> string;
  latency_ms : float;
  proc_ms : float;
  disks : Disk.t list;
  ahead : ('req, 'resp) pending Queue.t;  (** Requests [First] picked. *)
  queue : ('req, 'resp) pending Queue.t;  (** Every other request. *)
  mutable held : ('req, 'resp) held list;  (** Newest first. *)
  mutable up : bool;
  mutable busy : bool;
  mutable life : ('req, 'resp) life;
  mutable served : int;
}

(* One incarnation of the server process, from start or restart to its
   crash. A service slot's completion holds the incarnation that began
   it in place of the server, so checking it costs no allocation. *)
and ('req, 'resp) life = { server : ('req, 'resp) t; mutable over : bool }

let trace t = Engine.trace t.engine

let disks_busy t = List.fold_left (fun acc d -> acc +. Disk.busy_ms d) 0.0 t.disks

(* Collect up to [window] batchable requests from the queue in service
   order; every other request keeps its position. The commits that queued
   while the previous batch was in flight are exactly the next batch. *)
let drain_batch t (b : _ batcher) first =
  let members = ref [ first ] and n = ref 1 in
  let keep = Queue.create () in
  Queue.iter
    (fun p ->
      if !n < b.window && b.batchable p.req then begin
        members := p :: !members;
        incr n
      end
      else Queue.add p keep)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue;
  List.rev !members

(* The next request to serve: the oldest that [First] picked, if any,
   else the oldest of the rest. *)
let take t = match Queue.take_opt t.ahead with None -> Queue.take_opt t.queue | next -> next

let deliver t p resp =
  let tr = trace t in
  if Trace.enabled tr then Trace.point tr (Trace.Rpc_recv { server = t.name; op = p.op });
  ignore (Ivar.try_fill p.reply (Ok resp))

(* After a request or batch whose replies leave [delay] from now: offer
   every held request the holder's fresh test, and answer those it
   passes at the same moment as that reply, just behind it. *)
let recheck t delay =
  match t.holding with
  | None -> ()
  | Some h ->
      let test = h.recheck () in
      let kept =
        List.filter
          (fun e ->
            match test e.pending.req e.answer with
            | None -> true
            | Some resp ->
                e.live <- false;
                Engine.at t.engine delay (fun () -> deliver t e.pending resp);
                false)
          (List.rev t.held)
      in
      t.held <- List.rev kept

(* Hold [p], answered [resp] after [delay], instead of answering it: the
   answer goes out [budget] later unless [recheck] answers it first. *)
let hold t p resp ~delay ~budget =
  let e = { pending = p; answer = resp; live = true } in
  t.held <- e :: t.held;
  Engine.at t.engine (delay +. budget) (fun () ->
      if e.live then begin
        e.live <- false;
        t.held <- List.filter (fun e' -> e' != e) t.held;
        deliver t p resp
      end)

(* Serve queued requests one at a time — or, with a batcher installed, up
   to [window] batchable requests at once — charging processing and
   storage time between accepting the work and delivering the replies.
   A slot's end frees the server only in the incarnation that began it:
   after a crash and a restart inside the slot, the new incarnation's own
   slots decide when it is free. *)
let rec pump t =
  if t.up && not t.busy then
    match take t with
    | None -> ()
    | Some ({ req; _ } as first) -> (
        match t.policy with
        | Some (Batching b) when b.batchable req ->
            let members = drain_batch t b first in
            t.busy <- true;
            let before = disks_busy t in
            let reqs = List.map (fun p -> p.req) members in
            let tr = trace t in
            let resps =
              if Trace.costing tr then
                Trace.costed tr ~kind:"rpc.serve" (fun () -> b.handle_batch reqs)
              else b.handle_batch reqs
            in
            let storage = disks_busy t -. before in
            t.served <- t.served + List.length members;
            let delay = t.proc_ms +. storage +. t.latency_ms in
            let life = t.life in
            Engine.at t.engine delay (fun () ->
                List.iter2 (deliver life.server) members resps;
                free life);
            if t.held <> [] then recheck t delay
        | _ ->
            t.busy <- true;
            let before = disks_busy t in
            let tr = trace t in
            let resp =
              if Trace.costing tr then Trace.costed tr ~kind:"rpc.serve" (fun () -> t.handler req)
              else t.handler req
            in
            let storage = disks_busy t -. before in
            t.served <- t.served + 1;
            let delay = t.proc_ms +. storage +. t.latency_ms in
            let budget =
              match t.holding with Some h -> h.hold req resp | None -> None
            in
            let life = t.life in
            Engine.at t.engine delay (fun () ->
                if Option.is_none budget then deliver life.server first resp;
                free life);
            if t.held <> [] then recheck t delay;
            match budget with Some budget -> hold t first resp ~delay ~budget | None -> ())

and free life =
  if not life.over then begin
    life.server.busy <- false;
    pump life.server
  end

let serve ?(latency_ms = 2.0) ?(proc_ms = 0.2) ?(disks = []) ?policy ?holding
    ?(describe = fun _ -> "request") engine ~name ~handler =
  let rec t =
    {
      engine;
      name;
      handler;
      policy;
      holding;
      describe;
      latency_ms;
      proc_ms;
      disks;
      ahead = Queue.create ();
      queue = Queue.create ();
      held = [];
      up = true;
      busy = false;
      life;
      served = 0;
    }
  and life = { server = t; over = false } in
  t

let call t req =
  let reply = Ivar.create () in
  let tr = trace t in
  let op = if Trace.enabled tr then t.describe req else "" in
  if Trace.enabled tr then Trace.point tr (Trace.Rpc_send { server = t.name; op });
  let fail_after delay err =
    Engine.at t.engine delay (fun () ->
        if Ivar.try_fill reply (Error err) && Trace.enabled tr then
          Trace.point tr (Trace.Rpc_timeout { server = t.name; op }))
  in
  if not t.up then begin
    (* Nothing is listening: the transaction times out. *)
    fail_after timeout_ms Timeout;
    Ivar.read reply
  end
  else begin
    Engine.at t.engine t.latency_ms (fun () ->
        if t.up then begin
          let p = { req; op; reply } in
          (match t.policy with
          | Some (First first) when first req -> Queue.add p t.ahead
          | Some (First _ | Batching _) | None -> Queue.add p t.queue);
          pump t
        end
        else fail_after timeout_ms Server_crashed);
    Ivar.read reply
  end

let crash t =
  t.up <- false;
  t.busy <- false;
  t.life.over <- true;
  t.life <- { server = t; over = false };
  let tr = trace t in
  if Trace.enabled tr then
    Trace.point tr (Trace.Crash { component = t.name; what = "crash" });
  let held =
    List.rev_map
      (fun e ->
        e.live <- false;
        e.pending)
      t.held
  in
  let doomed = List.of_seq (Seq.append (Queue.to_seq t.ahead) (Queue.to_seq t.queue)) @ held in
  Queue.clear t.ahead;
  Queue.clear t.queue;
  t.held <- [];
  List.iter
    (fun { op; reply; _ } ->
      Engine.at t.engine timeout_ms (fun () ->
          if Ivar.try_fill reply (Error Server_crashed) && Trace.enabled tr then
            Trace.point tr (Trace.Rpc_timeout { server = t.name; op })))
    doomed

let restart t =
  t.up <- true;
  let tr = trace t in
  if Trace.enabled tr then
    Trace.point tr (Trace.Crash { component = t.name; what = "restart" })

let is_up t = t.up
let requests_served t = t.served
