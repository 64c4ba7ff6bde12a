(** Transaction-style request/reply RPC over the simulation engine.

    Amoeba's primitive is the transaction: a client sends a request of at
    most 32K bytes to a service port and blocks for the reply. This module
    gives that shape to any [('req, 'resp)] handler and adds the two
    failure modes the paper's protocols must tolerate: a server crash
    (pending and future requests fail after a timeout) and plain latency.

    Handlers run atomically within one simulated event — a server process
    serves one request at a time, so concurrent clients interleave at
    request granularity, which is exactly the serialisation the real
    Amoeba server loop provides.

    {b Queue order.} A request joins the queue when it arrives, and the
    server takes the next one each time it frees up. Requests that a
    [First] policy picks are served before every other queued request;
    within each class the order is arrival order. Otherwise the queue is
    plain FIFO. Replies leave in service order. *)

type ('req, 'resp) t

type call_error = Timeout | Server_crashed

val pp_call_error : call_error Fmt.t

type ('req, 'resp) batcher = {
  window : int;  (** Max requests served as one batch; must be >= 1. *)
  batchable : 'req -> bool;
  handle_batch : 'req list -> 'resp list;
      (** Must return one response per request, in order. *)
}
(** Group-commit front end. While the server is busy, batchable requests
    queue like any other; when it frees up, up to [window] of them are
    drained from the queue (FIFO among themselves, non-batchable requests
    keep their positions) and handed to [handle_batch] as one unit,
    charging [proc_ms], storage growth and the reply latency once for
    the whole batch. Other requests are served alone, in queue order. *)

type ('req, 'resp) policy =
  | First of ('req -> bool)
      (** Serve the requests the predicate picks, on arrival, ahead of the
          rest (see the queue order above); it is asked once per request,
          before its handler runs. *)
  | Batching of ('req, 'resp) batcher
(** Which requests a server serves out of turn. A server does one or the
    other: serving picked requests first leaves no queue to drain as a
    batch. Without a policy each request is served alone, FIFO. *)

type ('req, 'resp) holding = {
  hold : 'req -> 'resp -> float option;
      (** Asked once the handler has answered a request: [Some budget_ms]
          holds the request instead of replying. *)
  recheck : unit -> 'req -> 'resp -> 'resp option;
      (** After every request or batch the server serves while it holds
          any, [recheck ()] is applied to each held request and the answer
          it was held with; [Some answer] replies with that at once. *)
}
(** Held requests: a request the server holds costs it its handler run,
    like any other, but then waits without keeping the server busy.
    Every held request is answered by the first of:
    - a [recheck] that returns an answer; the reply goes out with the
      reply of the request or batch that was just served, right behind
      it;
    - the end of its budget; the reply it was held with then goes out
      [budget_ms] later than it would have without the hold.

    A crash fails held requests as it fails queued ones, and {!restart}
    does not bring them back. *)

val serve :
  ?latency_ms:float ->
  ?proc_ms:float ->
  ?disks:Afs_disk.Disk.t list ->
  ?policy:('req, 'resp) policy ->
  ?holding:('req, 'resp) holding ->
  ?describe:('req -> string) ->
  Afs_sim.Engine.t ->
  name:string ->
  handler:('req -> 'resp) ->
  ('req, 'resp) t
(** [latency_ms] is charged each way per message; [proc_ms] per request of
    server CPU; if [disks] are given, the growth of their busy time during
    the handler is charged as well, so storage latency shows up in client
    round trips. [describe] labels requests in trace events
    (only called when the engine's trace is enabled). With host cost on
    in the engine's trace, each served request, or each batch a batching
    policy hands over at once, is one host-costed section of kind
    [rpc.serve] ({!Afs_trace.Trace.costed}); it emits no event. *)

val call : ('req, 'resp) t -> 'req -> ('resp, call_error) result
(** Must run inside a {!Afs_sim.Proc} process. Blocks for the reply. *)

val crash : ('req, 'resp) t -> unit
(** The server process dies: queued requests of both classes, held
    requests and requests still on their way in fail with
    [Server_crashed] (after the client-side timeout), each exactly once;
    later calls fail with [Timeout]. A request already in service keeps
    its reply, since its handler has run. *)

val restart : ('req, 'resp) t -> unit
(** Bring the server back (its handler state is whatever the underlying
    service says it is — volatile loss is the service's business). It
    starts idle: a service slot that began before the crash still answers
    its request when it ends, but does not free the restarted server,
    which serves one request at a time from its own slots. *)

val is_up : ('req, 'resp) t -> bool

val requests_served : ('req, 'resp) t -> int
