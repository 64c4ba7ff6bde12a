(* The per-layer ledger of one round: a streaming trace sink that
   aggregates in memory (a ring would overflow at tens of events per
   commit) plus bench-side wrappers around synchronous public calls — the
   RPC host handler, the store record and the collector.

   Host time and allocation are only taken around synchronous sections
   (commit spans and the wrappers): a suspending span's wall-clock bracket
   would include other clients' work. Suspending spans contribute
   simulated time only. The ledger records nothing until {!start} and
   nothing after {!stop}, so set-up and post-run audits stay out of it. *)

module Trace = Afs_trace.Trace
module Store = Afs_core.Store
module Server = Afs_core.Server
module Core_gc = Afs_core.Gc
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Disk = Afs_disk.Disk

(* Neumaier-compensated float sum: event timestamps reach 1e5 ms and a
   round adds millions of them, so a plain sum would lose the 1e-9
   agreement between the latency breakdown and end-to-end latency. *)
module Sum = struct
  type t = { mutable sum : float; mutable comp : float }

  let create () = { sum = 0.0; comp = 0.0 }

  let add t x =
    let s = t.sum +. x in
    if Float.abs t.sum >= Float.abs x then t.comp <- t.comp +. (t.sum -. s +. x)
    else t.comp <- t.comp +. (x -. s +. t.sum);
    t.sum <- s

  let value t = t.sum +. t.comp
end

type host_cost = { mutable seconds : float; mutable words : float }

let host_cost () = { seconds = 0.0; words = 0.0 }

(* Run [f], charging its wall time and allocation to [cost]. *)
let timed cost f =
  let w0 = Clock.wall_s () and a0 = Clock.minor_words () in
  let r = f () in
  cost.seconds <- cost.seconds +. (Clock.wall_s () -. w0);
  cost.words <- cost.words +. (Clock.minor_words () -. a0);
  r

type open_span = { kind : string; at : float; wall : float; words : float }

type t = {
  mutable active : bool;
  mutable events : int;
  rtt : Sum.t;  (** Σ reply times − Σ request times, in simulated ms. *)
  mutable sends : int;
  mutable timeouts : int;
  ops : (string, int ref) Hashtbl.t;  (** Requests sent, by request kind. *)
  (* Replies per server inside the throughput window, for occupancy. *)
  mutable in_window : bool;
  served : (string, int ref) Hashtbl.t;
  mutable legs : int;  (** Stable-pair legs. *)
  spans : (int, open_span) Hashtbl.t;
  sim_ms : (string, Sum.t) Hashtbl.t;  (** Simulated time inside suspending spans, by kind. *)
  commit : host_cost;  (** Host cost inside server commit spans. *)
  handler : host_cost;  (** Host cost inside the RPC host handler. *)
  storage_ms : Sum.t;  (** Disk busy time charged inside handlers. *)
  storage_window_ms : Sum.t;
  store : host_cost;
  mutable store_reads : int;
  mutable store_writes : int;
  mutable store_batches : int;
  mutable store_bytes : int;
  gc : host_cost;
  mutable gc_freed : int;
  mutable gc_errors : string list;
}

let create () =
  {
    active = false;
    events = 0;
    rtt = Sum.create ();
    sends = 0;
    timeouts = 0;
    ops = Hashtbl.create 16;
    in_window = false;
    served = Hashtbl.create 8;
    legs = 0;
    spans = Hashtbl.create 64;
    sim_ms = Hashtbl.create 8;
    commit = host_cost ();
    handler = host_cost ();
    storage_ms = Sum.create ();
    storage_window_ms = Sum.create ();
    store = host_cost ();
    store_reads = 0;
    store_writes = 0;
    store_batches = 0;
    store_bytes = 0;
    gc = host_cost ();
    gc_freed = 0;
    gc_errors = [];
  }

let start t = t.active <- true
let stop t = t.active <- false
let set_window t inside = t.in_window <- inside

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.replace table key (ref 1)

let count table key = match Hashtbl.find_opt table key with Some r -> !r | None -> 0

(* Synchronous spans are costed in host time; suspending ones in
   simulated time. *)
let host_kinds = [ "commit"; "commit_batch" ]
let sim_kinds = [ "txn.stage"; "txn.decide"; "txn.resolve" ]

let on_event t ev =
  if t.active then begin
    t.events <- t.events + 1;
    match ev with
    | Trace.Point { at_ms; payload = Trace.Rpc_send { op; _ }; _ } ->
        Sum.add t.rtt (-.at_ms);
        t.sends <- t.sends + 1;
        bump t.ops op
    | Trace.Point { at_ms; payload = Trace.Rpc_recv { server; _ }; _ } ->
        Sum.add t.rtt at_ms;
        if t.in_window then bump t.served server
    | Trace.Point { payload = Trace.Rpc_timeout _; _ } -> t.timeouts <- t.timeouts + 1
    | Trace.Point { payload = Trace.Stable_leg _; _ } -> t.legs <- t.legs + 1
    | Trace.Point _ -> ()
    | Trace.Span_open { id; kind; at_ms; _ } ->
        if List.mem kind host_kinds || List.mem kind sim_kinds then
          Hashtbl.replace t.spans id
            { kind; at = at_ms; wall = Clock.wall_s (); words = Clock.minor_words () }
    | Trace.Span_close { id; at_ms; _ } -> (
        match Hashtbl.find_opt t.spans id with
        | None -> ()
        | Some s ->
            Hashtbl.remove t.spans id;
            if List.mem s.kind host_kinds then begin
              t.commit.seconds <- t.commit.seconds +. (Clock.wall_s () -. s.wall);
              t.commit.words <- t.commit.words +. (Clock.minor_words () -. s.words)
            end
            else begin
              let sum =
                match Hashtbl.find_opt t.sim_ms s.kind with
                | Some sum -> sum
                | None ->
                    let sum = Sum.create () in
                    Hashtbl.replace t.sim_ms s.kind sum;
                    sum
              in
              Sum.add sum (at_ms -. s.at)
            end)
  end

let sim_ms t kind = match Hashtbl.find_opt t.sim_ms kind with Some s -> Sum.value s | None -> 0.0

(* {2 Wrappers around synchronous public calls} *)

let disks_busy disks = List.fold_left (fun acc d -> acc +. (Disk.stats d).Disk.busy_ms) 0.0 disks

(* [Remote.host ?wrap]: host cost of each request's handler, and the
   disk time the RPC layer will charge for it (the same busy-time growth
   [Rpc.serve] measures). *)
let wrap_handler t ~disks (base : Remote.request -> Remote.response) req =
  if not t.active then base req
  else begin
    let before = disks_busy disks in
    let resp = timed t.handler (fun () -> base req) in
    let storage = disks_busy disks -. before in
    Sum.add t.storage_ms storage;
    if t.in_window then Sum.add t.storage_window_ms storage;
    resp
  end

let wrap_store t (s : Store.t) =
  let op f = if t.active then timed t.store f else f () in
  {
    s with
    Store.read =
      (fun b ->
        if t.active then t.store_reads <- t.store_reads + 1;
        op (fun () -> s.Store.read b));
    write =
      (fun b data ->
        if t.active then begin
          t.store_writes <- t.store_writes + 1;
          t.store_bytes <- t.store_bytes + Bytes.length data
        end;
        op (fun () -> s.Store.write b data));
    write_batch =
      (fun entries ->
        if t.active then begin
          t.store_batches <- t.store_batches + 1;
          List.iter
            (fun (_, data) ->
              t.store_writes <- t.store_writes + 1;
              t.store_bytes <- t.store_bytes + Bytes.length data)
            entries
        end;
        op (fun () -> s.Store.write_batch entries));
  }

(* [Core_gc.collect], costed; any error fails the round. Always on: a
   handful of calls per round, so it costs nothing measurable. *)
let collect t ~policy server =
  match timed t.gc (fun () -> Core_gc.collect ~policy server) with
  | Ok stats -> t.gc_freed <- t.gc_freed + stats.Core_gc.blocks_freed
  | Error e ->
      t.gc_errors <-
        Printf.sprintf "Core_gc.collect on %s: %s" (Server.name server) (Errors.to_string e)
        :: t.gc_errors
