(* Deterministic fault schedules: labeled actions at virtual times, with
   optional seeded jitter, each run inside a fresh process so an action
   may block (RPC calls — the promotion path does), plus kills keyed by
   trace events. Same seed, same schedule, same run. *)

module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng
module Trace = Afs_trace.Trace

(* A kill armed by [killing]: its process, and the event it fires at. *)
type kill = { proc : Proc.handle; label : string; pred : Trace.event -> bool }

type t = {
  engine : Engine.t;
  jitter : (Xrng.t * float) option;  (** Generator and jitter bound (ms). *)
  mutable trace : Trace.t;
  mutable kills : kill list;
}

let create ?seed ?(jitter_ms = 0.0) engine =
  let jitter =
    match seed with
    | Some s when jitter_ms > 0.0 -> Some (Xrng.create s, jitter_ms)
    | Some _ | None -> None
  in
  { engine; jitter; trace = Trace.null; kills = [] }

let set_trace t tr = t.trace <- tr

let fire t label =
  let fields = [ ("label", Trace.Str label); ("at_ms", Trace.Float (Engine.now t.engine)) ] in
  Trace.point t.trace (Trace.Generic { kind = "fault.fire"; fields })

(* Jitter is drawn at scheduling time (in schedule order), not at fire
   time, so the draw sequence — and therefore the whole schedule — is a
   pure function of the seed and the [at] call order. *)
let at t ~ms ~label fn =
  if ms < 0.0 then invalid_arg "Faults.at: negative trigger time";
  let delay =
    match t.jitter with Some (rng, bound) -> ms +. Xrng.float rng bound | None -> ms
  in
  Engine.at t.engine delay (fun () ->
      fire t label;
      ignore (Proc.spawn ~name:("fault:" ^ label) t.engine fn))

let disarm t kill = t.kills <- List.filter (fun k -> k != kill) t.kills

(* The kill raises inside the emitting call itself: a request the
   process scheduled before the event has gone out, none after it. *)
let tap t =
  Trace.stream ~now:(fun () -> Engine.now t.engine) (fun ev ->
      match List.find_opt (fun k -> k.proc == Proc.self () && k.pred ev) t.kills with
      | None -> ()
      | Some k ->
          disarm t k;
          fire t k.label;
          raise Proc.Killed)

let killing t ~label pred f =
  let kill = { proc = Proc.self (); label; pred } in
  t.kills <- kill :: t.kills;
  Fun.protect ~finally:(fun () -> disarm t kill) f
