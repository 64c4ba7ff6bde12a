module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Trace = Afs_trace.Trace

type matcher = Any | Span of string * string option | Point of string * string * Trace.value

type shard_fault =
  | Crash_shard of { shard : int; down_ms : float }
  | Fail_over of { shard : int; after_ms : float }

type entry = At of float * shard_fault | Kill_at of int * matcher
type schedule = entry list
type firing = { entry : entry; at_ms : float; outcome : (string, string) result }

(* The shorter of [%g] and [%.17g] that reads back as [v]. *)
let num ppf v =
  let s = Printf.sprintf "%g" v in
  Fmt.string ppf (if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v)

let pp_matcher ppf = function
  | Any -> Fmt.string ppf "any"
  | Span (kind, label) -> Fmt.pf ppf "span %s%a" kind Fmt.(option (any " " ++ Dump.string)) label
  | Point (kind, field, v) -> (
      Fmt.pf ppf "point %s %s=" kind field;
      match v with
      | Trace.Int i -> Fmt.int ppf i
      | Trace.Float f -> num ppf f
      | Trace.Str s -> Fmt.Dump.string ppf s
      | Trace.Bool b -> Fmt.bool ppf b)

let pp_entry ppf = function
  | Kill_at (n, m) -> Fmt.pf ppf "#%d %a -> kill" n pp_matcher m
  | At (ms, Crash_shard { shard; down_ms }) ->
      Fmt.pf ppf "@@%ams -> crash shard %d for %ams" num ms shard num down_ms
  | At (ms, Fail_over { shard; after_ms }) ->
      Fmt.pf ppf "@@%ams -> fail over shard %d after %ams" num ms shard num after_ms

let pp ppf schedule = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp_entry) schedule

let accepts matcher ev =
  match (matcher, ev) with
  | Any, _ -> true
  | Span (kind, label), Trace.Span_open { kind = k; label = l; _ } ->
      String.equal kind k && Option.fold ~none:true ~some:(String.equal l) label
  | Point (kind, field, v), Trace.Point { payload; _ } ->
      String.equal kind (Trace.kind_of_payload payload)
      && List.assoc_opt field (Trace.fields_of_payload payload) = Some v
  | (Span _ | Point _), (Trace.Point _ | Trace.Span_open _ | Trace.Span_close _) -> false

(* An event entry armed by [run]: its process, and how many more
   accepted events until it fires. *)
type armed = { proc : Proc.handle; entry : entry; matcher : matcher; mutable left : int }

type t = {
  cluster : Cluster.t;
  engine : Engine.t;
  mutable armed : armed list;
  mutable fired : firing list;  (* Newest first. *)
}

let create cluster = { cluster; engine = Cluster.engine cluster; armed = []; fired = [] }
let fired t = List.rev t.fired

let emit t entry ~at_ms outcome =
  t.fired <- { entry; at_ms; outcome } :: t.fired;
  let fields =
    [ ("entry", Trace.Str (Fmt.str "%a" pp_entry entry)); ("at_ms", Trace.Float at_ms);
      ("outcome", Trace.Str (Result.fold ~ok:Fun.id ~error:Fun.id outcome)) ]
  in
  Trace.point (Engine.trace t.engine) (Trace.Generic { kind = "fault.fire"; fields })

let failed what e = Error (what ^ " FAILED: " ^ Afs_core.Errors.to_string e)

let shard_fault t = function
  | Crash_shard { shard; down_ms } -> (
      Shard.crash (Cluster.shard t.cluster shard);
      Proc.delay down_ms;
      match Shard.recover (Cluster.shard t.cluster shard) with
      | Ok files -> Ok (Printf.sprintf "recovered %d files" files)
      | Error e -> failed "recovery" e)
  | Fail_over { shard; after_ms } -> (
      Afs_rpc.Remote.crash_host (Shard.host (Cluster.shard t.cluster shard));
      Proc.delay after_ms;
      match Cluster.promote t.cluster shard with
      | Ok { Cluster.epoch; watermark; recovered_files } ->
          Ok
            (Printf.sprintf "promoted (epoch %d, watermark %d, %d files recovered)" epoch
               watermark recovered_files)
      | Error e -> failed "promotion" e)

(* A shard fault, at its time, runs in a fresh process, since it blocks
   (a promotion makes RPC calls), and reports once it is done. *)
let at t ms entry fault =
  Engine.at t.engine ms (fun () ->
      let at_ms = Engine.now t.engine in
      let fire () = emit t entry ~at_ms (shard_fault t fault) in
      ignore (Proc.spawn ~name:"fault" t.engine fire : Proc.handle))

(* A kill raises inside the emitting call itself: a request the process
   scheduled before the event has gone out, none after it. *)
let tap t =
  Trace.stream ~now:(fun () -> Engine.now t.engine) (fun ev ->
      List.iter
        (fun a ->
          if a.left > 0 && a.proc == Proc.self () && accepts a.matcher ev then begin
            a.left <- a.left - 1;
            if a.left = 0 then begin
              emit t a.entry ~at_ms:(Engine.now t.engine) (Ok "killed");
              raise Proc.Killed
            end
          end)
        t.armed)

let run t schedule f =
  let invalid entry why = invalid_arg (Fmt.str "Faults.run: %a: %s" pp_entry entry why) in
  List.iter
    (function
      | At (ms, _) as entry when not (ms >= 0.0) -> invalid entry "negative time"
      | Kill_at (n, _) as entry when n < 1 -> invalid entry "count below 1"
      | At _ | Kill_at _ -> ())
    schedule;
  let armed =
    List.filter_map
      (function
        | At (ms, fault) as entry ->
            at t ms entry fault;
            None
        | Kill_at (left, matcher) as entry -> Some { proc = Proc.self (); entry; matcher; left })
      schedule
  in
  t.armed <- armed @ t.armed;
  let disarm () = t.armed <- List.filter (fun a -> not (List.memq a armed)) t.armed in
  Fun.protect ~finally:disarm f
