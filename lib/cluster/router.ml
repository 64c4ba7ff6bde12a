module Capability = Afs_util.Capability

type t = {
  nshards : int;
  by_port : (int, int) Hashtbl.t;
  forwards : (int * int, Capability.t) Hashtbl.t;
  mutable next_placement : int;
}

let create ~ports =
  let by_port = Hashtbl.create 16 in
  List.iteri (fun i p -> Hashtbl.replace by_port (Capability.port_to_int p) i) ports;
  {
    nshards = List.length ports;
    by_port;
    forwards = Hashtbl.create 64;
    next_placement = 0;
  }

let shard_of_port t port = Hashtbl.find_opt t.by_port (Capability.port_to_int port)

let key (cap : Capability.t) = (Capability.port_to_int cap.Capability.port, cap.Capability.obj)

let note_forward t ~old target =
  if not (Capability.equal old target) then Hashtbl.replace t.forwards (key old) target

let max_hops = 16

let resolve t cap =
  let rec follow cap fuel =
    if fuel = 0 then cap
    else
      match Hashtbl.find_opt t.forwards (key cap) with
      | None -> cap
      | Some target -> follow target (fuel - 1)
  in
  follow cap max_hops

let place t =
  let s = t.next_placement in
  t.next_placement <- (s + 1) mod t.nshards;
  s
