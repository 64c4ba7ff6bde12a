(* Binary min-heap on (time, seq). An array-backed heap keeps the hot path
   allocation-free apart from the closures themselves. *)

type event = { time : float; seq : int; thunk : unit -> unit }

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable trace : Afs_trace.Trace.t;
}

let dummy = { time = 0.0; seq = -1; thunk = ignore }

let create () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    clock = 0.0;
    next_seq = 0;
    executed = 0;
    trace = Afs_trace.Trace.null;
  }

let now t = t.clock
let trace t = t.trace
let set_trace t tr = t.trace <- tr

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(p) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(p);
      t.heap.(p) <- tmp;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let at t delay thunk =
  if delay < 0.0 then invalid_arg "Engine.at: negative delay";
  if t.size = Array.length t.heap then grow t;
  let ev = { time = t.clock +. delay; seq = t.next_seq; thunk } in
  t.next_seq <- t.next_seq + 1;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Pop the top event and run it, no option boxing. Only called when
   [t.size > 0]. The drain loop below runs this once per event, so it
   must allocate nothing itself: a [Some top] per pop would cost a minor
   allocation per event, pure overhead at millions of events per run. *)
let step t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  sift_down t 0;
  t.clock <- top.time;
  t.executed <- t.executed + 1;
  top.thunk ()

let run ?until t =
  match until with
  | None -> while t.size > 0 do step t done
  | Some limit ->
      while t.size > 0 && t.heap.(0).time <= limit do
        step t
      done;
      if t.clock < limit then t.clock <- limit

let events_executed t = t.executed
let pending t = t.size
