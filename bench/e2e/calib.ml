(* Host calibration. The machines this benchmark runs on are shared: the
   same round ran up to 35% slower at one moment than at another, in
   stretches of a fraction of a second to minutes, because other tenants
   took memory bandwidth. A round therefore times a fixed unit of work —
   independent read-modify-writes at random places in a 64 MiB table —
   between short stretches of its run and between its set-ups, and
   charges each stretch in units of the calibrations taken around it.
   The unit slows down with the workloads (they slowed 1.0% to 1.4% for
   every 1% the unit did; hot-pages with a correlation of 0.97 over 0.6 s
   stretches), so host cost measured this way is steady where CPU seconds
   are not.

   The work is the benchmark's own (no library code), allocates nothing
   and lives off the OCaml heap, so it moves neither the heap nor the
   collector. *)

let cells = 8 lsl 20
let updates = 20_000

(* The unit's CPU time on the reference machine (README.md) when nothing
   else loads it: a calibrated time reads as CPU seconds there. *)
let reference_s = 3.0e-4

let table = lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout cells (fun i -> i))
let state = ref 0x2545F4914F6CDD1D

(* Allocate and touch the table, outside anything that is timed. *)
let prepare () = ignore (Lazy.force table)

(* Run the unit once; return its CPU time in seconds. Every run visits
   new places (the generator state carries over), so none of it is
   served from the cache. *)
let unit_s () =
  let t = Lazy.force table in
  let mask = cells - 1 in
  let t0 = Clock.cpu_s () in
  let s = ref !state in
  for _ = 1 to updates do
    s := (!s * 0x27BB2EE687B0B0FD) + 3037000493;
    let k = (!s lsr 20) land mask in
    Bigarray.Array1.unsafe_set t k (Bigarray.Array1.unsafe_get t k + 1)
  done;
  state := !s;
  Clock.cpu_s () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Stretches of host time in reference seconds. [spans.(i)] was measured
   between the units that took [units.(i)] and [units.(i + 1)]; it is
   scaled by the median of the four units nearest it, so that a unit the
   host happened to interrupt (some read three times their neighbours)
   moves nothing. *)
let charge spans units =
  let last = Array.length units - 1 in
  Array.mapi
    (fun i seconds ->
      let first = max 0 (i - 1) in
      let near = Array.to_list (Array.sub units first (min last (i + 2) - first + 1)) in
      seconds *. reference_s /. Float.max 1e-9 (median near))
    spans
