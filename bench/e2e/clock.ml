(* Every host-side measurement the benchmark takes goes through this
   module: wall clock, CPU time, allocation and heap size. Nothing else in
   bench/e2e reads a clock, so simulated results cannot depend on the host
   — only host costs (time, allocation, heap) and setup_s do. *)

let wall_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let minor_words () = Stdlib.Gc.minor_words ()

(* The largest the major heap has been in this process, in MiB. *)
let heap_peak_mb () =
  float_of_int (Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0
