module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng
module Stats = Afs_util.Stats
module Trace = Afs_trace.Trace

type config = {
  clients : int;
  duration_ms : float;
  think_ms : float;
  max_retries : int;
  seed : int;
  max_txns : int;
}

let default_config =
  {
    clients = 8;
    duration_ms = 10_000.0;
    think_ms = 20.0;
    max_retries = 16;
    seed = 42;
    max_txns = 0;
  }

type report = {
  sut_name : string;
  committed : int;
  given_up : int;
  attempts : int;
  elapsed_ms : float;
  throughput_per_s : float;
  mean_latency_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  retry_histogram : (int * int) list;
  local_aborts : int;
  cross_aborts : int;
}

let header_row =
  Printf.sprintf "%-14s %10s %9s %9s %10s %10s %10s %10s %10s" "system" "committed"
    "given-up" "attempts" "thru/s" "mean-ms" "p50-ms" "p95-ms" "p99-ms"

let report_row r =
  Printf.sprintf "%-14s %10d %9d %9d %10.1f %10.2f %10.2f %10.2f %10.2f" r.sut_name
    r.committed r.given_up r.attempts r.throughput_per_s r.mean_latency_ms r.p50_ms r.p95_ms
    r.p99_ms

let retry_histogram_row r =
  let cell (attempts, count) = Printf.sprintf "%dx:%d" attempts count in
  String.concat " " (List.map cell r.retry_histogram)

let abort_split_row r =
  Printf.sprintf "aborts: %d local, %d cross-shard" r.local_aborts r.cross_aborts

let run ?(on_progress = ignore) engine config sut ~gen =
  let committed = ref 0 in
  let given_up = ref 0 in
  let attempts = ref 0 in
  let local_aborts = ref 0 in
  let cross_aborts = ref 0 in
  (* Count-driven runs: [started] gates transaction admission so exactly
     [max_txns] transactions run to completion (0 = duration-driven). *)
  let started = ref 0 in
  let admit () =
    config.max_txns = 0
    ||
    if !started < config.max_txns then begin
      incr started;
      true
    end
    else false
  in
  (* Per-transaction attempt counts; slot [max_retries + 1] absorbs any
     overshoot so the array is total (an array, not a Hashtbl: the report
     must not depend on hash order). *)
  let retry_counts = Array.make (config.max_retries + 2) 0 in
  let latency = Stats.Histogram.create () in
  let latency_sum = Stats.Summary.create () in
  let master_rng = Xrng.create config.seed in
  let tr = Engine.trace engine in
  let client id =
    let rng = Xrng.split master_rng in
    let label = Printf.sprintf "client-%d" id in
    fun () ->
      (* Desynchronise client start-up. *)
      Proc.delay (Xrng.float rng config.think_ms);
      let rec loop () =
        if Engine.now engine < config.duration_ms then begin
          Proc.delay (Xrng.exponential rng config.think_ms);
          if Engine.now engine < config.duration_ms && admit () then begin
            let spec = gen rng in
            let t0 = Engine.now engine in
            (* Explicit open/close (not [Trace.span]): the transaction
               suspends inside [exec], so the ambient stack would leak
               across client interleavings. *)
            let span = Trace.open_span tr ~kind:"txn" ~label () in
            let result = sut.Sut.exec spec ~max_retries:config.max_retries in
            Trace.close_span tr span;
            let dt = Engine.now engine -. t0 in
            attempts := !attempts + result.Sut.attempts;
            local_aborts := !local_aborts + result.Sut.local_aborts;
            cross_aborts := !cross_aborts + result.Sut.cross_aborts;
            let slot = min result.Sut.attempts (config.max_retries + 1) in
            retry_counts.(slot) <- retry_counts.(slot) + 1;
            if result.Sut.committed then begin
              incr committed;
              Stats.Histogram.add latency dt;
              Stats.Summary.add latency_sum dt
            end
            else incr given_up;
            on_progress (!committed + !given_up);
            loop ()
          end
        end
      in
      loop ()
  in
  for id = 1 to config.clients do
    ignore (Proc.spawn ~name:(Printf.sprintf "client-%d" id) engine (client id))
  done;
  Engine.run engine;
  let elapsed_ms =
    (* A count-driven run ends when the last transaction does; clamping to
       [duration_ms] would divide throughput by the (huge) sentinel. *)
    if config.max_txns > 0 then Engine.now engine
    else Float.max (Engine.now engine) config.duration_ms
  in
  {
    sut_name = sut.Sut.name;
    committed = !committed;
    given_up = !given_up;
    attempts = !attempts;
    elapsed_ms;
    throughput_per_s = float_of_int !committed /. (elapsed_ms /. 1000.0);
    mean_latency_ms = Stats.Summary.mean latency_sum;
    p50_ms = Stats.Histogram.percentile latency 0.50;
    p95_ms = Stats.Histogram.percentile latency 0.95;
    p99_ms = Stats.Histogram.percentile latency 0.99;
    retry_histogram =
      List.filter
        (fun (_, count) -> count > 0)
        (List.mapi (fun i count -> (i, count)) (Array.to_list retry_counts));
    local_aborts = !local_aborts;
    cross_aborts = !cross_aborts;
  }
