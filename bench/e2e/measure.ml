(* Runs rounds — each in its own process, one at a time — and turns them
   into the benchmark's metrics. A process per round keeps the heap peak
   and the host GC state of one round out of the next. Every round of a
   run uses the run's seed: the simulated outcome is the same in each, so
   repeats add host-cost samples and determinism checks, not inputs. *)

module Tjson = Afs_trace.Tjson

(* {2 Rounds in child processes}

   The child is this same executable, invoked with [--round]; it writes
   its [Round.result] to stdout with [Marshal] and nothing else. *)

let round_args ~workload ~seed ~traced =
  [|
    Sys.executable_name; "--round"; workload; "--seed"; string_of_int seed; "--traced";
    (if traced then "1" else "0");
  |]

let child_main ~workload ~seed ~traced =
  match Workloads.find workload with
  | None -> Error ("unknown workload " ^ workload)
  | Some w ->
      let result : Round.result = Round.run ~seed ~traced w in
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout result [];
      flush stdout;
      Ok ()

let spawn_round ~workload ~seed ~traced : (Round.result, string) result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args = round_args ~workload ~seed ~traced in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  set_binary_mode_in ic true;
  let result =
    match (Marshal.from_channel ic : Round.result) with
    | r -> Ok r
    | exception (End_of_file | Failure _) -> Error "round process sent no result"
  in
  close_in ic;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match (wait (), result) with
  | Unix.WEXITED 0, r -> r
  | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      Error (Printf.sprintf "round process for %s failed (status %d)" workload n)

(* {2 Plans} *)

type plan =
  | For_seconds of float
      (** Untraced rounds, at least one, and another only while it is
          expected to end within the time budget. *)
  | Traced_for_seconds of float
      (** Untraced/traced pairs, budgeted the same way. *)
  | Rounds of { untraced : int; traced : int }

type outcome = {
  workload : string;
  untraced : Round.result list;
  traced : Round.result list;
  errors : string list;
}

let execute ~seed ~workload plan =
  let errors = ref [] in
  let one traced =
    match spawn_round ~workload ~seed ~traced with
    | Ok r -> [ r ]
    | Error e ->
        errors := !errors @ [ e ];
        []
  in
  let start = Clock.wall_s () in
  (* Repeat [step] while the next one, taking as long as the last did,
     would still end within [seconds]. *)
  let budgeted seconds step =
    let rec loop acc =
      let t0 = Clock.wall_s () in
      let acc = step acc in
      let now = Clock.wall_s () in
      if !errors <> [] || now -. start +. (now -. t0) > seconds then acc else loop acc
    in
    loop ([], [])
  in
  let untraced, traced =
    match plan with
    | Rounds { untraced; traced } ->
        let u = List.concat (List.init untraced (fun _ -> one false)) in
        (u, List.concat (List.init traced (fun _ -> one true)))
    | For_seconds s -> budgeted s (fun (u, t) -> (u @ one false, t))
    | Traced_for_seconds s -> budgeted s (fun (u, t) -> (u @ one false, t @ one true))
  in
  { workload; untraced; traced; errors = !errors }

(* {2 Aggregation} *)

let median = Calib.median

(* Exact nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Every failed check, plus any disagreement between rounds: all rounds
   of one seed, traced or not, must produce the same simulated outcome. *)
let failures o =
  let rounds = o.untraced @ o.traced in
  let own =
    List.concat_map
      (fun (r : Round.result) ->
        List.map
          (fun f ->
            Printf.sprintf "%s seed %d%s: %s" o.workload r.Round.seed
              (if r.Round.traced then " (traced)" else "")
              f)
          r.Round.failures)
      rounds
  in
  let disagree =
    match rounds with
    | [] -> [ o.workload ^ ": no round completed" ]
    | first :: rest ->
        if List.for_all (fun r -> Round.fingerprint r = Round.fingerprint first) rest then []
        else [ Printf.sprintf "%s: rounds disagree on the simulated outcome" o.workload ]
  in
  o.errors @ own @ disagree

(* The end-to-end metrics, from the untraced rounds: simulated metrics
   from the first (every round has the same simulated outcome, or the
   run fails), host metrics as medians over every round. *)
let end_to_end o =
  match o.untraced with
  | [] -> []
  | (first : Round.result) :: _ ->
      let med f = median (List.map f o.untraced) in
      let per_commit f (r : Round.result) = f r /. float_of_int (max 1 r.Round.committed) in
      [
        ("setup_s", "s", med (fun r -> r.Round.setup_s));
        ( "commits_per_s",
          "txn/s",
          float_of_int first.Round.window_commits *. 1000.0 /. Float.max 1e-9 first.Round.window_ms
        );
        ("txn_p50_ms", "ms", percentile first.Round.latencies 0.50);
        ("txn_p999_ms", "ms", percentile first.Round.latencies 0.999);
        ("attempts_per_commit", "ratio", per_commit (fun r -> float_of_int r.Round.attempts) first);
        ( "host_commits_per_cpu_s",
          "txn/cpu-s",
          med (fun r -> float_of_int r.Round.committed /. Float.max 1e-9 r.Round.run_ref_s) );
        ("host_words_per_commit", "words/txn", med (per_commit (fun r -> r.Round.run_words)));
        ("heap_peak_mb", "MiB", med (fun r -> r.Round.heap_mb));
      ]

(* Host costs that tracing itself would inflate come from the untraced
   rounds; everything else from the traced ones. *)
let untraced_layers = [ "sim.host_ns_per_event"; "gc.host_share" ]

let per_layer o =
  match o.traced with
  | [] -> []
  | (first : Round.result) :: _ ->
      let value_in rounds name =
        median
          (List.map
             (fun (r : Round.result) ->
               match List.find_opt (fun (n, _, _) -> n = name) r.Round.layers with
               | Some (_, _, v) -> v
               | None -> 0.0)
             rounds)
      in
      let cpu rounds = median (List.map (fun (r : Round.result) -> r.Round.run_ref_s) rounds) in
      List.map
        (fun (name, unit, _) ->
          let rounds = if List.mem name untraced_layers then o.untraced else o.traced in
          (name, unit, value_in rounds name))
        first.Round.layers
      @ [ ("trace.overhead_ratio", "ratio", cpu o.traced /. Float.max 1e-9 (cpu o.untraced)) ]

(* {2 Output} *)

let print_rounds o =
  List.iter
    (fun (r : Round.result) ->
      Printf.printf
        "%-14s round seed %d%s: setup %.4f s, run %.3f s CPU = %.3f s calibrated (unit %.4f ms), \
         %d committed\n"
        o.workload r.Round.seed
        (if r.Round.traced then " traced" else "")
        r.Round.setup_s r.Round.run_cpu_s r.Round.run_ref_s r.Round.unit_ms r.Round.committed)
    (o.untraced @ o.traced);
  match o.untraced with
  | [] -> ()
  | (r : Round.result) :: _ ->
      let samples = Array.length r.Round.latencies in
      Printf.printf "%-14s latency percentiles over %d commits, %d beyond p99.9\n" o.workload
        samples (samples / 1000)

let print_metrics workload metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-14s %-40s %22.6f %s\n" workload name v unit)
    metrics

(* JSON text of a [Tjson.t], numbers with every digit a double carries.
   JSON has no NaN or infinity, so those become null (the checks reject
   such a round before it is printed). *)
let rec json_text = function
  | Tjson.Null -> "null"
  | Tjson.Bool b -> string_of_bool b
  | Tjson.Int i -> string_of_int i
  | Tjson.Float v -> if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
  | Tjson.Str s -> "\"" ^ Tjson.escape s ^ "\""
  | Tjson.Arr items -> "[" ^ String.concat ", " (List.map json_text items) ^ "]"
  | Tjson.Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ Tjson.escape k ^ "\": " ^ json_text v) fields)
      ^ "}"

let metrics_json metrics =
  Tjson.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Tjson.Obj [ ("value", Tjson.Float v); ("unit", Tjson.Str unit) ]))
       metrics)

let totals outcomes =
  List.fold_left
    (fun (attempted, failed) o ->
      List.fold_left
        (fun (a, f) (r : Round.result) -> (a + r.Round.admitted, f + r.Round.given_up))
        (attempted, failed) (o.untraced @ o.traced))
    (0, 0) outcomes
