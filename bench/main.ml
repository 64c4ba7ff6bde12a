(* The experiment harness: regenerates every figure- and claim-level
   result catalogued in DESIGN.md / EXPERIMENTS.md.

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- --only c1-occ-vs-locking
   Bench trajectory:      dune exec bench/main.exe -- --json BENCH_afs.json
   CI regression check:   dune exec bench/main.exe -- --json bench.json \
                            --check-baseline BENCH_afs.json
   Add Bechamel micros:   dune exec bench/main.exe -- --bechamel
   List experiments:      dune exec bench/main.exe -- --list *)

let experiments =
  [
    ("f1-hierarchy", Figures.f1);
    ("f2-tree-of-trees", Figures.f2);
    ("f3-page-codec", Figures.f3);
    ("f4-version-chain", Figures.f4);
    ("f5-commit-fastpath", Figures.f5);
    ("f6-concurrent-commit", Figures.f6);
    ("c1-occ-vs-locking", Claims.c1);
    ("c2-crash-recovery", Claims.c2);
    ("c3-cache-validation", Claims.c3);
    ("c4-serialise-cost", Claims.c4);
    ("c5-stable-storage", Claims.c5);
    ("c6-superfile-locking", Claims.c6);
    ("c7-write-once", Claims.c7);
    ("c8-starvation", Claims.c8);
    ("c9-one-page-files", Claims.c9);
    ("a1-flag-cache", Ablations.a1);
    ("a2-gc", Ablations.a2);
    ("a3-write-back", Ablations.a3);
    ("a4-trace-overhead", Ablations.a4);
    ("m1-validate-after-n", Ablations.m1);
    ("s1-shard-scaling", Scaling.s1);
    ("a5-group-commit", Groupcommit.a5);
    ("r1-failover", Failover.r1);
    ("l1-lint-gate", Lintgate.l1);
    ("m2-engine-speed", Enginespeed.m2);
    ("a6-million", Enginespeed.a6);
    ("s2-cross-shard", Crossshard.s2);
  ]

(* Wall-clock is machine-dependent: recorded only under --timed, published
   under a ".wall_us" suffix the baseline checker ignores. Experiments
   that publish their own machine-dependent numbers (wall throughput,
   host-GC words) use the ".reported" suffix, treated the same way. *)
let wall_us = "wall_us"
let reported = "reported"

let run_one ~timed (id, f) =
  if timed then begin
    let t0 = Monotonic_clock.now () in
    f ();
    let t1 = Monotonic_clock.now () in
    Exp_util.metric id wall_us (Int64.to_float (Int64.sub t1 t0) /. 1_000.0)
  end
  else f ()

let has_suffix name tag =
  let suffix = "." ^ tag in
  let nl = String.length name and sl = String.length suffix in
  nl >= sl && String.sub name (nl - sl) sl = suffix

let is_wall_clock name = has_suffix name wall_us || has_suffix name reported

(* Compare this run's metrics against a committed baseline: any
   deterministic metric drifting more than [tolerance] (relative) fails.
   Only keys present in both are compared, so a smoke run of a few
   experiments checks against the full committed trajectory. *)
let check_baseline ~tolerance path current =
  let text = In_channel.with_open_text path In_channel.input_all in
  let baseline =
    match Bjson.parse_metrics text with
    | Ok metrics -> metrics
    | Error msg ->
        Printf.printf "baseline %s unreadable: %s\n" path msg;
        exit 1
  in
  let failures = ref 0 and compared = ref 0 in
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name current with
      | None -> ()
      | Some now when is_wall_clock name ->
          Printf.printf "baseline (informational) %s: %.1f -> %.1f\n" name base now
      | Some now ->
          incr compared;
          let drift = Float.abs (now -. base) /. Float.max (Float.abs base) 1.0 in
          if drift > tolerance then begin
            incr failures;
            Printf.printf "baseline REGRESSION %s: %.2f -> %.2f (%.0f%% > %.0f%%)\n" name
              base now (100.0 *. drift) (100.0 *. tolerance)
          end)
    baseline;
  Printf.printf "baseline check vs %s: %d metrics compared, %d regressions\n" path !compared
    !failures;
  if !failures > 0 then exit 1

let () =
  let only = ref [] in
  let list_only = ref false in
  let bechamel = ref false in
  let bechamel_smoke = ref false in
  let timed = ref false in
  let json_out = ref "" in
  let baseline = ref "" in
  let speclist =
    [
      ( "--only",
        Arg.String (fun s -> only := s :: !only),
        "ID  run only the experiment with this id (repeatable)" );
      ("--list", Arg.Set list_only, "  list experiment ids and exit");
      ("--bechamel", Arg.Set bechamel, "  also run the Bechamel micro-benchmarks");
      ( "--bechamel-smoke",
        Arg.Set bechamel_smoke,
        "  run the micro-benchmarks with a short quota (CI smoke); without --only,\n\
         \     skips the experiment suite" );
      ("--timed", Arg.Set timed, "  record wall-clock per experiment (informational)");
      ( "--json",
        Arg.Set_string json_out,
        "FILE  write the run's metrics to FILE as JSON (the bench trajectory)" );
      ( "--check-baseline",
        Arg.Set_string baseline,
        "FILE  fail if any deterministic metric drifts >10% from FILE" );
    ]
  in
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "main.exe [--list] [--only ID]... [--json FILE] [--check-baseline FILE] [--timed] [--bechamel]";
  if !list_only then List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let selected =
      (* Smoke mode exists so CI can time just the micros: with no
         explicit selection it runs no experiments. *)
      if !only = [] then (if !bechamel_smoke then [] else experiments)
      else
        List.filter_map
          (fun id ->
            match List.assoc_opt id experiments with
            | Some f -> Some (id, f)
            | None ->
                Printf.eprintf "unknown experiment %S (use --list)\n" id;
                exit 1)
          (List.rev !only)
    in
    Printf.printf
      "Amoeba File Service reproduction — experiment harness (%d experiments)\n"
      (List.length selected);
    Printf.printf "All times are SIMULATED unless marked as Bechamel wall-clock.\n";
    List.iter (run_one ~timed:!timed) selected;
    if !bechamel then Micro.run ();
    if !bechamel_smoke then Micro.run ~smoke:true ();
    let metrics = Exp_util.all_metrics () in
    if !json_out <> "" then begin
      Out_channel.with_open_text !json_out (fun oc ->
          Out_channel.output_string oc (Bjson.document ~schema:"afs-bench/1" metrics));
      Printf.printf "\nwrote %d metrics to %s\n" (List.length metrics) !json_out
    end;
    if !baseline <> "" then check_baseline ~tolerance:0.10 !baseline metrics;
    Printf.printf "\n%s\ndone.\n" (String.make 78 '=')
  end
