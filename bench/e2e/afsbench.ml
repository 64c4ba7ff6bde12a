(* afsbench — the end-to-end benchmark. See README.md in this directory.

   One workload, measured for a time budget (the form BENCHMARK.json
   names; the last stdout line is the JSON result):
     dune exec bench/e2e/afsbench.exe -- --workload hot-pages --seed 1 --seconds 10 --trace 0

   Every workload, three untraced rounds and one traced round each:
     dune exec bench/e2e/afsbench.exe -- --seed 42 --out result.json

   Exit status: 0 when every check passed, 1 when one failed, 2 on bad
   usage. *)

open E2e
module Tjson = Afs_trace.Tjson

let usage = "afsbench [--workload NAME --seconds S --trace 0|1] [--seed N] [--out FILE]"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "" and round = ref "" and traced = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME measure one workload for --seconds");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time budget of a one-workload run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE also write every metric as JSON");
      ("--round", Arg.Set_string round, "NAME internal: run one round, marshal it to stdout");
      ("--traced", Arg.Set_int traced, "0|1 internal: trace the --round");
    ]
  in
  let bad msg =
    prerr_endline ("afsbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !round <> "" then begin
    match Measure.child_main ~workload:!round ~seed:!seed ~traced:(!traced = 1) with
    | Ok () -> exit 0
    | Error msg -> bad msg
  end;
  let workloads =
    if !workload = "" then Workloads.all
    else
      match Workloads.find !workload with
      | Some w -> [ w ]
      | None ->
          bad
            (Printf.sprintf "unknown workload %s (one of: %s)" !workload
               (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)))
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let one_workload = !workload <> "" in
  let plan =
    if not one_workload then Measure.Rounds { untraced = 3; traced = 1 }
    else if !trace = 1 then Measure.Traced_for_seconds !seconds
    else Measure.For_seconds !seconds
  in
  let outcomes =
    List.map
      (fun (w : Workloads.t) ->
        let o = Measure.execute ~seed:!seed ~workload:w.Workloads.name plan in
        let e2e = Measure.end_to_end o and layers = Measure.per_layer o in
        Measure.print_rounds o;
        if not (one_workload && !trace = 1) then Measure.print_metrics w.Workloads.name e2e;
        if not (one_workload && !trace = 0) then Measure.print_metrics w.Workloads.name layers;
        (o, e2e, layers))
      workloads
  in
  let failures = List.concat_map (fun (o, _, _) -> Measure.failures o) outcomes in
  List.iter (fun f -> prerr_endline ("CHECK FAILED: " ^ f)) failures;
  let correct = failures = [] in
  let attempted, failed = Measure.totals (List.map (fun (o, _, _) -> o) outcomes) in
  if !out <> "" then begin
    let doc =
      Tjson.Obj
        [
          ("seed", Tjson.Int !seed);
          ("correct", Tjson.Bool correct);
          ( "workloads",
            Tjson.Obj
              (List.map
                 (fun ((o : Measure.outcome), e2e, layers) ->
                   ( o.Measure.workload,
                     Tjson.Obj
                       [
                         ("end_to_end", Measure.metrics_json e2e);
                         ("per_layer", Measure.metrics_json layers);
                       ] ))
                 outcomes) );
        ]
    in
    let oc = open_out !out in
    output_string oc (Measure.json_text doc ^ "\n");
    close_out oc
  end;
  let metrics =
    match outcomes with
    | [ (_, e2e, layers) ] -> if !trace = 1 then layers else e2e
    | _ -> []
  in
  print_endline
    (Measure.json_text
       (Tjson.Obj
          [
            ("correct", Tjson.Bool correct);
            ("attempted", Tjson.Int (max 1 attempted));
            ("failed", Tjson.Int failed);
            ("metrics", Measure.metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)
