(* Smoke test for afsbench: every workload at 1/100 of its transaction
   count, one untraced and one traced round in this process, with every
   check on. Fails if any check fails, if the two rounds disagree, or if
   an end-to-end metric comes out as zero. *)

open E2e

let () =
  let failures =
    List.concat_map
      (fun (w : Workloads.t) ->
        let round traced = Round.run ~scale:0.01 ~seed:7 ~traced w in
        let untraced = round false in
        let traced = round true in
        let o =
          {
            Measure.workload = w.Workloads.name;
            untraced = [ untraced ];
            traced = [ traced ];
            errors = [];
          }
        in
        let zero =
          List.filter_map
            (fun (name, _, v) ->
              if v > 0.0 then None else Some (Printf.sprintf "%s: %s is %g" w.Workloads.name name v))
            (Measure.end_to_end o)
        in
        let layers = Measure.per_layer o in
        let missing =
          if List.length layers = List.length traced.Round.layers + 1 then []
          else [ w.Workloads.name ^ ": per-layer metrics missing" ]
        in
        Printf.printf "%-14s %6d txns  %5d committed  %8d events  %3d per-layer metrics\n"
          w.Workloads.name untraced.Round.admitted untraced.Round.committed untraced.Round.events
          (List.length layers);
        Measure.failures o @ zero @ missing)
      Workloads.all
  in
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) failures;
  if failures <> [] then exit 1
