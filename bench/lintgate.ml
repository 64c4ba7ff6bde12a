(* l1: the static-analysis gate as a bench metric.

   Running the analyzer inside the harness publishes the finding and
   suppression counts into the bench trajectory, so the committed
   BENCH_afs.json regression-checks them: a new non-allowlisted finding
   or a creeping allowlist moves a deterministic metric and fails the
   baseline comparison — the suppression count can only be ratcheted
   down deliberately, with a baseline update in the same change. The
   count of exports only the tests reference (U1's test hooks) is
   published the same way, so that surface is tracked too. *)

let l1 () =
  Exp_util.banner "l1-lint-gate" "Static analysis: findings and suppressions"
    "tooling gate (no paper section)";
  let allowlist = Lint_allow.load "lint.allow" in
  let r = Lint_engine.run ~allowlist ~root:"." [ "lib"; "bin"; "bench"; "examples" ] in
  List.iter (fun d -> Exp_util.note "missing scan dir: %s" d) r.Lint_engine.missing_dirs;
  List.iter
    (fun (file, reason) -> Exp_util.note "unparseable: %s (%s)" file reason)
    r.Lint_engine.broken;
  let findings = List.length r.Lint_engine.findings in
  let errors =
    List.length
      (List.filter
         (fun (f : Lint_types.finding) -> f.severity = Lint_types.Error)
         r.Lint_engine.findings)
  in
  let allowlisted = List.length r.Lint_engine.suppressed in
  let test_only = List.length r.Lint_engine.test_only in
  Exp_util.table
    [ "metric"; "count" ]
    [
      [ "files scanned"; string_of_int r.Lint_engine.files_scanned ];
      [ "findings"; string_of_int findings ];
      [ "errors"; string_of_int errors ];
      [ "allowlisted"; string_of_int allowlisted ];
      [ "exports"; string_of_int r.Lint_engine.exports ];
      [ "test-only exports"; string_of_int test_only ];
    ];
  Exp_util.metric_i "lint" "findings" findings;
  Exp_util.metric_i "lint" "allowlisted" allowlisted;
  Exp_util.metric_i "lint" "test_only_exports" test_only
