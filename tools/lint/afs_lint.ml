(* afs_lint — determinism & protocol-safety lint for the AFS tree.

   Usage: afs_lint [--json] [--sarif FILE] [--effects] [--allowlist FILE]
                   [--root DIR] [DIR ...]

   Scans the given directories (default: lib bin bench examples) for the
   per-file rule families D1 (determinism), P1 (partiality), E1 (effect
   safety), M1 (interface coverage), and the interprocedural families Y1
   (yield atomicity), C1 (commit-phase effects), X1 (Moved exhaustiveness)
   and U1 (unused exports; the tests are read for references only).
   [--sarif FILE] additionally writes the findings as SARIF 2.1.0 for CI
   annotation; [--effects] dumps the fixpoint effect classification
   instead of linting. Exit status: 0 clean (warnings allowed), 1 on
   errors, 2 on usage or internal failure. *)

open Lint_types

let usage =
  "afs_lint [--json] [--sarif FILE] [--effects] [--allowlist FILE] [--root DIR] [DIR ...]"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_json f =
  Printf.sprintf
    {|{"rule":"%s","severity":"%s","file":"%s","line":%d,"col":%d,"symbol":"%s","message":"%s"}|}
    (rule_id f.rule) (severity_id f.severity) (json_escape f.file) f.line f.col
    (json_escape f.symbol) (json_escape f.message)

let print_json (r : Lint_engine.result) =
  print_string "[";
  List.iteri
    (fun i f ->
      if i > 0 then print_string ",";
      print_string ("\n  " ^ finding_json f))
    r.findings;
  print_string (if r.findings = [] then "]\n" else "\n]\n")

let print_human (r : Lint_engine.result) =
  List.iter
    (fun f ->
      Printf.printf "%s:%d:%d: [%s/%s] %s %s\n" f.file f.line f.col (rule_id f.rule)
        (severity_id f.severity) f.symbol f.message)
    r.findings;
  let errors = List.length (List.filter (fun f -> f.severity = Error) r.findings) in
  let warnings = List.length r.findings - errors in
  Printf.printf "afs_lint: %d file%s scanned, %d error%s, %d warning%s%s\n" r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s")
    (if r.suppressed = [] then ""
     else Printf.sprintf " (%d allowlisted)" (List.length r.suppressed));
  Printf.printf "afs_lint: %d exports, %d referenced only by tests\n" r.exports
    (List.length r.test_only)

let () =
  let json = ref false in
  let sarif_file = ref None in
  let effects = ref false in
  let allow_file = ref None in
  let root = ref "." in
  let dirs = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as a JSON array");
      ( "--sarif",
        Arg.String (fun f -> sarif_file := Some f),
        "FILE also write findings as SARIF 2.1.0" );
      ("--effects", Arg.Set effects, " dump the fixpoint effect classification and exit");
      ("--allowlist", Arg.String (fun f -> allow_file := Some f), "FILE allowlist of exceptions");
      ("--root", Arg.Set_string root, "DIR scan root (paths are reported relative to it)");
    ]
  in
  Arg.parse (Arg.align spec) (fun d -> dirs := d :: !dirs) usage;
  let dirs =
    match List.rev !dirs with [] -> [ "lib"; "bin"; "bench"; "examples" ] | ds -> ds
  in
  if !effects then begin
    List.iter
      (fun (key, tags) -> Printf.printf "%-40s %s\n" key (String.concat " " tags))
      (Lint_engine.effects ~root:!root dirs);
    exit 0
  end;
  let allowlist =
    match !allow_file with
    | None -> []
    | Some f -> (
        try Lint_allow.load f
        with Lint_allow.Parse_error msg | Sys_error msg ->
          Printf.eprintf "afs_lint: bad allowlist %s: %s\n" f msg;
          exit 2)
  in
  let result = Lint_engine.run ~allowlist ~root:!root dirs in
  List.iter
    (fun d -> Printf.eprintf "afs_lint: no such directory under %s: %s\n" !root d)
    result.missing_dirs;
  List.iter
    (fun (file, reason) -> Printf.eprintf "afs_lint: cannot parse %s: %s\n" file reason)
    result.broken;
  Option.iter (fun path -> Lint_sarif.write ~path result.findings) !sarif_file;
  if !json then print_json result else print_human result;
  if result.broken <> [] || result.missing_dirs <> [] then exit 2
  else if List.exists (fun f -> f.severity = Error) result.findings then exit 1
  else exit 0
