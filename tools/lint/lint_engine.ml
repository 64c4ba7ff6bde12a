(* Directory walking, parsing, and rule orchestration.

   The engine owns everything that is not expression-level analysis: finding
   the sources, parsing them with the compiler's own parser (parse only — the
   pass needs no typing, so fixtures and generated code lint fine), and the
   file-level M1 interface-coverage rule. Files under [reference_dirs] are
   parsed too, but only as U1 references: no rule checks them. *)

open Lint_types

type result = {
  findings : finding list;  (** after allowlist filtering, sorted *)
  suppressed : finding list;  (** removed by the allowlist *)
  broken : (string * string) list;  (** unparseable files: (path, reason) *)
  missing_dirs : string list;  (** requested scan roots that don't exist *)
  files_scanned : int;  (** checked .ml files *)
  exports : int;  (** U1: vals the in-scope interfaces declare *)
  test_only : string list;  (** U1: exports only reference files name *)
}

let ( / ) a b = if a = "" || a = "." then b else a ^ "/" ^ b

(* Recursively collect files under [dir] (relative to [root]) matching
   [keep], sorted so the linter's own output is deterministic. *)
let rec collect_files ~root ~keep dir acc =
  let abs = Filename.concat root dir in
  if not (Sys.file_exists abs && Sys.is_directory abs) then acc
  else
    Array.fold_left
      (fun acc entry ->
        let rel = dir / entry in
        let abs = Filename.concat root rel in
        if Sys.is_directory abs then
          if String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_') then acc
          else collect_files ~root ~keep rel acc
        else if keep entry then rel :: acc
        else acc)
      acc
      (Sys.readdir abs)

let files_with ~suffix ~root dirs =
  List.concat_map
    (fun d -> collect_files ~root ~keep:(fun f -> Filename.check_suffix f suffix) d [])
    dirs
  |> List.sort_uniq compare

let ml_files = files_with ~suffix:".ml"

let parse parser path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      parser lexbuf)

(* M1: every implementation in scope ships an interface. *)
let check_mli (config : config) ~root file =
  if
    in_scope config.mli_dirs file
    && not (Sys.file_exists (Filename.concat root (Filename.remove_extension file ^ ".mli")))
  then
    [
      {
        rule = M1;
        severity = Error;
        file;
        line = 1;
        col = 0;
        symbol = "missing-mli";
        message =
          "module has no .mli — library modules must declare their interface \
           (interface coverage keeps the protocol surface reviewable)";
      };
    ]
  else []

let describe_exn = function
  | Syntaxerr.Error _ -> "syntax error"
  | e -> Printexc.to_string e

(* Parse every file once; per-file rules and the interprocedural pass
   share the Parsetrees. Returns (parsed, broken). *)
let parse_files parser ~root files =
  let broken = ref [] in
  let parsed =
    List.filter_map
      (fun file ->
        match parse parser (Filename.concat root file) with
        | str -> Some (file, str)
        | exception e ->
            broken := (file, describe_exn e) :: !broken;
            None)
      files
  in
  (parsed, List.rev !broken)

let parse_all = parse_files Parse.implementation

let run ?(config = default_config) ?(allowlist = []) ~root dirs =
  (* A mistyped directory must not read as a clean scan. *)
  let missing_dirs =
    List.filter
      (fun d ->
        let abs = Filename.concat root d in
        not (Sys.file_exists abs && Sys.is_directory abs))
      dirs
  in
  let reference_files = ml_files ~root config.reference_dirs in
  let files =
    List.filter (fun f -> not (in_scope config.reference_dirs f)) (ml_files ~root dirs)
  in
  let parsed, broken = parse_all ~root files in
  let references, broken_refs = parse_all ~root reference_files in
  let interfaces, broken_mlis =
    parse_files Parse.interface ~root (files_with ~suffix:".mli" ~root dirs)
  in
  let per_file =
    List.concat_map (fun (file, str) -> Lint_rules.analyse config ~file str) parsed
    @ List.concat_map (fun file -> check_mli config ~root file) files
  in
  (* Interprocedural families: the call graph spans every parsed file of
     this run, so cross-module yields and Moved-capability resolve. *)
  let inter = Lint_proto.analyse config parsed in
  let u1 = Lint_exports.analyse config ~interfaces ~checked:parsed ~references in
  let kept, suppressed = Lint_allow.apply allowlist (per_file @ inter @ u1.findings) in
  (* Surface stale suppressions as findings of their own rule family. *)
  let stale = List.map Lint_allow.stale_finding (Lint_allow.unused allowlist) in
  {
    findings = List.sort compare_findings (kept @ stale);
    suppressed = List.sort compare_findings suppressed;
    broken = List.sort compare (broken @ broken_refs @ broken_mlis);
    missing_dirs;
    files_scanned = List.length files;
    exports = u1.exports;
    test_only = u1.test_only;
  }

(* Effect classification over the same file set, for [--effects]. *)
let effects ?(config = default_config) ~root dirs =
  let parsed, _ = parse_all ~root (ml_files ~root dirs) in
  Lint_proto.effects_report config parsed
