(* Allowlist: deliberate, reviewed exceptions to lint rules.

   Format, one entry per line:

     RULE  path/to/file.ml  symbol   # mandatory justification

   [symbol] is the identifier the finding reports (e.g. [Hashtbl.fold],
   [failwith], [missing-mli]); [*] matches any symbol. Blank lines and
   lines starting with [#] are ignored. Every entry MUST carry a
   non-empty justification after [#]: a suppression whose reason nobody
   wrote down is a suppression nobody can review or retire. *)

open Lint_types

type entry = {
  rule : rule;
  file : string;
  symbol : string;
  justification : string;
  lineno : int;
  mutable used : bool;
}

type t = entry list

exception Parse_error of string

let parse_line lineno line =
  let body, comment =
    match String.index_opt line '#' with
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  let body = String.trim body in
  if body = "" then None
  else
    match String.split_on_char ' ' body |> List.filter (fun s -> s <> "") with
    | [ rule; file; symbol ] -> (
        match rule_of_string rule with
        | Some rule ->
            if comment = "" then
              raise
                (Parse_error
                   (Printf.sprintf
                      "line %d: entry has no justification — append '# why this exception is \
                       sound'"
                      lineno))
            else Some { rule; file; symbol; justification = comment; lineno; used = false }
        | None ->
            raise
              (Parse_error
                 (Printf.sprintf "line %d: unknown rule %S (want %s)" lineno rule
                    (String.concat "|" (List.map rule_id all_rules)))))
    | _ ->
        raise
          (Parse_error
             (Printf.sprintf "line %d: want 'RULE file symbol  # justification', got %S" lineno
                line))

let of_string s : t =
  String.split_on_char '\n' s
  |> List.mapi (fun i line -> parse_line (i + 1) line)
  |> List.filter_map Fun.id

let load path : t =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let suppresses (t : t) (f : finding) =
  List.exists
    (fun e ->
      let hit = e.rule = f.rule && e.file = f.file && (e.symbol = "*" || e.symbol = f.symbol) in
      if hit then e.used <- true;
      hit)
    t

(** Partition findings into (kept, suppressed). *)
let apply (t : t) findings = List.partition (fun f -> not (suppresses t f)) findings

(** Entries that never matched a finding — stale exceptions worth pruning. *)
let unused (t : t) = List.filter (fun e -> not e.used) t

let entry_to_string (e : entry) =
  Printf.sprintf "line %d: %s %s %s" e.lineno (rule_id e.rule) e.file e.symbol

(** A stale entry surfaced as a Warning finding, so dead suppressions show
    up in the report (and in SARIF) instead of silently accumulating. *)
let stale_finding (e : entry) =
  {
    rule = e.rule;
    severity = Warning;
    file = e.file;
    line = 1;
    col = 0;
    symbol = "stale-allow:" ^ e.symbol;
    message =
      Printf.sprintf
        "stale allowlist entry (%s) matches no current finding — delete it"
        (entry_to_string e);
  }
