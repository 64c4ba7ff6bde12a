(* Parsetree analysis for the D1 / P1 / E1 rule families.

   The pass is purely lexical (no typing): identifiers are matched by their
   dotted path, so [module E = Engine] aliases are caught at the binding and
   at direct [Engine.*] uses, but a rebound alias used exclusively through
   the new name can escape a heuristic. That trade keeps the tool dependency
   -free, instant, and runnable on any parseable source. *)

open Lint_types

let mk ~rule ~severity ~file ~loc ~symbol message =
  let pos = loc.Location.loc_start in
  {
    rule;
    severity;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    symbol;
    message;
  }

let components lid = try Longident.flatten lid with _ -> []

let dotted lid = String.concat "." (components lid)

(* Last two components, e.g. ["Afs_sim"; "Engine"; "run"] -> ("Engine", "run"). *)
let tail2 comps =
  match List.rev comps with
  | last :: parent :: _ -> Some (parent, last)
  | _ -> None

(* {2 D1: determinism} *)

(* Ambient time / randomness sources. Each entry pairs a predicate on the
   identifier path with the replacement to suggest. *)
let banned_ambient comps =
  let has m = List.mem m comps in
  match List.rev comps with
  | _ when has "Random" -> Some "seed an Afs_util.Xrng and thread it explicitly"
  | last :: _ when has "Unix" && List.mem last [ "gettimeofday"; "time"; "sleep"; "sleepf" ] ->
      Some "virtual time only: use Engine.now / Proc.delay"
  | "time" :: "Sys" :: _ -> Some "virtual time only: use Engine.now"
  | _ -> None

let unordered_hashtbl comps =
  match tail2 comps with
  | Some ("Hashtbl", op)
    when List.mem op [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ] ->
      Some op
  | _ -> None

let is_sort comps =
  match tail2 comps with
  | Some ("List", op) -> List.mem op [ "sort"; "stable_sort"; "sort_uniq"; "fast_sort" ]
  | _ -> false

(* Modules whose mention marks a unit as feeding the wire format or the
   event queue; unordered iteration there is a determinism hazard. *)
let wire_like = [ "Wire"; "Serialise"; "Engine" ]

(* {2 E1: effect safety} *)

type e1_context = Process_body | Engine_callback

let spawner comps =
  match tail2 comps with
  | Some ("Proc", "spawn") -> Some Process_body
  | Some ("Engine", "at") -> Some Engine_callback
  | _ -> None

let is_engine_reentry comps =
  match tail2 comps with
  | Some ("Engine", "run") -> Some "run"
  | _ -> None

let blocking_call comps =
  match tail2 comps with
  | Some ("Ivar", "read") -> Some "Ivar.read"
  | Some ("Proc", (("delay" | "suspend") as op)) -> Some ("Proc." ^ op)
  | _ -> None

(* {2 The pass} *)

type unit_facts = {
  mutable mentions_wire : bool;  (** unit references Wire / Serialise / Engine *)
  mutable has_fulfiller : bool;  (** unit contains Ivar.fill / Ivar.try_fill *)
  mutable ivar_reads : (Location.t * string) list;
}

(* First pass: whole-unit facts that gate per-site rules. *)
let collect_facts (str : Parsetree.structure) =
  let facts = { mentions_wire = false; has_fulfiller = false; ivar_reads = [] } in
  let note comps =
    if List.exists (fun c -> List.mem c wire_like) comps then facts.mentions_wire <- true;
    match tail2 comps with
    | Some ("Ivar", ("fill" | "try_fill")) -> facts.has_fulfiller <- true
    | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } -> note (components txt)
          | Parsetree.Pexp_new { txt; _ } -> note (components txt)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      module_expr =
        (fun self m ->
          (match m.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident { txt; _ } -> note (components txt)
          | _ -> ());
          Ast_iterator.default_iterator.module_expr self m);
    }
  in
  iter.structure iter str;
  facts

let analyse (config : config) ~file (str : Parsetree.structure) =
  let facts = collect_facts str in
  let findings = ref [] in
  let emit ~rule ~severity ~loc ~symbol message =
    findings := mk ~rule ~severity ~file ~loc ~symbol message :: !findings
  in
  let p1_scope = in_scope config.protocol_dirs file in
  let hashtbl_strict = in_scope config.hashtbl_strict_units file in
  let hashtbl_scope =
    hashtbl_strict || (in_scope config.hashtbl_dirs file && facts.mentions_wire)
  in
  let e1_scope = in_scope config.e1_dirs file && not (in_scope config.e1_exempt file) in
  let rng_exempt = List.mem file config.rng_exempt in
  (* Lexical context, innermost first. *)
  let sorted_depth = ref 0 in
  let e1_stack = ref [] in
  let check_ident loc lid =
    let comps = components lid in
    let name = dotted lid in
    if not rng_exempt then
      Option.iter
        (fun fix ->
          emit ~rule:D1 ~severity:Error ~loc ~symbol:name
            (Printf.sprintf "ambient nondeterminism: %s — %s" name fix))
        (banned_ambient comps);
    (match unordered_hashtbl comps with
    | Some _ when hashtbl_scope && !sorted_depth = 0 ->
        let why =
          if hashtbl_strict then "a determinism-critical unit"
          else "a unit that feeds Wire/Serialise/Engine"
        in
        emit ~rule:D1 ~severity:Error ~loc ~symbol:name
          (Printf.sprintf
             "unordered %s in %s — iterate in sorted key order (Afs_util.Det) or sort the result"
             name why)
    | _ -> ());
    if p1_scope then begin
      match name with
      | "List.hd" | "List.tl" | "Option.get" | "failwith" | "Stdlib.failwith" ->
          emit ~rule:P1 ~severity:Error ~loc ~symbol:name
            (Printf.sprintf
               "partial operation %s in a protocol path — errors must flow through Errors.t" name)
      | _ -> ()
    end;
    if e1_scope then begin
      (match (is_engine_reentry comps, !e1_stack) with
      | Some op, ctx :: _ ->
          let where =
            match ctx with
            | Process_body -> "inside a Proc coroutine"
            | Engine_callback -> "inside an Engine.at callback"
          in
          emit ~rule:E1 ~severity:Error ~loc ~symbol:("Engine." ^ op)
            (Printf.sprintf "re-entrant Engine.%s %s — the engine is already running" op where)
      | _ -> ());
      match (blocking_call comps, !e1_stack) with
      | Some sym, Engine_callback :: _ ->
          emit ~rule:E1 ~severity:Error ~loc ~symbol:sym
            (Printf.sprintf
               "blocking %s inside an Engine.at callback — callbacks are not processes; spawn a \
                Proc or use Ivar.try_fill" sym)
      | Some "Ivar.read", _ -> facts.ivar_reads <- (loc, "Ivar.read") :: facts.ivar_reads
      | _ -> ()
    end
  in
  (* Head identifier of a possibly-curried application: [List.sort cmp]
     applied via [|>] or [@@] still counts as a sort. *)
  let rec head_components e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> components txt
    | Parsetree.Pexp_apply (f, _) -> head_components f
    | _ -> []
  in
  let iter_base = Ast_iterator.default_iterator in
  let rec expr self (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident loc txt
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when p1_scope ->
        emit ~rule:P1 ~severity:Error ~loc:e.pexp_loc ~symbol:"assert false"
          "assert false in a protocol path — make the match total or return an Errors.t"
    | Pexp_apply (fn, args) ->
        let head = head_components fn in
        let visit_args ctx =
          Option.iter (fun c -> e1_stack := c :: !e1_stack) ctx;
          List.iter (fun (_, a) -> expr self a) args;
          Option.iter (fun _ -> e1_stack := List.tl !e1_stack) ctx
        in
        if is_sort head then begin
          expr self fn;
          incr sorted_depth;
          visit_args None;
          decr sorted_depth
        end
        else begin
          match (head, args) with
          (* e |> List.sort cmp — the left operand ends up sorted. *)
          | [ "|>" ], [ (_, lhs); (_, rhs) ] when is_sort (head_components rhs) ->
              incr sorted_depth;
              expr self lhs;
              decr sorted_depth;
              expr self rhs
          (* List.sort cmp @@ e *)
          | [ "@@" ], [ (_, lhs); (_, rhs) ] when is_sort (head_components lhs) ->
              expr self lhs;
              incr sorted_depth;
              expr self rhs;
              decr sorted_depth
          | _ ->
              expr self fn;
              visit_args (spawner head)
        end
    | _ -> iter_base.expr self e
  in
  let iter = { iter_base with expr } in
  iter.structure iter str;
  (* Unit-level heuristic: ivars read but never filled anywhere in the unit
     are either dead waits or filled far away — worth a human look. *)
  if not facts.has_fulfiller then
    List.iter
      (fun (loc, sym) ->
        emit ~rule:E1 ~severity:Warning ~loc ~symbol:sym
          "Ivar.read with no Ivar.fill/try_fill anywhere in this unit — no reachable fulfiller?")
      facts.ivar_reads;
  List.sort compare_findings !findings
