(* Module-qualified call graph and fixpoint effect classification.

   Each scanned .ml file defines one graph module (capitalised basename);
   one level of nested [module N = struct .. end] is registered under [N]
   as well, because call sites name functions by their last two dotted
   components. [module R = Afs_rpc.Remote] aliases are resolved per file,
   so aliased and direct references meet in the same node.

   Per top-level binding the walk records, in AST order, the event stream
   the Y1 rule replays (shared-field reads/writes, yields, validations,
   calls, discarded results), plus the seeds of the effect lattice:

     Yields   — transitively reaches a parked-coroutine primitive
                (Proc.delay/suspend, Ivar.read, Rpc.call) or applies a
                configured function-valued field (dynamic call assumed to
                yield);
     Ambient  — transitively reaches an ambient time/randomness source
                (the D1 seeds);
     Mutates  — transitively writes a configured shared-state field;
     Reads    — transitively reads one;
     Validates— transitively passes through a configured validator;
     Moved    — may surface Errors.Moved to its caller (calls a Moved
                source or a Moved-capable function and has no [Moved]
                match case of its own).

   The classification is a least fixpoint over the call graph: summaries
   start empty and grow monotonically until stable, so mutual recursion
   and cycles terminate. The analysis is lexical (no typing): lambdas are
   attributed to their enclosing binding, and dynamic calls through
   record fields are invisible unless listed in [yielding_fields] — both
   trades are conservative for C1 (attribution can only add effects) and
   documented for Y1. *)

open Lint_types
module SS = Set.Make (String)

type event =
  | Read of string * Location.t  (** shared field read *)
  | Write of string * Location.t * bool  (** bool: inside a [Moved] match case *)
  | Yield of string * Location.t
  | Ambient of string * Location.t
  | Validate of string * Location.t
  | Call of string * Location.t * bool  (** callee key; bool as in [Write] *)
  | Discard of string * Location.t  (** result of this callee dropped via ignore / let _ *)

type def = {
  key : string;  (** "Module.fn" *)
  file : string;
  loc : Location.t;
  events : event list;
  calls : SS.t;  (** resolved callee keys *)
  handles_moved : bool;  (** body has a match case whose pattern mentions [Moved] *)
  direct_yield : (string * Location.t) option;
  direct_ambient : (string * Location.t) option;
  direct_moved : bool;  (** calls a configured Moved source *)
}

type summary = {
  mutable yields : bool;
  mutable ambient : bool;
  mutable validates : bool;
  mutable moved : bool;
  mutable reads : SS.t;
  mutable writes : SS.t;
}

type t = {
  defs : def list;  (** sorted by key then file, for deterministic iteration *)
  by_key : (string, def list) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
}

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let components lid = try Longident.flatten lid with _ -> []

(* Last two components of a dotted path, aliases resolved on the module
   part: ["Afs_rpc"; "Remote"; "commit"] -> Some ("Remote", "commit"). *)
let tail2 ~aliases comps =
  match List.rev comps with
  | last :: parent :: _ ->
      let parent =
        match Hashtbl.find_opt aliases parent with Some real -> real | None -> parent
      in
      Some (parent, last)
  | _ -> None

(* Reuse the D1 notion of an ambient source. *)
let ambient_of comps =
  let has m = List.mem m comps in
  match List.rev comps with
  | _ when has "Random" -> Some "Random"
  | last :: _ when has "Unix" && List.mem last [ "gettimeofday"; "time"; "sleep"; "sleepf" ]
    ->
      Some ("Unix." ^ last)
  | "time" :: "Sys" :: _ -> Some "Sys.time"
  | _ -> None

let hashtbl_mutators = [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]

(* Shared field mentioned anywhere inside [e] (the Hashtbl-mutation target,
   e.g. [Hashtbl.reset t.loads]). First hit wins; fields are rare enough
   that nesting ambiguity does not arise in practice. *)
let rec shared_field_in ~shared e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_field (inner, { txt; _ }) -> (
      match List.rev (components txt) with
      | f :: _ when List.mem f shared -> Some f
      | _ -> shared_field_in ~shared inner)
  | Parsetree.Pexp_apply (f, args) -> (
      match shared_field_in ~shared f with
      | Some _ as hit -> hit
      | None -> List.find_map (fun (_, a) -> shared_field_in ~shared a) args)
  | _ -> None

(* Head identifier of a possibly-curried application. *)
let rec head_ident e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some txt
  | Parsetree.Pexp_apply (f, _) -> head_ident f
  | _ -> None

let pattern_mentions_moved pat =
  let found = ref false in
  let iter =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct ({ txt; _ }, _) -> (
              match List.rev (components txt) with
              | "Moved" :: _ -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  iter.pat iter pat;
  !found

(* {2 Per-file collection} *)

type collector = {
  config : config;
  module_name : string;
  file : string;
  aliases : (string, string) Hashtbl.t;
  local_fns : (string, unit) Hashtbl.t;  (** top-level binding names of this module *)
  mutable acc : event list;  (** reversed *)
  mutable c_handles_moved : bool;
  mutable c_calls : SS.t;
  mutable c_yield : (string * Location.t) option;
  mutable c_ambient : (string * Location.t) option;
  mutable c_moved : bool;
  mutable moved_depth : int;  (** > 0 inside a [Moved] match case *)
}

let push c ev = c.acc <- ev :: c.acc

let in_moved c = c.moved_depth > 0

(* Events for one identifier mention. [name2] is the alias-resolved
   "Parent.last" (or bare name) the configured name lists match against. *)
let note_ident c loc lid =
  let comps = components lid in
  let cfg = c.config in
  let name2, resolved =
    match tail2 ~aliases:c.aliases comps with
    | Some (p, l) ->
        let dotted = p ^ "." ^ l in
        (dotted, Some dotted)
    | None -> (
        match comps with
        | [ bare ] ->
            ( bare,
              if Hashtbl.mem c.local_fns bare then Some (c.module_name ^ "." ^ bare) else None
            )
        | _ -> (String.concat "." comps, None))
  in
  (match ambient_of comps with
  | Some src -> begin
      push c (Ambient (src, loc));
      if c.c_ambient = None then c.c_ambient <- Some (src, loc)
    end
  | None -> ());
  if List.mem name2 cfg.yield_primitives then begin
    push c (Yield (name2, loc));
    if c.c_yield = None then c.c_yield <- Some (name2, loc)
  end;
  if List.mem name2 cfg.moved_sources then c.c_moved <- true;
  match resolved with
  | Some key ->
      if List.mem key cfg.validators then push c (Validate (key, loc));
      c.c_calls <- SS.add key c.c_calls;
      push c (Call (key, loc, in_moved c))
  | None -> if List.mem name2 cfg.validators then push c (Validate (name2, loc))

let note_discard c e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply _ | Parsetree.Pexp_ident _ -> (
      match head_ident e with
      | None -> ()
      | Some lid -> (
          let comps = components lid in
          match tail2 ~aliases:c.aliases comps with
          | Some (p, l) -> push c (Discard (p ^ "." ^ l, e.Parsetree.pexp_loc))
          | None -> (
              match comps with
              | [ bare ] when Hashtbl.mem c.local_fns bare ->
                  push c (Discard (c.module_name ^ "." ^ bare, e.Parsetree.pexp_loc))
              | _ -> ())))
  | _ -> ()

let rec walk_expr c (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> note_ident c loc txt
  | Pexp_field (inner, { txt; loc }) -> begin
      walk_expr c inner;
      match List.rev (components txt) with
      | f :: _ when List.mem f c.config.shared_state_fields -> push c (Read (f, loc))
      | _ -> ()
    end
  | Pexp_setfield (inner, { txt; loc }, rhs) -> begin
      walk_expr c inner;
      walk_expr c rhs;
      match List.rev (components txt) with
      | f :: _ when List.mem f c.config.shared_state_fields ->
          push c (Write (f, loc, in_moved c))
      | _ -> ()
    end
  | Pexp_apply (fn, args) -> begin
      (* [ignore e] / [e |> ignore]: the call's result is dropped. *)
      (match (head_ident fn, args) with
      | Some (Longident.Lident "ignore"), [ (_, arg) ] -> note_discard c arg
      | Some (Longident.Ldot (Longident.Lident "Stdlib", "ignore")), [ (_, arg) ] ->
          note_discard c arg
      | Some (Longident.Lident "|>"), [ (_, lhs); (_, rhs) ]
        when head_ident rhs = Some (Longident.Lident "ignore") ->
          note_discard c lhs
      | _ -> ());
      (* A yielding function-valued field applied: dynamic call, assumed
         to park the caller. *)
      (match fn.pexp_desc with
      | Pexp_field (_, { txt; loc }) -> (
          match List.rev (components txt) with
          | f :: _ when List.mem f c.config.yielding_fields -> begin
              push c (Yield ("." ^ f, loc));
              if c.c_yield = None then c.c_yield <- Some ("." ^ f, loc)
            end
          | _ -> ())
      | _ -> ());
      (* Hashtbl mutation of a shared container. *)
      (match (head_ident fn, args) with
      | Some lid, (_, target) :: _ -> (
          match tail2 ~aliases:c.aliases (components lid) with
          | Some ("Hashtbl", op) when List.mem op hashtbl_mutators -> (
              match shared_field_in ~shared:c.config.shared_state_fields target with
              | Some f ->
                  (* The Read for the field access inside [target] is
                     pushed by the normal walk below; the mutation itself
                     lands after it. *)
                  walk_expr c fn;
                  List.iter (fun (_, a) -> walk_expr c a) args;
                  push c (Write (f, e.pexp_loc, in_moved c))
              | None ->
                  walk_expr c fn;
                  List.iter (fun (_, a) -> walk_expr c a) args)
          | _ ->
              walk_expr c fn;
              List.iter (fun (_, a) -> walk_expr c a) args)
      | _ ->
          walk_expr c fn;
          List.iter (fun (_, a) -> walk_expr c a) args)
    end
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) -> begin
      walk_expr c scrut;
      List.iter (walk_case c) cases
    end
  | Pexp_function cases -> List.iter (walk_case c) cases
  | Pexp_let (_, bindings, body) -> begin
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          (match vb.pvb_pat.ppat_desc with
          | Parsetree.Ppat_any -> note_discard c vb.pvb_expr
          | _ -> ());
          walk_expr c vb.pvb_expr)
        bindings;
      walk_expr c body
    end
  | _ ->
      (* Generic fallback: visit children in declaration order (which is
         source order for sequences, conditionals, tuples, ...). *)
      let iter = { Ast_iterator.default_iterator with expr = (fun _ e' -> walk_expr c e') } in
      Ast_iterator.default_iterator.expr iter e

and walk_case c (case : Parsetree.case) =
  let moved = pattern_mentions_moved case.pc_lhs in
  if moved then c.c_handles_moved <- true;
  Option.iter (walk_expr c) case.pc_guard;
  if moved then begin
    c.moved_depth <- c.moved_depth + 1;
    walk_expr c case.pc_rhs;
    c.moved_depth <- c.moved_depth - 1
  end
  else walk_expr c case.pc_rhs

(* Collect the defs of one parsed file. *)
let collect_file (config : config) ~file (str : Parsetree.structure) =
  let module_name = module_of_file file in
  let aliases = Hashtbl.create 8 in
  (* Pass 0: aliases and top-level binding names per module scope. *)
  let names_of items =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> Hashtbl.replace tbl txt ()
                | _ -> ())
              bindings
        | _ -> ())
      items;
    tbl
  in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match List.rev (components txt) with
              | real :: _ -> Hashtbl.replace aliases name real
              | [] -> ())
          | _ -> ())
      | _ -> ())
    str;
  let defs = ref [] in
  let collect_bindings ~scope_module ~local_fns items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = fn; loc } ->
                    let c =
                      {
                        config;
                        module_name = scope_module;
                        file;
                        aliases;
                        local_fns;
                        acc = [];
                        c_handles_moved = false;
                        c_calls = SS.empty;
                        c_yield = None;
                        c_ambient = None;
                        c_moved = false;
                        moved_depth = 0;
                      }
                    in
                    walk_expr c vb.pvb_expr;
                    defs :=
                      {
                        key = scope_module ^ "." ^ fn;
                        file;
                        loc;
                        events = List.rev c.acc;
                        calls = c.c_calls;
                        handles_moved = c.c_handles_moved;
                        direct_yield = c.c_yield;
                        direct_ambient = c.c_ambient;
                        direct_moved = c.c_moved;
                      }
                      :: !defs
                | _ -> ())
              bindings
        | _ -> ())
      items
  in
  collect_bindings ~scope_module:module_name ~local_fns:(names_of str) str;
  (* One level of nested structures: [module Txn = struct .. end] is
     addressable as [Txn.fn] from other files. *)
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure items ->
              collect_bindings ~scope_module:sub ~local_fns:(names_of items) items
          | _ -> ())
      | _ -> ())
    str;
  List.rev !defs

(* {2 The fixpoint} *)

let empty_summary () =
  { yields = false; ambient = false; validates = false; moved = false;
    reads = SS.empty; writes = SS.empty }

let summary t key = Hashtbl.find_opt t.summaries key

let build (config : config) files =
  let defs =
    List.concat_map (fun (file, str) -> collect_file config ~file str) files
    |> List.sort (fun a b ->
           match compare a.key b.key with 0 -> compare a.file b.file | c -> c)
  in
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun d ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_key d.key) in
      Hashtbl.replace by_key d.key (existing @ [ d ]))
    defs;
  let summaries = Hashtbl.create 256 in
  List.iter (fun d -> if not (Hashtbl.mem summaries d.key) then
      Hashtbl.replace summaries d.key (empty_summary ())) defs;
  (* Direct seeds per def, folded into the key's summary. *)
  let seed d (s : summary) =
    if d.direct_yield <> None then s.yields <- true;
    if d.direct_ambient <> None then s.ambient <- true;
    if List.mem d.key config.validators then s.validates <- true;
    List.iter
      (function
        | Read (f, _) -> s.reads <- SS.add f s.reads
        | Write (f, _, _) -> s.writes <- SS.add f s.writes
        | Validate _ -> s.validates <- true
        | _ -> ())
      d.events
  in
  List.iter (fun d -> seed d (Hashtbl.find summaries d.key)) defs;
  (* Least fixpoint; every field grows monotonically so this terminates. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let s = Hashtbl.find summaries d.key in
        let moved_now =
          (not d.handles_moved)
          && (d.direct_moved
             || SS.exists
                  (fun callee ->
                    match Hashtbl.find_opt summaries callee with
                    | Some cs -> cs.moved
                    | None -> false)
                  d.calls)
        in
        if moved_now && not s.moved then begin
          s.moved <- true;
          changed := true
        end;
        SS.iter
          (fun callee ->
            match Hashtbl.find_opt summaries callee with
            | None -> ()
            | Some cs ->
                if cs.yields && not s.yields then (s.yields <- true; changed := true);
                if cs.ambient && not s.ambient then (s.ambient <- true; changed := true);
                if cs.validates && not s.validates then (s.validates <- true; changed := true);
                let reads' = SS.union s.reads cs.reads in
                if not (SS.equal reads' s.reads) then (s.reads <- reads'; changed := true);
                let writes' = SS.union s.writes cs.writes in
                if not (SS.equal writes' s.writes) then (s.writes <- writes'; changed := true))
          d.calls)
      defs
  done;
  { defs; by_key; summaries }

(* Shortest call chain from [key] to a def with a direct witness, for C1
   reports: ["Server.commit"; "Pagestore.flush"; ...; "Proc.delay"]. *)
let witness_chain t ~key ~(has : def -> (string * Location.t) option) =
  let visited = Hashtbl.create 32 in
  let q = Queue.create () in
  Queue.add (key, [ key ]) q;
  Hashtbl.replace visited key ();
  let rec bfs () =
    match Queue.take_opt q with
    | None -> None
    | Some (k, path) -> (
        let defs = Option.value ~default:[] (Hashtbl.find_opt t.by_key k) in
        match List.find_map has defs with
        | Some (prim, _) -> Some (List.rev (prim :: path))
        | None ->
            List.iter
              (fun d ->
                SS.iter
                  (fun callee ->
                    if not (Hashtbl.mem visited callee) then begin
                      Hashtbl.replace visited callee ();
                      Queue.add (callee, callee :: path) q
                    end)
                  d.calls)
              defs;
            bfs ())
  in
  bfs ()
