(* U1 — unused exports.

   Every [val] a library interface declares (an .mli under [u1_dirs],
   nested [module X : sig .. end] signatures included) must be referenced
   from some file other than its own implementation. An export nobody
   else names is surface that only costs reading time: delete it, or drop
   it from the .mli if its own module still uses it.

   A reference is a value path in an .ml file, read the way the call graph
   reads it: local module aliases ([module S = Afs_core.Server],
   [let module S = ..]) are expanded, and a path is also read under every
   module the file opens ([open], [let open], [M.( .. )]). A path names
   an export when the export's own path ([Server.commit],
   [Replica.Source.attach]) is a suffix of it, so library wrappers
   ([Afs_core.]) drop out. A module used as a module rather than through
   a value path (a functor argument, [include], a packed first-class
   module) references all of its exports. Scopes are ignored, so every
   over-approximation errs towards "referenced": U1 can miss a dead
   export, never flag a live one.

   Files under [reference_dirs] (the tests) are parsed for references
   only. An export that only they name is not a finding; it is counted
   as a test-only export, so test hooks stay visible as such. *)

open Lint_types

type export = {
  path : string list;  (** module path then value name, e.g. ["Client"; "Txn"; "read"] *)
  file : string;
  loc : Location.t;
  mutable by_code : bool;
  mutable by_tests : bool;
}

type result = {
  findings : finding list;
  exports : int;  (** vals declared in scope *)
  test_only : string list;  (** exports only reference files name, sorted *)
}

let components lid = try Longident.flatten lid with _ -> []

let exports_of_interface ~file (sg : Parsetree.signature) =
  let rec walk prefix items acc =
    List.fold_left
      (fun acc (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
            { path = prefix @ [ vd.pval_name.txt ]; file; loc = vd.pval_name.loc;
              by_code = false; by_tests = false }
            :: acc
        | Psig_module
            { pmd_name = { txt = Some name; _ }; pmd_type = { pmty_desc = Pmty_signature sub; _ }; _ }
          ->
            walk (prefix @ [ name ]) sub acc
        | _ -> acc)
      acc items
  in
  List.rev (walk [ Lint_callgraph.module_of_file file ] sg [])

(* Feed [on_value] every value path one file mentions, as its last
   component and a thunk of its readings through the file's aliases and
   opens, and [on_module] the readings of every module path used as a
   module. *)
let references_of ~on_value ~on_module (str : Parsetree.structure) =
  let aliases = Hashtbl.create 8 in
  let opened = ref [] and opens = ref [] in
  let rec expand depth comps =
    match comps with
    | head :: rest when depth < 8 ->
        comps
        :: List.concat_map (fun target -> expand (depth + 1) (target @ rest))
             (Hashtbl.find_all aliases head)
    | _ -> [ comps ]
  in
  let candidates lid =
    let direct = expand 0 (components lid) in
    direct @ List.concat_map (fun o -> List.map (fun p -> o @ p) direct) !opens
  in
  (* An open is also read under each open before it, one level deep, and
     kept once: [M.( .. )] recurs hundreds of times in some files. *)
  let add_open lid =
    let direct = expand 0 (components lid) in
    let nested = List.concat_map (fun o -> List.map (fun p -> o @ p) direct) !opened in
    opened := List.sort_uniq compare (direct @ !opened);
    opens := List.sort_uniq compare (direct @ nested @ !opens)
  in
  let module_ident iter (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Some txt
    | _ ->
        Ast_iterator.default_iterator.module_expr iter me;
        None
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> on_value (Longident.last txt) (fun () -> candidates txt)
          | Pexp_letop { let_; ands; _ } ->
              List.iter
                (fun (op : Parsetree.binding_op) ->
                  let op = op.pbop_op.txt in
                  on_value op (fun () -> candidates (Longident.Lident op)))
                (let_ :: ands);
              Ast_iterator.default_iterator.expr iter e
          | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
              Option.iter
                (fun lid -> Hashtbl.add aliases name (components lid))
                (module_ident iter me);
              iter.expr iter body
          | _ -> Ast_iterator.default_iterator.expr iter e);
      module_binding =
        (fun iter mb ->
          match (mb.pmb_name.txt, module_ident iter mb.pmb_expr) with
          | Some name, Some lid -> Hashtbl.add aliases name (components lid)
          | _ -> ());
      open_declaration = (fun iter od -> Option.iter add_open (module_ident iter od.popen_expr));
      module_expr =
        (fun iter me -> Option.iter (fun lid -> on_module (candidates lid)) (module_ident iter me));
    }
  in
  iter.structure iter str

(* [suffix xs ys]: [xs] is a suffix of [ys]. *)
let suffix xs ys =
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && prefix a' b'
    | _ :: _, [] -> false
  in
  prefix (List.rev xs) (List.rev ys)

let last = function [] -> "" | xs -> List.nth xs (List.length xs - 1)

let module_path e = List.filteri (fun i _ -> i < List.length e.path - 1) e.path

let stem file = Filename.remove_extension file

let analyse (config : config) ~interfaces ~checked ~references =
  let exports =
    List.concat_map
      (fun (file, sg) ->
        if in_scope config.u1_dirs file then exports_of_interface ~file sg else [])
      interfaces
  in
  let by_name = Hashtbl.create 256 and by_module = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.add by_name (last e.path) e;
      Hashtbl.add by_module (last (module_path e)) e)
    exports;
  let scan ~tests (file, str) =
    let mark e =
      if stem e.file <> stem file then
        if tests then e.by_tests <- true else e.by_code <- true
    in
    (* Most value paths are local variables: read only those whose last
       component some export carries. *)
    let on_value name paths =
      match Hashtbl.find_all by_name name with
      | [] -> ()
      | named ->
          List.iter (fun p -> List.iter (fun e -> if suffix e.path p then mark e) named) (paths ())
    in
    let on_module paths =
      List.iter
        (fun m ->
          List.iter
            (fun e -> if suffix (module_path e) m then mark e)
            (Hashtbl.find_all by_module (last m)))
        paths
    in
    references_of ~on_value ~on_module str
  in
  List.iter (scan ~tests:false) checked;
  List.iter (scan ~tests:true) references;
  let symbol e = String.concat "." e.path in
  let findings =
    List.filter_map
      (fun e ->
        if e.by_code || e.by_tests then None
        else
          Some
            (Lint_rules.mk ~rule:U1 ~severity:Error ~file:e.file ~loc:e.loc ~symbol:(symbol e)
               "exported but no other file references it — delete it, or drop it from the \
                .mli if its own module still uses it"))
      exports
  in
  {
    findings = List.sort compare_findings findings;
    exports = List.length exports;
    test_only =
      List.filter_map (fun e -> if e.by_tests && not e.by_code then Some (symbol e) else None) exports
      |> List.sort compare;
  }
