module Pagepath = Afs_util.Pagepath

type stats = { pages_visited : int; pages_adopted : int }

type verdict =
  | Serialisable of stats
  | Conflict of { path : Pagepath.t; reason : string; stats : stats }

exception Conflict_found of { path : Pagepath.t; reason : string }
exception Store_error of Errors.t

type walk_state = { ps : Pagestore.t; dry_run : bool; mutable visited : int; mutable adopted : int }

let read_page st block =
  st.visited <- st.visited + 1;
  match Pagestore.read st.ps block with Ok p -> p | Error e -> raise (Store_error e)

let write_page st block page =
  if not st.dry_run then
    match Pagestore.write st.ps block page with
    | Ok () -> ()
    | Error e -> raise (Store_error e)

let conflict path reason = raise (Conflict_found { path; reason })

(* Merge the contents of page [pb] (the candidate's private copy at
   [b_block]) with [pc] (the committed version's copy of the same base
   page), given the access flags [fb] and [fc] their parents hold for
   them. Returns the merged page to store at [b_block]. *)
let rec merge_pages st path ~fb ~fc pb pc =
  (* Data level: W_c against R_b. *)
  if fc.Flags.w && fb.Flags.r then conflict path "data written by committed, read by candidate";
  (* Structure level: M_c against S_b. *)
  if fc.Flags.m && fb.Flags.s then
    conflict path "references modified by committed, searched by candidate";
  let data =
    if fb.Flags.w then pb.Page.data else if fc.Flags.w then pc.Page.data else pb.Page.data
  in
  let refs =
    if fc.Flags.m then begin
      (* S_b is clear here (checked above): the candidate never looked
         below this page, so the committed version's whole reference table
         is adopted, shared with the new base. *)
      st.adopted <- st.adopted + 1;
      Page.cleared_refs pc.Page.refs
    end
    else if fb.Flags.m then begin
      (* The candidate restructured; the committed version must not have
         accessed anything below or index correspondence is lost. *)
      Array.iteri
        (fun i (e : Page.ref_entry) ->
          if e.Page.flags.Flags.c then
            conflict (Pagepath.child path i)
              "candidate restructured references over pages the committed update accessed")
        pc.Page.refs;
      pb.Page.refs
    end
    else begin
      (* Neither restructured: both tables descend from the same base
         table, index by index. *)
      if Array.length pb.Page.refs <> Array.length pc.Page.refs then
        raise
          (Store_error
             (Errors.Store_failure
                (Printf.sprintf "reference tables diverged at %s without M flags"
                   (Pagepath.to_string path))));
      Array.mapi
        (fun i eb -> merge_children st (Pagepath.child path i) eb pc.Page.refs.(i))
        pb.Page.refs
    end
  in
  Page.with_contents pb ~refs ~data

(* Decide what the merged version's reference at [path] is, given the
   candidate's entry [eb] and the committed version's entry [ec] for the
   same base slot. *)
and merge_children st path (eb : Page.ref_entry) (ec : Page.ref_entry) : Page.ref_entry =
  match (eb.Page.flags.Flags.c, ec.Page.flags.Flags.c) with
  | false, false ->
      (* Untouched on both sides: still the shared base page. *)
      eb
  | false, true ->
      (* Candidate never accessed it; adopt the committed subtree, shared
         with the new base (flags clear). *)
      st.adopted <- st.adopted + 1;
      { Page.block = ec.Page.block; flags = Flags.clear }
  | true, false ->
      (* Committed update never accessed it; the candidate's private copy
         stands, flags unchanged (they are equally valid relative to the
         new base, which left this subtree alone). *)
      eb
  | true, true ->
      let pb = read_page st eb.Page.block in
      let pc = read_page st ec.Page.block in
      let merged = merge_pages st path ~fb:eb.Page.flags ~fc:ec.Page.flags pb pc in
      write_page st eb.Page.block merged;
      eb

let run st ~candidate ~committed =
  let vb = read_page st candidate in
  let vc = read_page st committed in
  let fb = vb.Page.header.Page.root_flags in
  let fc = vc.Page.header.Page.root_flags in
  let merged_root = merge_pages st Pagepath.root ~fb ~fc vb vc in
  let header = { merged_root.Page.header with Page.base_ref = Some committed } in
  write_page st candidate (Page.with_header merged_root header)

let execute ~dry_run ps ~candidate ~committed =
  let st = { ps; dry_run; visited = 0; adopted = 0 } in
  let stats () = { pages_visited = st.visited; pages_adopted = st.adopted } in
  match run st ~candidate ~committed with
  | () -> Ok (Serialisable (stats ()))
  | exception Conflict_found { path; reason } -> Ok (Conflict { path; reason; stats = stats () })
  | exception Store_error e -> Error e

let test_and_merge ps ~candidate ~committed = execute ~dry_run:false ps ~candidate ~committed
let test_only ps ~candidate ~committed = execute ~dry_run:true ps ~candidate ~committed

type change = Data_changed | Structure_changed

let diff_trees ps ~old_version ~new_version =
  let ( let* ) = Result.bind in
  let acc = ref [] in
  let rec walk path old_block new_block =
    if old_block = new_block then Ok () (* Shared subtree: identical. *)
    else
      let* old_page = Pagestore.read ps old_block in
      let* new_page = Pagestore.read ps new_block in
      if not (Bytes.equal old_page.Page.data new_page.Page.data) then
        acc := (path, Data_changed) :: !acc;
      let n_old = Page.nrefs old_page and n_new = Page.nrefs new_page in
      if n_old <> n_new then acc := (path, Structure_changed) :: !acc;
      let rec children i =
        if i >= min n_old n_new then Ok ()
        else
          match (Page.get_ref old_page i, Page.get_ref new_page i) with
          | Ok eo, Ok en ->
              let* () = walk (Pagepath.child path i) eo.Page.block en.Page.block in
              children (i + 1)
          | Error msg, _ | _, Error msg -> Error (Errors.Store_failure msg)
      in
      children 0
  in
  let* () = walk Pagepath.root old_version new_version in
  Ok (List.rev !acc)

(* The flagged entries of [refs] from index [i] on, with everything
   below them, added to [map]. Cache-neutral: an admission reads the
   candidate's map inside the commit's critical section, and neither it
   nor a validation may disturb the workload's cache. *)
let rec add_flagged ps path (refs : Page.ref_entry array) i map =
  if i >= Array.length refs then map
  else
    let e = refs.(i) in
    if not e.Page.flags.Flags.c then add_flagged ps path refs (i + 1) map
    else
      let child = Pagepath.child path i in
      let map = Writeset.add map child e.Page.flags in
      match Pagestore.peek ps e.Page.block with
      | Ok page -> add_flagged ps path refs (i + 1) (add_flagged ps child page.Page.refs 0 map)
      | Error e -> raise (Store_error e)

let flag_map ps ~version =
  match Pagestore.peek ps version with
  | Error _ as e -> e
  | Ok root -> (
      let rf = root.Page.header.Page.root_flags in
      let map = if rf.Flags.c then Writeset.add Writeset.empty Pagepath.root rf else Writeset.empty in
      match add_flagged ps Pagepath.root root.Page.refs 0 map with
      | map -> Ok map
      | exception Store_error e -> Error e)
