module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Det = Afs_util.Det
module Trace = Afs_trace.Trace

open Errors

type version_status = Uncommitted | Committed | Aborted

type page_info = { nrefs : int; dsize : int; child_flags : Flags.t array }

(* What earlier admissions did to a version still uncommitted because
   their publish failed, which a retry admits again. [Merged]: its
   copies' [base_ref]s may name superseded pages, so a fast-path win
   keeps its read shadows. [Shadows_dropped]: their R flags are gone, so
   it can no longer be merged. *)
type past_admissions = Unadmitted | Merged | Shadows_dropped

type version_record = {
  vblock : int;
  file_obj : int;
  mutable status : version_status;
  (* The §5.4 concurrency-control administration read from the page
     tree, kept only once the version is committed and its tree no longer
     changes: from its admission here, or read on first need. Never kept
     for an uncommitted version, whose tree another server may still be
     changing. *)
  mutable wset : Writeset.t option;
  (* The blocks this uncommitted version allocated through this server —
     copies and inserted pages — newest first (a version learned from
     the store starts with the copies its tree reaches):
     with the version page, the pages its publish must make durable.
     Emptied once the version is finished or aborted. *)
  mutable private_blocks : int list;
  mutable past : past_admissions;
}

type file_record = {
  file_obj : int;  (** Even-numbered object: 2 * first version block. *)
  mutable current_hint : int;
  mutable oldest_hint : int;  (** Oldest retained committed version. *)
  uncommitted : (int, unit) Hashtbl.t;  (** Version-page blocks. *)
  (* Every version block ever registered for this file, newest first:
     destroying the file walks this list instead of every version the
     server knows about. *)
  mutable vblocks : int list;
}

type t = {
  ps : Pagestore.t;
  secret : Capability.secret;
  server_port : Capability.port;
  port_registry : Ports.t;
  files : (int, file_record) Hashtbl.t;
  versions : (int, version_record) Hashtbl.t;  (** Keyed by version block. *)
  (* File objects explicitly destroyed: lazy learning must not resurrect
     them from their still-on-disk pages before the GC sweeps. *)
  destroyed : (int, unit) Hashtbl.t;
  counters : Stats.Counter.t;
  name : string;
  (* The replication gate: called with the pages and then the commit
     references a publish is about to write through, before the local
     store sees them. Returning an error vetoes the publish — nothing is
     written, so the commit aborts cleanly. A fenced (deposed) primary's
     gate always errors; the default always succeeds. *)
  publish_tap : (int * Page.t) list -> (unit, Errors.t) result;
  trace : Trace.t;
}

let create ?(page_cache = true) ?cache_capacity ?(seed = 0xA40EBA) ?ports ?(name = "")
    ?(publish_tap = fun _ -> Ok ()) ?(trace = Trace.null) store =
  let port_registry = match ports with Some p -> p | None -> Ports.create () in
  let counters = Stats.Counter.create () in
  {
    (* The server's one counter table: its page store and every local
       client count into it too. *)
    ps = Pagestore.create ~cache:page_cache ?capacity:cache_capacity ~trace ~counters store;
    secret = Capability.secret_of_seed seed;
    server_port = Capability.port_of_int (seed land 0xFFFFFFFFFFFF);
    port_registry;
    files = Hashtbl.create 64;
    versions = Hashtbl.create 256;
    destroyed = Hashtbl.create 8;
    counters;
    name;
    publish_tap;
    trace;
  }

let name t = t.name
let trace t = t.trace

let tpoint t payload = if Trace.enabled t.trace then Trace.point t.trace payload

let pagestore t = t.ps
let ports t = t.port_registry
let port t = t.server_port
let counters t = t.counters
let bump ?by t name = Stats.Counter.incr ?by t.counters name

(* {2 Capabilities}

   Object numbers share one space: a file is 2*(first version block), a
   version is 2*(version block)+1, so the two kinds cannot be confused. *)

let file_obj_of_block b = 2 * b
let version_obj_of_block b = (2 * b) + 1

let mint_file_cap t first_block =
  Capability.mint t.secret ~port:t.server_port ~obj:(file_obj_of_block first_block)
    ~rights:Capability.rights_all

let mint_version_cap ?(rights = Capability.rights_all) t vblock =
  Capability.mint t.secret ~port:t.server_port ~obj:(version_obj_of_block vblock) ~rights

let grants t cap ~need =
  Capability.validate t.secret cap
  && Capability.port_to_int cap.Capability.port = Capability.port_to_int t.server_port
  && Capability.rights_subset need cap.Capability.rights

let fresh_file_record ~file_obj ~current ~oldest ~vblocks =
  { file_obj; current_hint = current; oldest_hint = oldest; uncommitted = Hashtbl.create 4; vblocks }

let fresh_version_record ~vblock ~file_obj ~status ?(private_blocks = []) () =
  { vblock; file_obj; status; wset = None; private_blocks; past = Unadmitted }

(* Register a version block in its file's index (creating the file record
   when the file itself has not been seen yet, with [committed], a
   committed version of it, as both its hints). *)
let index_version t ~file_obj ~vblock ~committed =
  match Hashtbl.find_opt t.files file_obj with
  | Some f -> f.vblocks <- vblock :: f.vblocks
  | None ->
      Hashtbl.replace t.files file_obj
        (fresh_file_record ~file_obj ~current:committed ~oldest:committed ~vblocks:[ vblock ])

(* Like versions, files can be learned lazily from the store: the file
   capability's object number is derived from its first version block. *)
let learn_file t cap =
  let first = cap.Capability.obj / 2 in
  if Hashtbl.mem t.destroyed cap.Capability.obj then Error (No_such_file cap.Capability.obj)
  else
  match Pagestore.read t.ps first with
  | Error _ -> Error (No_such_file cap.Capability.obj)
  | Ok page ->
      (match page.Page.header.Page.file_cap with
      | Some fc when fc.Capability.obj = cap.Capability.obj ->
          (* No version of this file is registered yet: every registration
             path creates the file record first. *)
          let f =
            fresh_file_record ~file_obj:cap.Capability.obj ~current:first ~oldest:first
              ~vblocks:[]
          in
          Hashtbl.replace t.files cap.Capability.obj f;
          Ok f
      | _ -> Error (No_such_file cap.Capability.obj))

(* Every request starts here or in {!find_version}: check the capability,
   then find its object, allocating only the [Ok] answer. *)
let find_file t cap ~need =
  let obj = cap.Capability.obj in
  if obj land 1 = 1 || not (grants t cap ~need) then Error Invalid_capability
  else match Hashtbl.find t.files obj with f -> Ok f | exception Not_found -> learn_file t cap

(* Folds [f] over each copy (C set) below [page] from entry [i] on,
   children before their parent, in reference-table order: the pages
   private to an uncommitted version. Shared pages (C clear) belong to
   the base. [f] is passed [t], so a closed one costs no closure. *)
let rec fold_copies t (page : Page.t) i f acc =
  if i >= Page.nrefs page then acc
  else
    let e = page.Page.refs.(i) in
    if not e.Page.flags.Flags.c then fold_copies t page (i + 1) f acc
    else
      let acc =
        match Pagestore.read t.ps e.Page.block with
        | Ok child -> fold_copies t child 0 f acc
        | Error _ -> acc
      in
      fold_copies t page (i + 1) f (f t e.Page.block acc)

(* A server can be handed a capability for a version another server
   created: any server may serve any object on a store it reaches. Learn
   such versions lazily from their on-disk version page. The version is
   committed iff something points at it — its base's commit reference —
   or it is a chain root; anything else is some client's in-flight
   update, whose reachable copies become its private blocks here. *)
let learn_version t cap =
  let vblock = cap.Capability.obj / 2 in
  match Pagestore.read t.ps vblock with
  | Error _ -> Error (No_such_version cap.Capability.obj)
  | Ok page ->
      (match (page.Page.header.Page.version_cap, page.Page.header.Page.file_cap) with
      | Some vc, Some fc
        when vc.Capability.obj = cap.Capability.obj
             && not (Hashtbl.mem t.destroyed fc.Capability.obj) ->
          let committed =
            page.Page.header.Page.commit_ref <> None
            ||
            match page.Page.header.Page.base_ref with
            | None -> true
            | Some base -> (
                match Pagestore.read t.ps base with
                | Ok bpage -> bpage.Page.header.Page.commit_ref = Some vblock
                | Error _ -> false)
          in
          let private_blocks =
            if committed then [] else fold_copies t page 0 (fun _ b blocks -> b :: blocks) []
          in
          let v =
            fresh_version_record ~vblock ~file_obj:fc.Capability.obj ~private_blocks
              ~status:(if committed then Committed else Uncommitted) ()
          in
          Hashtbl.replace t.versions vblock v;
          (* An in-flight update's base was committed when it began: a
             chase from there finds the file's current version. *)
          index_version t ~file_obj:fc.Capability.obj ~vblock
            ~committed:
              (match page.Page.header.Page.base_ref with
              | Some base when not committed -> base
              | Some _ | None -> vblock);
          Ok v
      | _ -> Error (No_such_version cap.Capability.obj))

let find_version t cap ~need =
  let obj = cap.Capability.obj in
  if obj land 1 = 0 || not (grants t cap ~need) then Error Invalid_capability
  else
    match Hashtbl.find t.versions (obj / 2) with
    | v -> Ok v
    | exception Not_found -> learn_version t cap

(* {2 Page plumbing} *)

let read_pg t b = Pagestore.read t.ps b
let write_pg t b p = Pagestore.write t.ps b p

let lift_page_err path r = Result.map_error (fun _ -> Bad_path path) r

(* Follow commit references to the newest committed version. Commit
   references are written in place, possibly by another server sharing
   the store, so a cached version page claiming to be current must be
   re-read from the store before we believe it ("the integrity of the
   cache is checked at the start of a transaction", §3.1). *)
let rec chase_current t block =
  match read_pg t block with
  | Error e -> Error e
  | Ok { Page.header = { Page.commit_ref = Some successor; _ }; _ } -> chase_current t successor
  | Ok _ -> (
      Pagestore.refresh t.ps block;
      match read_pg t block with
      | Error e -> Error e
      | Ok { Page.header = { Page.commit_ref = Some successor; _ }; _ } -> chase_current t successor
      | Ok _ -> Ok block)

(* A fresh block private to [v]: its publish will write it. *)
let allocate_private t (v : version_record) =
  match Pagestore.allocate t.ps with
  | Ok b as fresh ->
      v.private_blocks <- b :: v.private_blocks;
      fresh
  | Error _ as e -> e

(* Record an access at the flag location of the page at [depth]: the
   version page's own root-flags field for the root (depth 0), entry
   [index] of its parent [pblock] otherwise. An access that adds no flag
   writes nothing. *)
let record_access_at t (v : version_record) ~depth pblock index access =
  if depth = 0 then (
    match read_pg t v.vblock with
    | Error e -> Error e
    | Ok page ->
        let header = page.Page.header in
        let root_flags = Flags.record header.Page.root_flags access in
        if Flags.equal root_flags header.Page.root_flags then Ok ()
        else write_pg t v.vblock (Page.with_header page { header with Page.root_flags }))
  else
    match read_pg t pblock with
    | Error e -> Error e
    | Ok page when index >= Page.nrefs page -> Error (Bad_path Pagepath.root)
    | Ok page ->
        let entry = page.Page.refs.(index) in
        let flags = Flags.record entry.Page.flags access in
        if Flags.equal flags entry.Page.flags then Ok ()
        else Pagestore.set_ref t.ps pblock page index { entry with Page.flags }

(* Copy-on-write of the child at [index] of the page at [pblock], for an
   [access]: allocate a block private to [v], store the child there
   ({!Page.copied_from} the shared original), and repoint the parent at
   the copy with the access already recorded, in one reference-table
   update. The shared entry's flags are clear, so recording on them gives
   C plus the access. *)
let copy_child t v pblock index (entry : Page.ref_entry) access =
  match read_pg t entry.Page.block with
  | Error e -> Error e
  | Ok child -> (
      match allocate_private t v with
      | Error e -> Error e
      | Ok fresh as copy -> (
          match write_pg t fresh (Page.copied_from child entry.Page.block) with
          | Error e -> Error e
          | Ok () -> (
              match read_pg t pblock with
              | Error e -> Error e
              | Ok parent -> (
                  let copied = { Page.block = fresh; flags = Flags.record entry.Page.flags access } in
                  match Pagestore.set_ref t.ps pblock parent index copied with
                  | Error e -> Error e
                  | Ok () ->
                      bump t "pages.copied";
                      copy))))

(* Descend [path] from the version page of [v], copying every page on the
   way (access implies copy, §5.1), recording S on each page whose
   references are consulted and [access] on the target. Returns the
   target's private block. A copy is made with its access recorded, so
   the recording on it that follows adds nothing; still, it reads the
   parent, which keeps the cache's hit count per level. [block] is the
   page at [depth], entry [index] of [pblock] (never read for the root).
   A top-level function that matches rather than binds: a level costs
   O(1) and allocates nothing unless it records a new flag or copies. *)
let rec descend_for_access t v path access depth pblock index block = function
  | [] -> (
      match record_access_at t v ~depth pblock index access with
      | Ok () -> Ok block
      | Error e -> Error e)
  | next :: rest -> (
      match record_access_at t v ~depth pblock index Flags.Search with
      | Error e -> Error e
      | Ok () -> (
          match read_pg t block with
          | Error e -> Error e
          | Ok page when next >= Page.nrefs page ->
              Error (Bad_index { path; index = next; nrefs = Page.nrefs page })
          | Ok page -> (
              let entry = page.Page.refs.(next) in
              if entry.Page.flags.Flags.c then
                descend_for_access t v path access (depth + 1) block next entry.Page.block rest
              else
                match
                  copy_child t v block next entry
                    (match rest with [] -> access | _ :: _ -> Flags.Search)
                with
                | Ok copy -> descend_for_access t v path access (depth + 1) block next copy rest
                | Error e -> Error e)))

(* The host-costed section [server.access]; without host cost, no closure. *)
let locate_for_access t (v : version_record) path access =
  if Trace.costing t.trace then
    Trace.costed t.trace ~kind:"server.access" (fun () ->
        descend_for_access t v path access 0 v.vblock 0 v.vblock (Pagepath.to_list path))
  else descend_for_access t v path access 0 v.vblock 0 v.vblock (Pagepath.to_list path)

(* Plain traversal with no copying and no flag recording, for committed
   versions (and introspection). *)
let rec descend_plain t path block = function
  | [] -> read_pg t block
  | index :: rest -> (
      match read_pg t block with
      | Error e -> Error e
      | Ok page -> (
          match Page.get_ref page index with
          | Error _ -> Error (Bad_index { path; index; nrefs = Page.nrefs page })
          | Ok entry -> descend_plain t path entry.Page.block rest))

let locate_plain t vblock path = descend_plain t path vblock (Pagepath.to_list path)

(* {2 Files} *)

let create_file t ?(data = Bytes.empty) () =
  let* vb = Pagestore.allocate t.ps in
  let file_cap = mint_file_cap t vb in
  let version_cap = mint_version_cap t vb in
  let page =
    Page.make_version_page ~file_cap ~version_cap ~base_ref:None ~parent_ref:None
      ~refs:[||] ~data
  in
  let* () = Pagestore.write_through t.ps vb page in
  Hashtbl.replace t.files (file_obj_of_block vb)
    (fresh_file_record ~file_obj:(file_obj_of_block vb) ~current:vb ~oldest:vb ~vblocks:[ vb ]);
  Hashtbl.replace t.versions vb
    (fresh_version_record ~vblock:vb ~file_obj:(file_obj_of_block vb) ~status:Committed ());
  Ok file_cap

(* The file's current version block, which becomes its hint. *)
let current_block t file =
  let found = chase_current t file.current_hint in
  (match found with Ok current -> file.current_hint <- current | Error _ -> ());
  found

let current_block_of_file t cap =
  match find_file t cap ~need:Capability.rights_none with
  | Ok file -> current_block t file
  | Error e -> Error e

let current_version t cap =
  if not (grants t cap ~need:Capability.right_read) then Error Invalid_capability
  else
    match current_block_of_file t cap with
    | Ok current -> Ok (mint_version_cap ~rights:Capability.right_read t current)
    | Error e -> Error e

let current_root_data t cap =
  if not (grants t cap ~need:Capability.right_read) then Error Invalid_capability
  else
    match current_block_of_file t cap with
    | Error e -> Error e
    | Ok current -> ( match read_pg t current with Ok p -> Ok p.Page.data | Error e -> Error e)

(* Cache-neutral: the collector walks every file's chain through here. *)
let committed_chain t cap =
  let* file = find_file t cap ~need:Capability.rights_none in
  let rec walk block acc =
    let* next = Pagestore.peek_commit_ref t.ps block in
    match next with
    | None -> Ok (List.rev (block :: acc))
    | Some successor -> walk successor (block :: acc)
  in
  walk file.oldest_hint []

let uncommitted_versions t cap =
  let* file = find_file t cap ~need:Capability.rights_none in
  Ok (Det.sorted_int_keys file.uncommitted)

(* {2 Versions} *)

(* A new version on [cpage], the current version page at [current], once
   [create_version] has settled its lock fields. *)
let start_version t file current cpage ~inner_lock ~top_lock =
  let header = cpage.Page.header in
  let allocated =
    if inner_lock = header.Page.inner_lock && top_lock = header.Page.top_lock then
      Pagestore.allocate t.ps
    else
      match
        Pagestore.write_through t.ps current
          (Page.with_header cpage { header with Page.inner_lock; top_lock })
      with
      | Ok () -> Pagestore.allocate t.ps
      | Error e -> Error e
  in
  match (allocated, header.Page.file_cap) with
  | Error e, _ -> Error e
  | Ok _, None -> Error (Store_failure "current version page lacks file capability")
  | Ok vb, Some file_cap -> (
      let version_cap = mint_version_cap t vb in
      let vpage =
        Page.make_version_page ~file_cap ~version_cap ~base_ref:(Some current)
          ~parent_ref:header.Page.parent_ref ~refs:(Page.cleared_refs cpage.Page.refs)
          ~data:cpage.Page.data
      in
      match write_pg t vb vpage with
      | Error e -> Error e
      | Ok () ->
          Hashtbl.replace t.versions vb
            (fresh_version_record ~vblock:vb ~file_obj:file.file_obj ~status:Uncommitted ());
          file.vblocks <- vb :: file.vblocks;
          Hashtbl.replace file.uncommitted vb ();
          bump t "versions.created";
          Ok version_cap)

(* Every update starts here, so each step matches rather than binds. *)
let create_version ?(respect_hints = false) ?(updater_port = 0) ?(holding_port = 0) t cap =
  match find_file t cap ~need:Capability.right_write with
  | Error e -> Error e
  | Ok file -> (
      match current_block t file with
      | Error e -> Error e
      | Ok current -> (
          match read_pg t current with
          | Error e -> Error e
          | Ok cpage ->
              let inner = cpage.Page.header.Page.inner_lock in
              let top = cpage.Page.header.Page.top_lock in
              (* A live inner lock means an enclosing super-file update owns
                 this subtree: wait (here: fail; callers retry) — unless the
                 caller is that very update ([holding_port]). A dead lock is
                 cleared per §5.3, and [updater_port] sets the advisory
                 top-lock hint. *)
              if inner <> 0 && inner <> holding_port && Ports.alive t.port_registry inner then
                Error (Locked_out { port = inner })
              else if respect_hints && top <> 0 && Ports.alive t.port_registry top then
                Error (Locked_out { port = top })
              else
                start_version t file current cpage
                  ~inner_lock:(if inner = holding_port then inner else 0)
                  ~top_lock:
                    (if updater_port <> 0 then updater_port else if respect_hints then 0 else top)))

(* [Result.map] of a closed function allocates only its answer. *)
let version_status t cap =
  Result.map (fun v -> v.status) (find_version t cap ~need:Capability.rights_none)

let version_block t cap =
  Result.map (fun v -> v.vblock) (find_version t cap ~need:Capability.rights_none)

let version_of_block t block =
  match Hashtbl.find_opt t.versions block with
  | Some v -> Ok (mint_version_cap t v.vblock)
  | None -> Error (No_such_version (version_obj_of_block block))

(* Free the pages private to a version: copies (C set) found by descent,
   then the version page itself. Shared pages survive. A freed page that
   was never written costs no store write: its dirty entry is dropped. *)
let free_private_pages t vblock =
  (match read_pg t vblock with
  | Ok page -> fold_copies t page 0 (fun t b () -> Pagestore.free t.ps b) ()
  | Error _ -> ());
  Pagestore.free t.ps vblock

(* An uncommitted version's end: its pages are freed (or, on a crash,
   already lost) and its records drop. *)
let mark_aborted (v : version_record) =
  v.status <- Aborted;
  v.private_blocks <- []

(* Abort an uncommitted version: its file forgets it, and its private
   pages are freed. *)
let discard t (v : version_record) =
  (match Hashtbl.find t.files v.file_obj with
  | file -> Hashtbl.remove file.uncommitted v.vblock
  | exception Not_found -> ());
  free_private_pages t v.vblock;
  mark_aborted v

let destroy_file t cap =
  let* file = find_file t cap ~need:Capability.right_destroy in
  (* Abort in-flight updates and free their private pages eagerly;
     committed history is reclaimed by the next GC sweep once the file is
     no longer a root. *)
  List.iter
    (fun vb ->
      match Hashtbl.find_opt t.versions vb with
      | Some v when v.status = Uncommitted -> discard t v
      | _ -> ())
    (Det.sorted_int_keys file.uncommitted);
  (* Only this file's own version index is walked — not every version the
     server knows about. A freed block may since have been reused by
     another file, hence the ownership check. *)
  List.iter
    (fun vb ->
      match Hashtbl.find_opt t.versions vb with
      | Some (v : version_record) when v.file_obj = file.file_obj ->
          Hashtbl.remove t.versions vb
      | _ -> ())
    file.vblocks;
  Hashtbl.remove t.files file.file_obj;
  Hashtbl.replace t.destroyed file.file_obj ();
  Ok ()

let mutable_version t cap ~need =
  match find_version t cap ~need with
  | Ok { status = Uncommitted; _ } as found -> found
  | Ok _ -> Error Version_not_mutable
  | Error _ as e -> e

let abort_version t cap =
  let* v = mutable_version t cap ~need:Capability.right_destroy in
  discard t v;
  Ok ()

(* {2 Page operations} *)

(* The page operations a request runs match rather than bind, so they
   allocate their answer, not a closure per step. A read answers the
   page's own data: a page never changes once written (every update makes
   a new one), and a reader never changes what it is answered. *)
let read_page t cap path =
  match
    match find_version t cap ~need:Capability.right_read with
    | Error e -> Error e
    | Ok ({ status = Uncommitted; _ } as v) -> (
        match locate_for_access t v path Flags.Read with
        | Ok block -> read_pg t block
        | Error e -> Error e)
    | Ok v -> locate_plain t v.vblock path
  with
  | Ok page -> Ok page.Page.data
  | Error e -> Error e

let write_page t cap path data =
  match mutable_version t cap ~need:Capability.right_write with
  | Error e -> Error e
  | Ok v -> (
      match locate_for_access t v path Flags.Write with
      | Error e -> Error e
      | Ok block -> (
          match read_pg t block with
          | Ok page -> write_pg t block (Page.with_data page data)
          | Error e -> Error e))

let page_info t cap path =
  let* v = find_version t cap ~need:Capability.right_read in
  let* page = locate_plain t v.vblock path in
  Ok
    {
      nrefs = Page.nrefs page;
      dsize = Page.dsize page;
      child_flags = Array.map (fun (e : Page.ref_entry) -> e.Page.flags) page.Page.refs;
    }

let insert_page t cap ~parent ~index ?(data = Bytes.empty) () =
  let* v = mutable_version t cap ~need:Capability.right_write in
  let* pblock = locate_for_access t v parent Flags.Modify in
  let* ppage = read_pg t pblock in
  if index < 0 || index > Page.nrefs ppage then
    Error (Bad_index { path = parent; index; nrefs = Page.nrefs ppage })
  else
    let* fresh = allocate_private t v in
    let child = Page.with_data Page.empty data in
    let* () = write_pg t fresh child in
    (* A page that never existed in the base is private and written. *)
    let entry = { Page.block = fresh; flags = Flags.make ~w:true ~s:true ~copied:true () } in
    let* ppage = lift_page_err parent (Page.insert_ref ppage index entry) in
    let* () = write_pg t pblock ppage in
    Ok (Pagepath.child parent index)

let remove_page t cap ~parent ~index =
  let* v = mutable_version t cap ~need:Capability.right_write in
  let* pblock = locate_for_access t v parent Flags.Modify in
  let* ppage = read_pg t pblock in
  if index < 0 || index >= Page.nrefs ppage then
    Error (Bad_index { path = parent; index; nrefs = Page.nrefs ppage })
  else
    let* ppage = lift_page_err parent (Page.remove_ref ppage index) in
    write_pg t pblock ppage

let move_page t cap ~src_parent ~src_index ~dst_parent ~dst_index =
  let src_path = Pagepath.child src_parent src_index in
  if Pagepath.is_prefix src_path dst_parent then
    Error (Bad_path dst_parent)
  else
    let* v = mutable_version t cap ~need:Capability.right_write in
    let* src_block = locate_for_access t v src_parent Flags.Modify in
    let* src_page = read_pg t src_block in
    let* entry = lift_page_err src_path (Page.get_ref src_page src_index) in
    let* src_page = lift_page_err src_path (Page.remove_ref src_page src_index) in
    (* The destination path names post-removal coordinates. *)
    let* () = write_pg t src_block src_page in
    let* dst_block = locate_for_access t v dst_parent Flags.Modify in
    let* dst_page = read_pg t dst_block in
    if dst_index < 0 || dst_index > Page.nrefs dst_page then
      Error (Bad_index { path = dst_parent; index = dst_index; nrefs = Page.nrefs dst_page })
    else
      let* dst_page = lift_page_err dst_parent (Page.insert_ref dst_page dst_index entry) in
      write_pg t dst_block dst_page

(* {2 Commit (§5.2): the validate → merge → publish pipeline}

   [validate] is the paper's test-and-set of the base version's commit
   reference under the store lock — the only fencing point in the whole
   pipeline. [merge] handles an interception: the write-set pre-test,
   then the serialisability tree walk that rebases the candidate onto the
   committed successor. [publish] makes the winners' pages and commit
   references durable, in one store batch, and updates the in-memory
   administration: it is the pipeline's only store write.

   Every commit is a run of this pipeline, and every run ends in one
   [publish] (or, for a 2PC run answered abort, [drop_ctx]). Members go
   through validate and merge in submission order; a win is recorded in
   the run's overlay, which later members' test-and-sets consult, and
   its base lock is kept until publish. [commit] is a run of one,
   [commit_batch] a run of N, [prepare] a run of one whose publish waits
   for its answer. Because members run strictly in submission order
   against the same overlay a sequential run would leave on disk, a
   batch's outcomes — and the final store image — are identical to
   committing its members one by one; only the cost is different. *)

(* One pipeline run's mutable state. A run of one holds one lock and
   claims at most one reference, so it builds no table. *)
type commit_ctx = {
  mutable held : int list;  (** Store locks this run holds until publish. *)
  mutable publish_refs : (int * Page.t) list;
      (** Winning test-and-sets not yet durable, newest first: each base
          block with its page, whose commit reference names the winner.
          The overlay later members' validates read first. *)
  mutable winners : (version_record * bool * Writeset.t) list;
      (** Admitted members, newest first, one per claimed reference and
          in the same order: each with whether it won at its original
          base (fast path) rather than after a merge, and the flag map its
          admission read, which it keeps once it commits. *)
  mutable unions : (int * Writeset.t) list;
      (** Per-file union of the admitted winners' write sets, for the
          one-pass batch pre-test. *)
}

let fresh_ctx () = { held = []; publish_refs = []; winners = []; unions = [] }

(* Re-entrant within one run: a later member may chain onto a block an
   earlier member already locked. A lock held elsewhere — another server
   sharing the store, or a parked 2PC run — fails at once: the critical
   section is synchronous, so nothing could release the lock while we
   waited. *)
let acquire_commit_lock t ctx block =
  if List.mem block ctx.held then Ok ()
  else if Pagestore.lock t.ps block then begin
    ctx.held <- block :: ctx.held;
    Ok ()
  end
  else Error (Store_failure "commit lock contention")

(* A published winner: only now does it count as a commit. *)
let finish_commit t (v, fastpath, map) =
  v.status <- Committed;
  v.wset <- Some map;
  v.private_blocks <- [];
  (match Hashtbl.find t.files v.file_obj with
  | file ->
      file.current_hint <- v.vblock;
      Hashtbl.remove file.uncommitted v.vblock
  | exception Not_found -> ());
  bump t "commits.ok";
  bump t (if fastpath then "commits.fastpath" else "commits.merged");
  if Trace.enabled t.trace then
    Trace.point t.trace
      (Trace.Commit_outcome
         { vblock = v.vblock; outcome = (if fastpath then "fastpath" else "merged") })

(* Stage 1 — the test-and-set of [base_block]'s commit reference, under
   the store lock. [Ok None] = won: the reference is claimed in the run's
   overlay and the lock kept for publish; [Ok (Some s)] = intercepted by
   [s]. A clean cached base is re-read from the store; a dirty one is an
   earlier winner of this run, not yet published, and is believed. A win
   allocates only the claimed page and its overlay entry. *)
let validate t ctx ~vb base_block =
  match acquire_commit_lock t ctx base_block with
  | Error _ as e -> e
  | Ok () ->
      let outcome =
        match List.assoc_opt base_block ctx.publish_refs with
        | Some claimed -> Ok claimed.Page.header.Page.commit_ref
        | None -> (
            Pagestore.refresh t.ps base_block;
            match read_pg t base_block with
            | Error e -> Error e
            | Ok { Page.header = { Page.commit_ref = Some _ as successor; _ }; _ } -> Ok successor
            | Ok bpage ->
                let header = { bpage.Page.header with Page.commit_ref = Some vb } in
                ctx.publish_refs <- (base_block, Page.with_header bpage header) :: ctx.publish_refs;
                Ok None)
      in
      if Trace.enabled t.trace then
        Trace.point t.trace
          (Trace.Test_and_set
             { block = base_block; won = (match outcome with Ok None -> true | _ -> false) });
      outcome

let abandon t (v : version_record) outcome_name =
  discard t v;
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Commit_outcome { vblock = v.vblock; outcome = outcome_name });
  Error Conflict

(* An interception: the version lost its test-and-set, or lost to the
   run's admitted winners. The write-set pre-test follows unless
   [~pretest:false]. *)
let intercept t v ~pretest =
  bump t "commits.intercepted";
  if pretest && Trace.enabled t.trace then
    Trace.point t.trace (Trace.Commit_phase { vblock = v.vblock; phase = "pretest" })

(* A doomed version is discarded and answers [Conflict]; a pre-test
   loss is also a short circuit. *)
let doom t v ~shortcircuit =
  if shortcircuit then bump t "commits.shortcircuit";
  bump t "commits.conflict";
  abandon t v (if shortcircuit then "shortcircuit" else "conflict")

(* A version's flag map. A committed version's is read once and kept
   until {!reclaim_versions} drops its record; an uncommitted one's is
   read afresh each time, since another server may still change it. *)
let flag_map t (v : version_record) =
  match v.wset with
  | Some map -> Ok map
  | None -> (
      match Serialise.flag_map t.ps ~version:v.vblock with
      | Ok map as found ->
          if v.status = Committed then v.wset <- Some map;
          found
      | Error _ as e -> e)

(* The committed side of an interception: an earlier winner of this run,
   with the map its admission read, or a committed version. *)
let successor_map t ctx block =
  match List.find_opt (fun ((w : version_record), _, _) -> w.vblock = block) ctx.winners with
  | Some (_, _, map) -> Ok map
  | None -> (
      match Hashtbl.find t.versions block with
      | v -> flag_map t v
      | exception Not_found -> Serialise.flag_map t.ps ~version:block)

(* Stage 2 — an interception by [successor]: the §5.2 write-set pre-test,
   then the serialisability tree walk that rebases the candidate.
   [Ok ()] means retry the test-and-set at the successor. The pre-test
   decides the conflict conditions from the two flag maps alone, so
   disjoint (or merely read-shared) updates are told apart without
   reading a page of either tree; only the no-conflict answer still
   needs the walk, for the merge. *)
let merge t ctx v ~candidate ~successor =
  let vb = v.vblock in
  intercept t v ~pretest:true;
  match successor_map t ctx successor with
  | Error e -> Error e
  | Ok committed -> (
      match Writeset.conflict ~candidate ~committed with
      | Some _ -> doom t v ~shortcircuit:true
      | None -> (
          tpoint t (Trace.Commit_phase { vblock = vb; phase = "serialise" });
          match Serialise.test_and_merge t.ps ~candidate:vb ~committed:successor with
          | Error e -> Error e
          | Ok (Serialise.Conflict { stats; _ }) ->
              bump t ~by:stats.Serialise.pages_visited "serialise.pages_visited";
              doom t v ~shortcircuit:false
          | Ok (Serialise.Serialisable stats) ->
              bump t ~by:stats.Serialise.pages_visited "serialise.pages_visited";
              tpoint t (Trace.Commit_phase { vblock = vb; phase = "merge" });
              Ok ()))

(* End a run without publishing: forget the overlay (its test-and-sets
   were never written through) and free every held lock. *)
let drop_ctx t ctx =
  ctx.publish_refs <- [];
  ctx.winners <- [];
  ctx.unions <- [];
  List.iter (Pagestore.unlock t.ps) ctx.held;
  ctx.held <- []

(* A failed publish may still have landed: a lost acknowledgement hides
   a batch the store wrote. So each claimed base is read back from the
   store. One that names its winner made the winner durably committed,
   and it is finished as such; one without the reference leaves it
   uncommitted, for a retry; one that cannot be read leaves its fate
   unknown here, so the winner is forgotten as {!crash} forgets it —
   aborted, with nothing freed. *)
let settle_claim t (base_block, _) (((v : version_record), _, _) as winner) =
  Pagestore.refresh t.ps base_block;
  match Pagestore.peek_commit_ref t.ps base_block with
  | Ok (Some c) when c = v.vblock -> finish_commit t winner
  | Ok _ -> ()
  | Error _ -> (
      mark_aborted v;
      match Hashtbl.find t.files v.file_obj with
      | file -> Hashtbl.remove file.uncommitted v.vblock
      | exception Not_found -> ())

(* Stage 3 — durability and administration. "First it ascertains that
   all of V.b's pages are safely on disk": each winner's still-dirty
   pages (version page, then its private blocks in allocation order),
   oldest winner first, and after them all the run's commit references
   (one list, built back to front, that the tap sees too), go to the
   store in one [write_through_batch] (one amortised stable-storage leg
   on a stable-pair backend); then, only if that write succeeded, the
   winners are finished oldest first ({!settle_claim} otherwise). Every
   held lock is released either way. The store writes in order and stops
   at the first error, so a mid-batch failure leaves a durable prefix:
   each member is either completely committed (all pages precede all
   references) or not committed at all, and the pages of the members
   that are not are orphans the collector reclaims. Pages that did not land stay dirty for
   a retry. Doomed and aborted versions never reach this point, so their
   pages are never written. *)
let publish t ctx =
  let result =
    match List.rev ctx.publish_refs with
    | [] -> Ok ()
    | refs -> (
        let add = Pagestore.add_dirty t.ps in
        let batch =
          List.fold_left
            (fun batch ((v : version_record), _, _) ->
              add (List.fold_left add batch v.private_blocks) v.vblock)
            refs ctx.winners
        in
        match t.publish_tap batch with
        | Error _ as e -> e
        | Ok () ->
            let pages = List.length batch - List.length refs in
            Pagestore.write_through_batch ~pages t.ps batch)
  in
  (match result with
  | Ok () -> List.iter (finish_commit t) (List.rev ctx.winners)
  | Error _ -> List.iter2 (settle_claim t) (List.rev ctx.publish_refs) (List.rev ctx.winners));
  drop_ctx t ctx;
  result

let free_noted t b freed =
  Pagestore.free t.ps b;
  b :: freed

(* Points the read shadow at [path] below [block] back at its original and
   frees it and its copies onto [freed] ([freed] itself if it stays). The
   parent's write can fail only on an eviction write-back, which leaves it
   cached: references are fixed-width. *)
let rec unshare t block path freed =
  match path with
  | [] -> freed
  | index :: rest -> (
      match Pagestore.peek t.ps block with
      | Ok page when index < Page.nrefs page -> (
          let entry = page.Page.refs.(index) in
          match rest with
          | _ :: _ -> unshare t entry.Page.block rest freed
          | [] -> (
              match Pagestore.peek t.ps entry.Page.block with
              | Ok ({ Page.header = { Page.base_ref = Some original; _ }; _ } as copy) ->
                  let reshared = { Page.block = original; flags = Flags.clear } in
                  ignore (Pagestore.set_ref t.ps block page index reshared : unit r);
                  free_noted t entry.Page.block (fold_copies t copy 0 free_noted freed)
              | Ok _ | Error _ -> freed))
      | Ok _ | Error _ -> freed)

(* §5.1: once a version commits its R and S flags are dead, so a copy with
   no W or M at or below it — a read shadow — holds exactly the page it
   was copied from. A fast-path winner's base is the version it copied
   from, whose page each copy's [base_ref] names. So each shadow given
   (the map's topmost ones) is pointed back at that original with its
   flags cleared, and it and the copies below it are freed unwritten; the
   answer is the map without the same paths. Only the pages on the
   path down to each shadow are read, plus the shadow's own copies to
   free them. Best effort: a shadow a store error leaves in place is
   still correct, and the collector reshares it later. No closure per
   shadow: this runs on every fast-path commit. *)
let rec reshare_read_shadows t (v : version_record) map ~freed ~gone = function
  | path :: rest ->
      let now_freed = unshare t v.vblock (Pagepath.to_list path) freed in
      if now_freed == freed then reshare_read_shadows t v map ~freed ~gone rest
      else reshare_read_shadows t v map ~freed:now_freed ~gone:(path :: gone) rest
  | [] when gone = [] -> map
  | [] ->
      v.private_blocks <- List.filter (fun b -> not (List.mem b freed)) v.private_blocks;
      v.past <- Shadows_dropped;
      Writeset.without map gone

(* Record an admitted winner: it waits for the run's publish, and its
   write set joins the per-file union later members pre-test against. *)
let note_winner ctx v ~fastpath map =
  ctx.winners <- (v, fastpath, map) :: ctx.winners;
  let u =
    match List.assoc_opt v.file_obj ctx.unions with
    | Some u -> Writeset.union u map
    | None -> map
  in
  ctx.unions <- (v.file_obj, u) :: List.remove_assoc v.file_obj ctx.unions

(* Drive one version through validate and merge within run [ctx]. Its
   flag map is read from its tree first, inside the critical section, and
   serves the whole admission. A member whose map conflicts with the
   union of the run's already-admitted winners' maps is doomed by one
   [Writeset.conflict] pass — conflict against the union is conflict
   against some member (the conditions are monotone in the committed
   flags), so this is exactly the abort the chain walk would reach,
   attributed per transaction without dooming the rest of the batch. *)
let admit t ctx v =
  let vb = v.vblock in
  match read_pg t vb with
  | Error e -> Error e
  | Ok { Page.header = { Page.base_ref = None; _ }; _ } ->
      Error (Store_failure "uncommitted version has no base reference")
  | Ok { Page.header = { Page.base_ref = Some base0; _ }; _ } -> (
      match Serialise.flag_map t.ps ~version:vb with
      | Error e -> Error e
      | Ok candidate -> (
          let run_conflict =
            match List.assoc_opt v.file_obj ctx.unions with
            | Some committed -> Writeset.conflict ~candidate ~committed
            | None -> None
          in
          match run_conflict with
          | Some _ ->
              intercept t v ~pretest:true;
              doom t v ~shortcircuit:true
          | None ->
              let rec attempt base_block =
                match validate t ctx ~vb base_block with
                | Error e -> Error e
                | Ok None ->
                    let fastpath = base_block = base0 in
                    (* Before any later member of the run validates against it. *)
                    let map =
                      if fastpath && v.past <> Merged then
                        reshare_read_shadows t v candidate ~freed:[] ~gone:[]
                          (Writeset.read_only candidate)
                      else candidate
                    in
                    note_winner ctx v ~fastpath map;
                    Ok ()
                | Ok (Some _) when v.past = Shadows_dropped ->
                    intercept t v ~pretest:false;
                    doom t v ~shortcircuit:false
                | Ok (Some successor) -> (
                    match merge t ctx v ~candidate ~successor with
                    | Error e -> Error e
                    | Ok () ->
                        v.past <- Merged;
                        attempt successor)
              in
              attempt base0))

(* End a publishing run: one publish for every admitted winner. If it
   fails, the prefix of winners whose references reached the store is
   durably committed on disk, and this server reads that back; still,
   every would-be winner gets the store error. A run of two or more reports itself in one
   [Commit_batch] point. *)
let finish t ctx results =
  let winners = List.length ctx.winners in
  let published = publish t ctx in
  (match results with
  | _ :: _ :: _ ->
      let aborts =
        List.fold_left (fun n -> function Error Conflict -> n + 1 | _ -> n) 0 results
      in
      let winners = if Result.is_ok published then winners else 0 in
      tpoint t (Trace.Commit_batch { size = List.length results; winners; aborts })
  | [] | [ _ ] -> ());
  match published with
  | Ok () -> results
  | Error e -> List.map (function Ok () -> Error e | r -> r) results

(* Admit each resolved member in submission order. Members are resolved
   before the run, so one an earlier member aborted (the same capability
   twice) is refused here, as it would be one commit later. *)
let rec admit_all t ctx = function
  | [] -> []
  | member :: rest ->
      let result =
        match member with
        | Ok v when v.status = Uncommitted -> admit t ctx v
        | Ok _ -> Error Version_not_mutable
        | Error _ as e -> e
      in
      result :: admit_all t ctx rest

(* One pipeline run, inside one [commit] span: every resolved member is
   admitted in submission order, then [~publish:true] ends the run with
   its publish. [~publish:false] stops before it, leaving the winners and
   their locks in [ctx] for {!prepare}'s answer. *)
let run t ctx ~publish members =
  Trace.span t.trace ~kind:"commit" ~label:t.name (fun () ->
      let results = admit_all t ctx members in
      if publish then finish t ctx results else results)

(* A run of one answers with its only member's result. *)
let only = function (Error _ as e) :: _ -> e | _ -> Ok ()

let commit t cap =
  match mutable_version t cap ~need:Capability.right_commit with
  | Error _ as e -> e
  | Ok _ as member -> only (run t (fresh_ctx ()) ~publish:true [ member ])

let commit_batch t caps =
  match caps with
  | [] -> []
  | caps ->
      bump t "commits.batches";
      bump t ~by:(List.length caps) "commits.batch_members";
      run t (fresh_ctx ()) ~publish:true
        (List.map (fun cap -> mutable_version t cap ~need:Capability.right_commit) caps)

(* {2 Two-phase commit baseline (prepare)}

   The occ4txn shape, assembled from the same pipeline: [prepare] is a
   run of one that stops before its publish — the winning test-and-set
   sits in the run's overlay, nothing reaches stable storage, and the
   base's store lock is retained — and returns the run's second half.
   Until that is answered the file is effectively locked: any other
   commit of it fails at once with [Store_failure], which is exactly the
   blocking behaviour the lock-free coordinator (lib/txn) is measured
   against. The caller keeps the answer (the RPC host parks it). A crash
   frees the lock in the store layer and aborts the version, so a stale
   answer can only report presumed abort. *)

let prepare t cap =
  let* v = mutable_version t cap ~need:Capability.right_commit in
  let ctx = fresh_ctx () in
  match only (run t ctx ~publish:false [ Ok v ]) with
  | Error e ->
      (* Doomed members are already abandoned; only the locks and overlay
         remain to clean up. *)
      drop_ctx t ctx;
      Error e
  | Ok () ->
      Ok
        (fun ~commit ->
          if v.status <> Uncommitted then
            if commit then Error (Store_failure "2pc: version not prepared") else Ok ()
          else if commit then publish t ctx
          else begin
            drop_ctx t ctx;
            (* [abandon] returns [Error Conflict] for the commit path's
               benefit; here the abort is the requested outcome. *)
            ignore (abandon t v "decided_abort" : unit r);
            Ok ()
          end)

(* {2 Crash and recovery} *)

(* [Det.iter_sorted] on an int-keyed table that [f] does not shrink. *)
let iter_ints f tbl = List.iter (fun k -> f k (Hashtbl.find tbl k)) (Det.sorted_int_keys tbl)

let crash t =
  (* The page cache goes, and so does every store lock this server
     holds. *)
  Pagestore.drop_volatile t.ps;
  (* Uncommitted versions are volatile by design. *)
  iter_ints (fun _ v -> if v.status = Uncommitted then mark_aborted v) t.versions;
  iter_ints (fun _ f -> Hashtbl.reset f.uncommitted) t.files;
  tpoint t (Trace.Crash { component = "server"; what = "crash" })

let recover_from_blocks t blocks =
  let version_pages =
    List.filter_map
      (fun b ->
        match read_pg t b with
        | Ok page when Page.is_version_page page -> Some (b, page)
        | Ok _ | Error _ -> None)
      blocks
  in
  let by_file = Hashtbl.create 32 in
  List.iter
    (fun (b, page) ->
      match page.Page.header.Page.file_cap with
      | Some fc ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_file fc.Capability.obj) in
          Hashtbl.replace by_file fc.Capability.obj ((b, page) :: existing)
      | None -> ())
    version_pages;
  let recovered = ref 0 in
  iter_ints
    (fun file_obj pages ->
      match List.find_opt (fun (_, p) -> p.Page.header.Page.base_ref = None) pages with
      | None -> () (* No chain root among these blocks: cannot recover. *)
      | Some (first, _) ->
          let chain = ref [] in
          let rec register block =
            Hashtbl.replace t.versions block
              (fresh_version_record ~vblock:block ~file_obj ~status:Committed ());
            chain := block :: !chain;
            match read_pg t block with
            | Ok page -> (
                match page.Page.header.Page.commit_ref with
                | Some successor -> register successor
                | None -> block)
            | Error _ -> block
          in
          let current = register first in
          Hashtbl.replace t.files file_obj
            (fresh_file_record ~file_obj ~current ~oldest:first ~vblocks:!chain);
          incr recovered)
    by_file;
  tpoint t (Trace.Recovered_files { count = !recovered });
  Ok !recovered

(* {2 Introspection} *)

(* A block this server does not know is learned, so that a committed
   version's map is read once and kept. *)
let written_set t block =
  let* v = find_version t (mint_version_cap t block) ~need:Capability.rights_none in
  let* map = flag_map t v in
  Ok (Writeset.written_paths map)

let tracked_writeset t block =
  match Hashtbl.find_opt t.versions block with
  | Some v -> v.wset
  | None -> None

let drop_flag_map t block =
  match Hashtbl.find_opt t.versions block with Some v -> v.wset <- None | None -> ()

let set_lock_fields t block ~top ~inner =
  let* page = read_pg t block in
  let header = page.Page.header in
  let header =
    { header with
      Page.top_lock = Option.value ~default:header.Page.top_lock top;
      Page.inner_lock = Option.value ~default:header.Page.inner_lock inner;
    }
  in
  Pagestore.write_through t.ps block (Page.with_header page header)

let note_pruned_chain t cap ~new_oldest =
  let* file = find_file t cap ~need:Capability.right_admin in
  file.oldest_hint <- new_oldest;
  Ok ()

(* Walks each file's own version index, so the cost follows the versions
   registered since the last collection plus the retained ones. A block
   may have been reused by another file since its entry was made, hence
   the ownership check (as in [destroy_file]). *)
let reclaim_versions t ~live =
  let reclaimed = ref 0 in
  iter_ints
    (fun _ file ->
      file.vblocks <-
        List.filter
          (fun vb ->
            match Hashtbl.find_opt t.versions vb with
            | Some v when v.file_obj = file.file_obj ->
                if v.status <> Aborted && live vb then true
                else begin
                  Hashtbl.remove t.versions vb;
                  incr reclaimed;
                  false
                end
            | Some _ | None -> false)
          file.vblocks)
    t.files;
  if !reclaimed > 0 then bump t ~by:!reclaimed "versions.reclaimed";
  !reclaimed

let list_files t =
  List.map (fun file_obj -> mint_file_cap t (file_obj / 2)) (Det.sorted_int_keys t.files)
