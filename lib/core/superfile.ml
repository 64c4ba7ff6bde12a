module Capability = Afs_util.Capability
open Errors

type touched = { index : int; sub_version : Capability.t; locked_block : int }

type update = {
  server : Server.t;
  super_version : Capability.t;
  port : int;
  base_block : int;  (** The super current version the top lock sits on. *)
  mutable touched : touched list;
  mutable finished : bool;
}

let ps u = Server.pagestore u.server

(* Links to sub-file version pages are marked written: they are new
   content relative to nothing (or to the previous link). *)
let link_flags = Flags.record Flags.clear Flags.Write

let make server ~subfiles ?(data = Bytes.empty) () =
  let* file_cap = Server.create_file server ~data:Bytes.empty () in
  let* vcap = Server.create_version server file_cap in
  let* vblock = Server.version_block server vcap in
  let store = Server.pagestore server in
  let rec link i acc = function
    | [] -> Ok (List.rev acc)
    | sub :: rest ->
        let* sub_current = Server.current_block_of_file server sub in
        (* Record the super-file as the sub-file's parent so inner-lock
           waiters can ascend the system tree (§5.3). *)
        let* sub_page = Pagestore.read store sub_current in
        let header = { sub_page.Page.header with Page.parent_ref = Some vblock } in
        let* () = Pagestore.write_through store sub_current (Page.with_header sub_page header) in
        link (i + 1) ({ Page.block = sub_current; flags = link_flags } :: acc) rest
  in
  let* entries = link 0 [] subfiles in
  let* vpage = Pagestore.read store vblock in
  let vpage = Page.with_contents vpage ~refs:(Array.of_list entries) ~data in
  let header =
    { vpage.Page.header with Page.root_flags = Flags.record Flags.clear Flags.Modify }
  in
  let* () = Pagestore.write store vblock (Page.with_header vpage header) in
  let* () = Server.commit server vcap in
  Ok file_cap

(* Chase a reference that names some (possibly superseded) version page of
   a sub-file to that sub-file's current version page. *)
let rec chase store block =
  let* page = Pagestore.read store block in
  match page.Page.header.Page.commit_ref with
  | None -> Ok (block, page)
  | Some successor -> chase store successor

let sub_entries server cap =
  let* current = Server.current_block_of_file server cap in
  let* page = Pagestore.read (Server.pagestore server) current in
  Ok (current, page)

let subfiles server cap =
  let* _, page = sub_entries server cap in
  let store = Server.pagestore server in
  let rec collect i acc =
    if i >= Page.nrefs page then Ok (List.rev acc)
    else
      match Page.get_ref page i with
      | Error msg -> Error (Store_failure msg)
      | Ok e ->
          let* _, sub_page = chase store e.Page.block in
          (match sub_page.Page.header.Page.file_cap with
          | Some fc -> collect (i + 1) (fc :: acc)
          | None -> Error Not_superfile)
  in
  collect 0 []

let is_superfile server cap =
  match subfiles server cap with Ok (_ :: _) -> true | Ok [] | Error _ -> false

let begin_update server cap =
  let* current, page = sub_entries server cap in
  let h = page.Page.header in
  let ports = Server.ports server in
  let* () =
    if h.Page.top_lock <> 0 && Ports.alive ports h.Page.top_lock then
      Error (Locked_out { port = h.Page.top_lock })
    else if h.Page.inner_lock <> 0 && Ports.alive ports h.Page.inner_lock then
      Error (Locked_out { port = h.Page.inner_lock })
    else Ok ()
  in
  let port = Ports.fresh ports in
  (* Test-both-and-set-top is atomic here (single-threaded host); under the
     RPC layer it runs inside one server request, preserving atomicity. *)
  let* () = Server.set_lock_fields server current ~top:(Some port) ~inner:(Some 0) in
  let* super_version = Server.create_version ~updater_port:port server cap in
  Ok
    {
      server;
      super_version;
      port;
      base_block = current;
      touched = [];
      finished = false;
    }

let port_of u = u.port
let super_version u = u.super_version

let touch_subfile u ~index =
  match List.find_opt (fun t -> t.index = index) u.touched with
  | Some t -> Ok t.sub_version
  | None ->
      let* vblock = Server.version_block u.server u.super_version in
      let* vpage = Pagestore.read (ps u) vblock in
      (match Page.get_ref vpage index with
      | Error msg -> Error (Store_failure msg)
      | Ok entry ->
          let* sub_current, sub_page = chase (ps u) entry.Page.block in
          let* sub_file =
            match sub_page.Page.header.Page.file_cap with
            | Some fc -> Ok fc
            | None -> Error Not_superfile
          in
          (* Lock the sub-file, then create its version as the lock holder. *)
          let* () =
            Server.set_lock_fields u.server sub_current ~top:None ~inner:(Some u.port)
          in
          let* sub_version =
            Server.create_version ~holding_port:u.port ~updater_port:u.port u.server sub_file
          in
          let* sub_vblock = Server.version_block u.server sub_version in
          (* The new sub-version hangs off this super version. *)
          let* sub_vpage = Pagestore.read (ps u) sub_vblock in
          let header = { sub_vpage.Page.header with Page.parent_ref = Some vblock } in
          let* () = Pagestore.write (ps u) sub_vblock (Page.with_header sub_vpage header) in
          (* Repoint the super version's reference at the new sub-version:
             an explicit structural modification of the super tree. *)
          let* vpage = Pagestore.read (ps u) vblock in
          let* vpage =
            match
              Page.with_ref vpage index { Page.block = sub_vblock; flags = link_flags }
            with
            | Ok p -> Ok p
            | Error msg -> Error (Store_failure msg)
          in
          let rf = Flags.record vpage.Page.header.Page.root_flags Flags.Modify in
          let vpage = Page.with_header vpage { vpage.Page.header with Page.root_flags = rf } in
          let* () = Pagestore.write (ps u) vblock vpage in
          u.touched <- { index; sub_version; locked_block = sub_current } :: u.touched;
          Ok sub_version)

let clear_locks u =
  let clear_one t =
    ignore (Server.set_lock_fields u.server t.locked_block ~top:None ~inner:(Some 0))
  in
  List.iter clear_one u.touched;
  ignore (Server.set_lock_fields u.server u.base_block ~top:(Some 0) ~inner:None)

let commit u =
  if u.finished then Error Version_not_mutable
  else begin
    u.finished <- true;
    (* The super version's references name the sub-versions, and a
       commit writes only its own pages: make every sub-version's pages
       durable first, so a waiter that finishes the descent after a crash
       (§5.3) never points a sub-file at a page that never landed. *)
    let* () = Pagestore.flush (ps u) in
    (* Commit the super version first; the top lock excludes competing
       super updates, so this takes the fast path. *)
    let* () = Server.commit u.server u.super_version in
    (* Descend: commit the sub-files. The inner locks kept other updates
       out, so each of these finds its base still current. *)
    let rec commit_subs = function
      | [] -> Ok ()
      | t :: rest ->
          let* () = Server.commit u.server t.sub_version in
          commit_subs rest
    in
    let* () = commit_subs (List.rev u.touched) in
    clear_locks u;
    Ports.kill (Server.ports u.server) u.port;
    Ok ()
  end

let abort u =
  if u.finished then Error Version_not_mutable
  else begin
    u.finished <- true;
    List.iter (fun t -> ignore (Server.abort_version u.server t.sub_version)) u.touched;
    ignore (Server.abort_version u.server u.super_version);
    clear_locks u;
    Ports.kill (Server.ports u.server) u.port;
    Ok ()
  end

let crash_holder u =
  u.finished <- true;
  Ports.kill (Server.ports u.server) u.port

type recovery = No_lock | Holder_alive of int | Cleared | Finished of int

(* Find the version page carrying a top lock along the file's committed
   chain (the locked version may no longer be current if the crashed
   update committed the super version before dying). *)
let find_locked_version server cap =
  let* chain = Server.committed_chain server cap in
  let store = Server.pagestore server in
  let rec scan = function
    | [] -> Ok None
    | b :: rest ->
        let* page = Pagestore.read store b in
        if page.Page.header.Page.top_lock <> 0 then Ok (Some (b, page)) else scan rest
  in
  scan (List.rev chain)

let recover_abandoned server cap =
  let store = Server.pagestore server in
  let* locked = find_locked_version server cap in
  match locked with
  | None -> Ok No_lock
  | Some (locked_block, locked_page) ->
      let port = locked_page.Page.header.Page.top_lock in
      if Ports.alive (Server.ports server) port then Ok (Holder_alive port)
      else begin
        match locked_page.Page.header.Page.commit_ref with
        | None ->
            (* The crashed update never committed: clear the locks; its
               uncommitted versions are garbage. *)
            let rec clear_inner i =
              if i >= Page.nrefs locked_page then Ok ()
              else
                match Page.get_ref locked_page i with
                | Error msg -> Error (Store_failure msg)
                | Ok e ->
                    let* sub_current, sub_page = chase store e.Page.block in
                    let* () =
                      if sub_page.Page.header.Page.inner_lock = port then
                        Server.set_lock_fields server sub_current ~top:None ~inner:(Some 0)
                      else Ok ()
                    in
                    clear_inner (i + 1)
            in
            let* () = clear_inner 0 in
            let* () = Server.set_lock_fields server locked_block ~top:(Some 0) ~inner:None in
            Ok Cleared
        | Some new_super ->
            (* The super version committed; finish the sub-file commits by
               traversing the old and new versions simultaneously. *)
            let* new_page = Pagestore.read store new_super in
            let finished = ref 0 in
            let rec finish i =
              if i >= Page.nrefs new_page then Ok ()
              else
                match Page.get_ref new_page i with
                | Error msg -> Error (Store_failure msg)
                | Ok e ->
                    let* sub_vpage = Pagestore.read store e.Page.block in
                    let* () =
                      match sub_vpage.Page.header.Page.base_ref with
                      | None -> Ok ()
                      | Some old_sub -> (
                          let* old_page = Pagestore.read store old_sub in
                          match old_page.Page.header.Page.commit_ref with
                          | Some _ -> Ok () (* Already finished. *)
                          | None ->
                              let header =
                                {
                                  old_page.Page.header with
                                  Page.commit_ref = Some e.Page.block;
                                  Page.inner_lock = 0;
                                }
                              in
                              let* () =
                                Pagestore.write_through store old_sub
                                  (Page.with_header old_page header)
                              in
                              incr finished;
                              Ok ())
                    in
                    finish (i + 1)
            in
            let* () = finish 0 in
            let* () = Server.set_lock_fields server locked_block ~top:(Some 0) ~inner:None in
            Ok (Finished !finished)
      end

let recover_inner_waiter server sub_file_cap =
  let store = Server.pagestore server in
  let* sub_current = Server.current_block_of_file server sub_file_cap in
  let* sub_page = Pagestore.read store sub_current in
  if sub_page.Page.header.Page.inner_lock = 0 then Ok No_lock
  else
    (* Ascend the system tree to the enclosing super-file. *)
    let rec ascend block =
      let* page = Pagestore.read store block in
      match page.Page.header.Page.parent_ref with
      | None -> (
          match page.Page.header.Page.file_cap with
          | Some fc -> Ok fc
          | None -> Error Not_superfile)
      | Some parent -> ascend parent
    in
    let* super_cap = ascend sub_current in
    recover_abandoned server super_cap
