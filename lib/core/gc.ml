open Errors

type policy = { retain_committed : int; reshare : bool }

let default_policy = { retain_committed = 4; reshare = true }

type stats = { versions_pruned : int; blocks_freed : int; blocks_live : int }

let pp_stats ppf s =
  Fmt.pf ppf "pruned=%d freed=%d live=%d" s.versions_pruned s.blocks_freed s.blocks_live

(* Every page the collector reads or writes goes through the pagestore's
   cache-neutral calls ([peek*], [write_through_in_place]): a collection
   leaves the cache's entries, recency order and hit/miss counts as it
   found them, except that the blocks it frees leave the cache. *)

(* {2 Mark} *)

(* One byte per block number, grown on demand: stores hand out block
   numbers from a frontier, so the map is dense. *)
type marks = { mutable bits : Bytes.t; mutable live : int }

let create_marks size = { bits = Bytes.make (max size 1) '\000'; live = 0 }
let is_marked m b = b < Bytes.length m.bits && Bytes.get m.bits b <> '\000'

(* Marks [b]; false when it already was. *)
let mark_block m b =
  let len = Bytes.length m.bits in
  if b >= len then begin
    let bits = Bytes.make (max (b + 1) (2 * len)) '\000' in
    Bytes.blit m.bits 0 bits 0 len;
    m.bits <- bits
  end;
  if Bytes.get m.bits b <> '\000' then false
  else begin
    Bytes.set m.bits b '\001';
    m.live <- m.live + 1;
    true
  end

(* Everything reachable from [root] through reference tables. A block
   that cannot be read (e.g. allocated but not yet written) stays marked,
   with no children. *)
let mark_tree ps m root =
  let rec mark b = if mark_block m b then ignore (Pagestore.peek_children ps b mark : unit r) in
  mark root

let mark_roots ps m roots =
  List.iter
    (fun (_, chain, uncommitted) ->
      List.iter (mark_tree ps m) chain;
      List.iter (mark_tree ps m) uncommitted)
    roots

let roots_of_server server =
  let files = Server.list_files server in
  let rec gather acc = function
    | [] -> Ok acc
    | cap :: rest ->
        let* chain = Server.committed_chain server cap in
        let* uncommitted = Server.uncommitted_versions server cap in
        gather ((cap, chain, uncommitted) :: acc) rest
  in
  gather [] files

let live_blocks server =
  let* roots = roots_of_server server in
  let m = create_marks 1024 in
  mark_roots (Server.pagestore server) m roots;
  let rec listed b acc = if b < 0 then acc else listed (b - 1) (if is_marked m b then b :: acc else acc) in
  Ok (listed (Bytes.length m.bits - 1) [])

(* {2 Collect} *)

let take_last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let collect ?(policy = default_policy) server =
  if policy.retain_committed < 1 then invalid_arg "Gc.collect: retain_committed must be >= 1";
  let tr = Server.trace server in
  let phase name count =
    if Afs_trace.Trace.enabled tr then
      Afs_trace.Trace.point tr (Afs_trace.Trace.Gc_phase { phase = name; count })
  in
  Afs_trace.Trace.span tr ~kind:"gc" (fun () ->
  let ps = Server.pagestore server in
  (* The one roots walk of the collection. *)
  let* roots = roots_of_server server in
  (* Prune: unlink committed versions beyond the retention window. What
     stays of each chain is the post-prune root set. *)
  let rec prune pruned live = function
    | [] -> Ok (pruned, live)
    | (cap, chain, uncommitted) :: rest ->
        let retained = take_last policy.retain_committed chain in
        let dropped = List.length chain - List.length retained in
        let* () =
          if dropped = 0 then Ok ()
          else
            match retained with
            | [] -> Ok ()
            | new_oldest :: _ ->
                let* page = Pagestore.peek ps new_oldest in
                let header = { page.Page.header with Page.base_ref = None } in
                let* () =
                  Pagestore.write_through_in_place ps new_oldest (Page.with_header page header)
                in
                Server.note_pruned_chain server cap ~new_oldest
        in
        prune (pruned + dropped) ((cap, retained, uncommitted) :: live) rest
  in
  let* versions_pruned, live_roots = prune 0 [] roots in
  phase "prune" versions_pruned;
  let* all =
    match (Pagestore.store ps).Store.list_blocks () with
    | Ok l -> Ok l
    | Error msg -> Error (Store_failure msg)
  in
  let m = create_marks (1 + List.fold_left max 0 all) in
  mark_roots ps m live_roots;
  phase "mark" m.live;
  ignore (Server.reclaim_versions server ~live:(is_marked m) : int);
  let freed = ref 0 in
  List.iter
    (fun b ->
      if not (is_marked m b) then begin
        Pagestore.free ps b;
        incr freed
      end)
    all;
  phase "sweep" !freed;
  Ok { versions_pruned; blocks_freed = !freed; blocks_live = m.live })
