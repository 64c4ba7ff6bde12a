module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Wire = Afs_util.Wire
module Client = Afs_core.Client
module Server = Afs_core.Server
module Errors = Afs_core.Errors

open Errors

type t = { client : Client.t; cap : Capability.t; order : int }

(* {2 Node encoding (page data)} *)

type node =
  | Leaf of (string * string) list  (** Sorted by key. *)
  | Interior of string list
      (** m-1 sorted separator keys for m children: child i holds keys in
          [keys.(i-1), keys.(i)) with the open ends at the rims. *)

let magic = 0xB7EE

let encode_node ~order node =
  let w = Wire.Writer.create () in
  Wire.Writer.u16 w magic;
  Wire.Writer.varint w order;
  (match node with
  | Leaf entries ->
      Wire.Writer.u8 w 0;
      Wire.Writer.varint w (List.length entries);
      List.iter
        (fun (k, v) ->
          Wire.Writer.string w k;
          Wire.Writer.string w v)
        entries
  | Interior keys ->
      Wire.Writer.u8 w 1;
      Wire.Writer.varint w (List.length keys);
      List.iter (Wire.Writer.string w) keys);
  Wire.Writer.contents w

let decode_node data =
  match
    let r = Wire.Reader.of_bytes data in
    (* Node data is client-written, so no field is trusted: an overflowed
       varint reads negative. The entry count is bounded by the node's
       length, since every entry takes at least one byte. The order is
       not: a wide tree's empty root is shorter than its order. *)
    let nat ~min ~max =
      let v = Wire.Reader.varint r in
      if v < min || v > max then raise (Wire.Decode_error "field out of range") else v
    in
    if Wire.Reader.u16 r <> magic then Error (Store_failure "not a b-tree node")
    else begin
      let order = nat ~min:3 ~max:max_int in
      let kind = Wire.Reader.u8 r in
      let count = nat ~min:0 ~max:(Bytes.length data) in
      let node =
        if kind = 0 then
          Leaf
            (List.init count (fun _ ->
                 let k = Wire.Reader.string r in
                 let v = Wire.Reader.string r in
                 (k, v)))
        else Interior (List.init count (fun _ -> Wire.Reader.string r))
      in
      Wire.Reader.expect_end r;
      Ok (order, node)
    end
  with
  | result -> result
  | exception Wire.Decode_error msg -> Error (Store_failure ("b-tree node: " ^ msg))

(* {2 Open / create} *)

let create client ?(order = 8) () =
  if order < 3 then invalid_arg "Btree.create: order must be >= 3";
  let* cap = Client.create_file client ~data:(encode_node ~order (Leaf [])) () in
  Ok { client; cap; order }

let of_capability client cap =
  let* data = Client.read_current client cap Pagepath.root in
  let* order, _ = decode_node data in
  Ok { client; cap; order }

let capability t = t.cap
let order t = t.order

(* {2 Transaction-side node access} *)

let read_node txn path =
  let* data = Client.Txn.read txn path in
  let* _, node = decode_node data in
  Ok node

let write_node t txn path node = Client.Txn.write txn path (encode_node ~order:t.order node)

(* Child index for [key]: the number of separators <= key. *)
let child_index keys key =
  List.fold_left (fun acc sep -> if key >= sep then acc + 1 else acc) 0 keys

let split_list l =
  let n = List.length l in
  let h = n / 2 in
  (List.filteri (fun i _ -> i < h) l, List.filteri (fun i _ -> i >= h) l)

let node_weight = function Leaf entries -> List.length entries | Interior keys -> List.length keys + 1

(* {2 Splitting}

   [split_child] splits the full child at [parent_path]/[idx] into two
   siblings at indexes [idx] and [idx+1], hoisting the median separator
   into the parent's key list (returned for the caller to incorporate).
   Leaf splits only rewrite data; interior splits move the upper half of
   the child's subtrees into the fresh sibling with ordinary page moves. *)
let split_child t txn parent_path idx =
  let child_path = Pagepath.child parent_path idx in
  let* child = read_node txn child_path in
  match child with
  | Leaf entries -> (
      let left, right = split_list entries in
      match right with
      | [] -> Error (Errors.Store_failure "btree: split of an empty leaf")
      | (median, _) :: _ ->
          let* () = write_node t txn child_path (Leaf left) in
          let* _ =
            Client.Txn.insert txn ~parent:parent_path ~index:(idx + 1)
              ~data:(encode_node ~order:t.order (Leaf right))
              ()
          in
          Ok median)
  | Interior keys ->
      let server = Client.server t.client in
      let version = Client.Txn.version txn in
      let nchildren = List.length keys + 1 in
      let h = nchildren / 2 in
      (* keys = k_1..k_{m-1}; left keeps children 0..h-1 with keys
         k_1..k_{h-1}; the median k_h is hoisted; right gets the rest. *)
      let left_keys = List.filteri (fun i _ -> i < h - 1) keys in
      let median = List.nth keys (h - 1) in
      let right_keys = List.filteri (fun i _ -> i > h - 1) keys in
      let* _ =
        Client.Txn.insert txn ~parent:parent_path ~index:(idx + 1)
          ~data:(encode_node ~order:t.order (Interior right_keys))
          ()
      in
      let sibling_path = Pagepath.child parent_path (idx + 1) in
      (* Move children h..m-1 across; the source index stays [h] as each
         removal shifts the next one down. *)
      let rec move k =
        if k >= nchildren - h then Ok ()
        else
          let* () =
            Server.move_page server version ~src_parent:child_path ~src_index:h
              ~dst_parent:sibling_path ~dst_index:k
          in
          move (k + 1)
      in
      let* () = move 0 in
      let* () = write_node t txn child_path (Interior left_keys) in
      Ok median

(* Split a full root by pushing its contents one level down: fresh left
   and right children are inserted at indexes 0 and 1, the root's original
   children (now starting at index 2) are moved under them, and the root
   becomes a two-child interior node. *)
let split_root t txn =
  let* root = read_node txn Pagepath.root in
  match root with
  | Leaf entries -> (
      let left, right = split_list entries in
      match right with
      | [] -> Error (Errors.Store_failure "btree: split of an empty root leaf")
      | (median, _) :: _ ->
          let* _ =
            Client.Txn.insert txn ~parent:Pagepath.root ~index:0
              ~data:(encode_node ~order:t.order (Leaf left))
              ()
          in
          let* _ =
            Client.Txn.insert txn ~parent:Pagepath.root ~index:1
              ~data:(encode_node ~order:t.order (Leaf right))
              ()
          in
          write_node t txn Pagepath.root (Interior [ median ]))
  | Interior keys ->
      let server = Client.server t.client in
      let version = Client.Txn.version txn in
      let nchildren = List.length keys + 1 in
      let h = nchildren / 2 in
      let left_keys = List.filteri (fun i _ -> i < h - 1) keys in
      let median = List.nth keys (h - 1) in
      let right_keys = List.filteri (fun i _ -> i > h - 1) keys in
      let* _ =
        Client.Txn.insert txn ~parent:Pagepath.root ~index:0
          ~data:(encode_node ~order:t.order (Interior left_keys))
          ()
      in
      let* _ =
        Client.Txn.insert txn ~parent:Pagepath.root ~index:1
          ~data:(encode_node ~order:t.order (Interior right_keys))
          ()
      in
      (* Originals now sit at indexes 2..; move them under the new pair. *)
      let left_path = Pagepath.of_list [ 0 ] and right_path = Pagepath.of_list [ 1 ] in
      let rec move k =
        if k >= nchildren then Ok ()
        else
          let dst_parent, dst_index = if k < h then (left_path, k) else (right_path, k - h) in
          let* () =
            Server.move_page server version ~src_parent:Pagepath.root ~src_index:2
              ~dst_parent ~dst_index
          in
          move (k + 1)
      in
      let* () = move 0 in
      write_node t txn Pagepath.root (Interior [ median ])

(* {2 Insert: single pass, splitting full nodes on the way down} *)

let insert t ~key ~value =
  Client.update t.client t.cap (fun txn ->
      let* root = read_node txn Pagepath.root in
      let* () = if node_weight root >= t.order then split_root t txn else Ok () in
      let rec descend path =
        let* node = read_node txn path in
        match node with
        | Leaf entries ->
            let entries =
              List.merge
                (fun (a, _) (b, _) -> compare a b)
                [ (key, value) ]
                (List.remove_assoc key entries)
            in
            write_node t txn path (Leaf entries)
        | Interior keys -> (
            let idx = child_index keys key in
            let child_path = Pagepath.child path idx in
            let* child = read_node txn child_path in
            if node_weight child >= t.order then begin
              let* median = split_child t txn path idx in
              let keys =
                List.merge compare [ median ] keys
              in
              let* () = write_node t txn path (Interior keys) in
              let idx = if key >= median then idx + 1 else idx in
              descend_into path idx
            end
            else descend_into path idx)
      and descend_into path idx = descend (Pagepath.child path idx) in
      descend Pagepath.root)

(* {2 Queries: one committed snapshot} *)

let with_snapshot t f =
  let server = Client.server t.client in
  let* version = Server.current_version server t.cap in
  let read path =
    let* data = Server.read_page server version path in
    let* _, node = decode_node data in
    Ok node
  in
  f read

let find t key =
  with_snapshot t (fun read ->
      let rec descend path =
        let* node = read path in
        match node with
        | Leaf entries -> Ok (List.assoc_opt key entries)
        | Interior keys -> descend (Pagepath.child path (child_index keys key))
      in
      descend Pagepath.root)

let bindings t =
  with_snapshot t (fun read ->
      let rec walk path acc =
        let* node = read path in
        match node with
        | Leaf entries -> Ok (List.rev_append entries acc)
        | Interior keys ->
            let rec each i acc =
              if i > List.length keys then Ok acc
              else
                let* acc = walk (Pagepath.child path i) acc in
                each (i + 1) acc
            in
            each 0 acc
      in
      let* all = walk Pagepath.root [] in
      Ok (List.rev all))

let cardinal t =
  let* l = bindings t in
  Ok (List.length l)

let height t =
  with_snapshot t (fun read ->
      let rec depth path acc =
        let* node = read path in
        match node with
        | Leaf _ -> Ok acc
        | Interior _ -> depth (Pagepath.child path 0) (acc + 1)
      in
      depth Pagepath.root 1)

(* {2 Lazy removal} *)

let remove t key =
  Client.update t.client t.cap (fun txn ->
      let rec descend path =
        let* node = read_node txn path in
        match node with
        | Leaf entries ->
            if List.mem_assoc key entries then
              let* () = write_node t txn path (Leaf (List.remove_assoc key entries)) in
              Ok true
            else Ok false
        | Interior keys -> descend (Pagepath.child path (child_index keys key))
      in
      descend Pagepath.root)

(* {2 Invariant checking} *)

let check_invariants t =
  let result =
    with_snapshot t (fun read ->
        let problems = ref [] in
        let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
        let rec sorted = function
          | a :: (b :: _ as rest) -> a < b && sorted rest
          | _ -> true
        in
        let rec walk path lo hi =
          let* node = read path in
          let in_bounds k =
            (match lo with Some l -> k >= l | None -> true)
            && match hi with Some h -> k < h | None -> true
          in
          match node with
          | Leaf entries ->
              if not (sorted (List.map fst entries)) then
                complain "unsorted leaf at %s" (Pagepath.to_string path);
              if List.length entries > t.order then
                complain "overfull leaf at %s" (Pagepath.to_string path);
              List.iter
                (fun (k, _) ->
                  if not (in_bounds k) then
                    complain "key %S out of bounds at %s" k (Pagepath.to_string path))
                entries;
              Ok 1
          | Interior keys ->
              if not (sorted keys) then complain "unsorted keys at %s" (Pagepath.to_string path);
              if List.length keys + 1 > t.order then
                complain "overfull interior at %s" (Pagepath.to_string path);
              List.iter
                (fun k ->
                  if not (in_bounds k) then
                    complain "separator %S out of bounds at %s" k (Pagepath.to_string path))
                keys;
              let bounds = [ lo ] @ List.map (fun k -> Some k) keys @ [ hi ] in
              let rec each i acc =
                if i > List.length keys then Ok acc
                else
                  let clo = List.nth bounds i and chi = List.nth bounds (i + 1) in
                  let* d = walk (Pagepath.child path i) clo chi in
                  match acc with
                  | Some d0 when d0 <> d ->
                      complain "uneven leaf depth under %s" (Pagepath.to_string path);
                      each (i + 1) acc
                  | _ -> each (i + 1) (Some d)
              in
              let* d = each 0 None in
              Ok (1 + Option.value ~default:0 d)
        in
        let* _ = walk Pagepath.root None None in
        Ok !problems)
  in
  match result with
  | Error e -> Error (Errors.to_string e)
  | Ok [] -> Ok ()
  | Ok problems -> Error (String.concat "; " problems)
