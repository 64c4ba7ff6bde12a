module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Wire = Afs_util.Wire
module Client = Afs_core.Client
module Errors = Afs_core.Errors

open Errors

type t = {
  client : Client.t;
  dir : Capability.t;
  buckets : int;
  (* Deferred updates, newest first: [Some cap] binds, [None] removes.
     They cost no I/O when queued and ride the next update transaction
     that touches the directory — the naming-layer analogue of group
     commit: directory metadata joins an existing commit instead of
     forcing its own. *)
  mutable pending : (string * Capability.t option) list;
}

(* {2 Entry encoding} *)

let encode_entries entries =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w (List.length entries);
  List.iter
    (fun (name, cap) ->
      Wire.Writer.string w name;
      Wire.Writer.u64 w (Int64.of_int (Capability.port_to_int cap.Capability.port));
      Wire.Writer.varint w cap.Capability.obj;
      Wire.Writer.u8 w (Capability.rights_to_int cap.Capability.rights);
      Wire.Writer.u32 w cap.Capability.check)
    entries;
  Wire.Writer.contents w

let decode_entries data =
  if Bytes.length data = 0 then Ok []
  else
    match
      let r = Wire.Reader.of_bytes data in
      let count = Wire.Reader.varint r in
      let rec go n acc =
        if n = 0 then List.rev acc
        else begin
          let name = Wire.Reader.string r in
          let port = Capability.port_of_int (Int64.to_int (Wire.Reader.u64 r)) in
          let obj = Wire.Reader.varint r in
          let rights = Capability.rights_of_int (Wire.Reader.u8 r) in
          let check = Wire.Reader.u32 r in
          go (n - 1) ((name, { Capability.port; obj; rights; check }) :: acc)
        end
      in
      go count []
    with
    | entries -> Ok entries
    | exception Wire.Decode_error msg -> Error (Store_failure ("directory bucket: " ^ msg))

let encode_meta buckets = Bytes.of_string (Printf.sprintf "afs-directory:%d" buckets)

let decode_meta data =
  match String.split_on_char ':' (Bytes.to_string data) with
  | [ "afs-directory"; n ] -> (
      match int_of_string_opt n with
      | Some buckets when buckets > 0 -> Ok buckets
      | _ -> Error (Store_failure "directory: bad bucket count"))
  | _ -> Error (Store_failure "directory: not a directory file")

(* {2 Hashing} *)

let bucket_of t name =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) name;
  !h mod t.buckets

let bucket_path t name = Pagepath.of_list [ bucket_of t name ]

(* {2 Operations} *)

let create client ?(buckets = 16) () =
  let* dir = Client.create_file client ~data:(encode_meta buckets) () in
  let* () =
    Client.update client dir (fun txn ->
        let rec add i =
          if i >= buckets then Ok ()
          else
            let* _ = Client.Txn.insert txn ~parent:Pagepath.root ~index:i () in
            add (i + 1)
        in
        add 0)
  in
  Ok { client; dir; buckets; pending = [] }

let of_capability client dir =
  let* meta = Client.read_current client dir Pagepath.root in
  let* buckets = decode_meta meta in
  Ok { client; dir; buckets; pending = [] }

let capability t = t.dir
let buckets t = t.buckets

let apply_op entries (name, op) =
  match op with
  | Some cap -> (name, cap) :: List.remove_assoc name entries
  | None -> List.remove_assoc name entries

(* Apply [ops] (oldest first) inside one update transaction: each touched
   bucket is read, edited through the whole op list and written exactly
   once, however many deferred updates ride along. *)
let apply_ops t txn ops =
  let rec per_bucket = function
    | [] -> Ok ()
    | bi :: rest ->
        let path = Pagepath.of_list [ bi ] in
        let* data = Client.Txn.read txn path in
        let* entries = decode_entries data in
        let entries' =
          List.fold_left
            (fun es (name, op) -> if bucket_of t name = bi then apply_op es (name, op) else es)
            entries ops
        in
        let* () = Client.Txn.write txn path (encode_entries entries') in
        per_bucket rest
  in
  per_bucket (List.sort_uniq compare (List.map (fun (name, _) -> bucket_of t name) ops))

(* One commit carries the queued ops plus [extra]; the queue empties only
   on success ([Client.update] retries conflicts internally, so a failure here
   is final for this attempt and the queue survives for the next one). *)
let run_with_pending t extra =
  let ops = List.rev_append t.pending extra in
  let* () = Client.update t.client t.dir (fun txn -> apply_ops t txn ops) in
  t.pending <- [];
  Ok ()

let enter t name cap = run_with_pending t [ (name, Some cap) ]

let enter_deferred t name cap = t.pending <- (name, Some cap) :: t.pending

let remove_deferred t name = t.pending <- (name, None) :: t.pending

let pending_count t = List.length t.pending

let flush t = if t.pending = [] then Ok () else run_with_pending t []

let lookup t name =
  (* The deferred queue is this client's authoritative overlay: the
     newest queued op for a name wins over the stored bucket. *)
  match List.assoc_opt name t.pending with
  | Some op -> Ok op
  | None ->
      let* data = Client.read_cached t.client t.dir (bucket_path t name) in
      let* entries = decode_entries data in
      Ok (List.assoc_opt name entries)

let remove t name =
  let ops = List.rev t.pending in
  let* existed =
    Client.update t.client t.dir (fun txn ->
        let* () = apply_ops t txn ops in
        let path = bucket_path t name in
        let* data = Client.Txn.read txn path in
        let* entries = decode_entries data in
        if List.mem_assoc name entries then
          let* () = Client.Txn.write txn path (encode_entries (List.remove_assoc name entries)) in
          Ok true
        else Ok false)
  in
  t.pending <- [];
  Ok existed

let list_names t =
  let rec go i acc =
    if i >= t.buckets then
      let visible = List.fold_left apply_op acc (List.rev t.pending) in
      Ok (List.sort String.compare (List.map fst visible))
    else
      let* data = Client.read_cached t.client t.dir (Pagepath.of_list [ i ]) in
      let* entries = decode_entries data in
      go (i + 1) (List.rev_append entries acc)
  in
  go 0 []
