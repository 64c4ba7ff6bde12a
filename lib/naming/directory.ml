module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Wire = Afs_util.Wire
module Client = Afs_core.Client
module Errors = Afs_core.Errors

open Errors

type t = { client : Client.t; dir : Capability.t; buckets : int }

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
  Ok { client; dir; buckets }

let of_capability client dir =
  let* meta = Client.read_current client dir Pagepath.root in
  let* buckets = decode_meta meta in
  Ok { client; dir; buckets }

let capability t = t.dir
let buckets t = t.buckets

let bucket_entries txn path =
  let* data = Client.Txn.read txn path in
  decode_entries data

let enter t name cap =
  Client.update t.client t.dir (fun txn ->
      let path = bucket_path t name in
      let* entries = bucket_entries txn path in
      Client.Txn.write txn path (encode_entries ((name, cap) :: List.remove_assoc name entries)))

let lookup t name =
  let* data = Client.read_cached t.client t.dir (bucket_path t name) in
  let* entries = decode_entries data in
  Ok (List.assoc_opt name entries)

let remove t name =
  Client.update t.client t.dir (fun txn ->
      let path = bucket_path t name in
      let* entries = bucket_entries txn path in
      if List.mem_assoc name entries then
        let* () = Client.Txn.write txn path (encode_entries (List.remove_assoc name entries)) in
        Ok true
      else Ok false)

let list_names t =
  let rec go i acc =
    if i >= t.buckets then Ok (List.sort String.compare (List.map fst acc))
    else
      let* data = Client.read_cached t.client t.dir (Pagepath.of_list [ i ]) in
      let* entries = decode_entries data in
      go (i + 1) (List.rev_append entries acc)
  in
  go 0 []
