module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Wire = Afs_util.Wire

type staged = {
  record : Capability.t;
  seq : int;
  old_root : bytes;
  writes : (Pagepath.t * bytes) list;
}

type t = Moved of Capability.t | Staged of staged | Outcome of { seq : int; committed : bool }

(* Layout: the magic, a tag byte ('M', 'S' or 'O'), then the value's
   fields.

     capability  varint port, varint obj, u8 rights, u64 check
     Moved       capability
     Staged      record capability, varint seq, sized old root,
                 varint count, then per write: varint depth, that many
                 varint indices, sized data
     Outcome     varint seq, u8 1 (committed) or 0 (aborted)

   [check] is the one signed field, so it takes all 64 bits rather than
   the page header's u32. *)

let magic = "\xafAFS"
let max_port = 0xFFFF_FFFF_FFFF

let tag w c = Wire.Writer.u8 w (Char.code c)

let put_cap w (c : Capability.t) =
  Wire.Writer.varint w (Capability.port_to_int c.port);
  Wire.Writer.varint w c.obj;
  Wire.Writer.u8 w (Capability.rights_to_int c.rights);
  Wire.Writer.u64 w (Int64.of_int c.check)

let encode m =
  let capacity =
    match m with
    | Staged s ->
        List.fold_left
          (fun n (_, d) -> n + 16 + Bytes.length d)
          (64 + Bytes.length s.old_root) s.writes
    | Moved _ | Outcome _ -> 32
  in
  let w = Wire.Writer.create ~capacity () in
  String.iter (tag w) magic;
  (match m with
  | Moved cap ->
      tag w 'M';
      put_cap w cap
  | Staged s ->
      tag w 'S';
      put_cap w s.record;
      Wire.Writer.varint w s.seq;
      Wire.Writer.sized_bytes w s.old_root;
      Wire.Writer.varint w (List.length s.writes);
      List.iter
        (fun (path, data) ->
          let indices = Pagepath.to_list path in
          Wire.Writer.varint w (List.length indices);
          List.iter (Wire.Writer.varint w) indices;
          Wire.Writer.sized_bytes w data)
        s.writes
  | Outcome { seq; committed } ->
      tag w 'O';
      Wire.Writer.varint w seq;
      Wire.Writer.u8 w (Bool.to_int committed));
  Wire.Writer.contents w

(* Plain root data is what nearly every opening meets: compared in
   place, before any reader exists. *)
let rec magic_from data i =
  i = String.length magic || (Char.equal (Bytes.get data i) magic.[i] && magic_from data (i + 1))

let has_magic data = Bytes.length data > String.length magic && magic_from data 0

let bad what = raise (Wire.Decode_error ("marker: " ^ what))

let decode data =
  if not (has_magic data) then None
  else
    let r = Wire.Reader.of_bytes data in
    (* A non-negative varint no larger than [bound]. A count bounded by
       the input length sizes nothing beyond the input, since every
       element it counts takes at least one byte. *)
    let nat ?(bound = max_int) () =
      let v = Wire.Reader.varint r in
      if v < 0 || v > bound then bad "field out of range" else v
    in
    let cap () =
      let port = nat ~bound:max_port () in
      let obj = nat () in
      let rights = Wire.Reader.u8 r in
      let check = Int64.to_int (Wire.Reader.u64 r) in
      {
        Capability.port = Capability.port_of_int port;
        obj;
        rights = Capability.rights_of_int rights;
        check;
      }
    in
    let count () = nat ~bound:(Bytes.length data) () in
    (* [List.init] applies its function left to right, in input order.
       An overflowed index varint is negative, which [Pagepath.of_list]
       refuses with [Invalid_argument]. *)
    let write _ =
      let path = Pagepath.of_list (List.init (count ()) (fun _ -> Wire.Reader.varint r)) in
      (path, Wire.Reader.sized_bytes r)
    in
    try
      String.iter (fun _ -> ignore (Wire.Reader.u8 r : int)) magic;
      let m =
        match Char.chr (Wire.Reader.u8 r) with
        | 'M' -> Moved (cap ())
        | 'S' ->
            let record = cap () in
            let seq = nat () in
            let old_root = Wire.Reader.sized_bytes r in
            let writes = List.init (count ()) write in
            Staged { record; seq; old_root; writes }
        | 'O' -> (
            let seq = nat () in
            match Wire.Reader.u8 r with
            | 0 -> Outcome { seq; committed = false }
            | 1 -> Outcome { seq; committed = true }
            | _ -> bad "outcome flag")
        | _ -> bad "unknown tag"
      in
      Wire.Reader.expect_end r;
      Some m
    with Wire.Decode_error _ | Invalid_argument _ -> None
