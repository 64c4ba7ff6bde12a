module Capability = Afs_util.Capability
module Wire = Afs_util.Wire

type ref_entry = { block : int; flags : Flags.t }

type header = {
  file_cap : Capability.t option;
  version_cap : Capability.t option;
  commit_ref : int option;
  top_lock : int;
  inner_lock : int;
  parent_ref : int option;
  base_ref : int option;
  root_flags : Flags.t;
}

(* [enc] memoizes the wire image: pages are immutable values, so a page's
   serialisation is computed at most once per lifetime ("encode-once").
   Every functional update constructs a fresh record with [enc = None];
   the field is filled lazily by {!encode} (or seeded by {!decode} when
   the caller vouches for the image's provenance) and never read for
   anything except serialisation, so it is invisible to the protocol. *)
type t = {
  header : header;
  refs : ref_entry array;
  data : bytes;
  mutable enc : bytes option;
}

let nil_block = 0xFFFFFFF
let max_block_number = nil_block - 1

let plain_header =
  {
    file_cap = None;
    version_cap = None;
    commit_ref = None;
    top_lock = 0;
    inner_lock = 0;
    parent_ref = None;
    base_ref = None;
    root_flags = Flags.clear;
  }

let empty = { header = plain_header; refs = [||]; data = Bytes.empty; enc = None }

let make_version_page ~file_cap ~version_cap ~base_ref ~parent_ref ~refs ~data =
  {
    header =
      {
        plain_header with
        file_cap = Some file_cap;
        version_cap = Some version_cap;
        base_ref;
        parent_ref;
      };
    refs;
    data;
    enc = None;
  }

let is_version_page t = t.header.file_cap <> None
let nrefs t = Array.length t.refs
let dsize t = Bytes.length t.data

let get_ref t i =
  if i < 0 || i >= Array.length t.refs then
    Error (Printf.sprintf "reference index %d out of range (nrefs=%d)" i (Array.length t.refs))
  else Ok t.refs.(i)

(* Every update invalidates the memo: [{ t with ... }] would carry the
   stale image across, so each updater resets [enc] explicitly. *)
let with_data t data = { t with data; enc = None }
let with_header t header = { t with header; enc = None }
let with_contents t ~refs ~data = { t with refs; data; enc = None }

let with_ref t i entry =
  if i < 0 || i >= Array.length t.refs then Error "with_ref: index out of range"
  else begin
    let refs = Array.copy t.refs in
    refs.(i) <- entry;
    Ok { t with refs; enc = None }
  end

let insert_ref t i entry =
  let n = Array.length t.refs in
  if i < 0 || i > n then Error "insert_ref: index out of range"
  else begin
    let refs =
      Array.init (n + 1) (fun j ->
          if j < i then t.refs.(j) else if j = i then entry else t.refs.(j - 1))
    in
    Ok { t with refs; enc = None }
  end

let remove_ref t i =
  let n = Array.length t.refs in
  if i < 0 || i >= n then Error "remove_ref: index out of range"
  else begin
    let refs = Array.init (n - 1) (fun j -> if j < i then t.refs.(j) else t.refs.(j + 1)) in
    Ok { t with refs; enc = None }
  end

let record_access t i access =
  match get_ref t i with
  | Error _ as e -> e
  | Ok entry ->
      let flags = Flags.record entry.flags access in
      (* Re-recording an already-recorded access is the common case (every
         access after a page's first in a given version): the page value is
         unchanged, so return [t] itself — keeping the refs array shared
         and, crucially, the encode memo alive. *)
      if Flags.equal flags entry.flags then Ok t
      else with_ref t i { entry with flags }

let clear_child_flags t =
  { t with refs = Array.map (fun e -> { e with flags = Flags.clear }) t.refs; enc = None }

let ref_entry_equal a b = a.block = b.block && Flags.equal a.flags b.flags

(* Structural equality of the value a page denotes; the memo is a cache,
   not part of the value, so it is ignored. *)
let equal a b =
  a.header = b.header
  && Array.length a.refs = Array.length b.refs
  && (let n = Array.length a.refs in
      let rec go i = i >= n || (ref_entry_equal a.refs.(i) b.refs.(i) && go (i + 1)) in
      go 0)
  && Bytes.equal a.data b.data

(* {2 Wire format} *)

let magic = 0xAF5
let format_version = 1

(* Fresh (non-memoized) serialisations since program start: the hook the
   encode-once regression tests and the m2 bench watch. Counting is the
   only effect; the value never feeds back into any run. *)
let encode_count = ref 0
let fresh_encodes () = !encode_count

let check_block_number b =
  if b < 0 || b > max_block_number then
    invalid_arg (Printf.sprintf "Page: block number %d out of 28-bit range" b)

let encode_opt_block = function
  | None -> nil_block
  | Some b ->
      check_block_number b;
      b

let decode_opt_block v = if v = nil_block then None else Some v

let decode_cap r =
  let port = Capability.port_of_int (Int64.to_int (Wire.Reader.u64 r)) in
  let obj = Wire.Reader.varint r in
  let rights = Capability.rights_of_int (Wire.Reader.u8 r) in
  let check = Wire.Reader.u32 r in
  { Capability.port; obj; rights; check }

(* The encoded size is pure arithmetic over the page's fields — no
   serialisation. Only the varint fields (capability object numbers, the
   reference count, the data length) have value-dependent widths. *)
let varint_len v =
  if v < 0 then invalid_arg "Page.varint_len: negative"
  else begin
    let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
    go v 1
  end

let cap_bytes cap = 8 + varint_len cap.Capability.obj + 1 + 4

let encoded_size t =
  let h = t.header in
  let kind_and_header =
    match (h.file_cap, h.version_cap) with
    | Some fc, Some vc -> 1 + cap_bytes fc + cap_bytes vc + 4 + 8 + 8 + 4 + 1
    | None, None -> 1
    | _ -> invalid_arg "Page.encoded_size: version page must carry both capabilities"
  in
  2 + 1 + kind_and_header + 4
  + varint_len (Array.length t.refs)
  + varint_len (Bytes.length t.data)
  + (4 * Array.length t.refs)
  + Bytes.length t.data

(* Serialise into an exactly-sized buffer (the arithmetic size makes the
   single allocation possible; the byte order is identical to what the
   historical [Wire.Writer]-based encoder produced). The image is
   memoized on the page and aliased to every caller, so callers must
   treat it as immutable — every store boundary in this repo copies. *)
let encode_into t buf =
  let pos = ref 0 in
  let u8 v =
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (v land 0xFF));
    incr pos
  in
  let u16 v =
    u8 v;
    u8 (v lsr 8)
  in
  (* Word-width fields store in one unaligned write ([set_int32_le] is a
     compiler primitive) — the reference table, four bytes per entry, is
     most of a page's non-data bytes. *)
  let u32 v =
    Bytes.set_int32_le buf !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let u64 v =
    Bytes.set_int64_le buf !pos v;
    pos := !pos + 8
  in
  let rec varint v =
    if v < 0x80 then u8 v
    else begin
      u8 (0x80 lor (v land 0x7F));
      varint (v lsr 7)
    end
  in
  let cap c =
    u64 (Int64.of_int (Capability.port_to_int c.Capability.port));
    varint c.Capability.obj;
    u8 (Capability.rights_to_int c.Capability.rights);
    u32 c.Capability.check
  in
  u16 magic;
  u8 format_version;
  let h = t.header in
  (match (h.file_cap, h.version_cap) with
  | Some fc, Some vc ->
      u8 1;
      cap fc;
      cap vc;
      u32 (encode_opt_block h.commit_ref);
      u64 (Int64.of_int h.top_lock);
      u64 (Int64.of_int h.inner_lock);
      u32 (encode_opt_block h.parent_ref);
      u8 (Flags.to_nibble h.root_flags)
  | None, None -> u8 0
  | _ -> invalid_arg "Page.encode: version page must carry both capabilities");
  u32 (encode_opt_block h.base_ref);
  varint (Array.length t.refs);
  varint (Bytes.length t.data);
  Array.iter
    (fun e ->
      check_block_number e.block;
      u32 ((e.block lsl 4) lor Flags.to_nibble e.flags))
    t.refs;
  Bytes.blit t.data 0 buf !pos (Bytes.length t.data)

let encode t =
  match t.enc with
  | Some image -> image
  | None ->
      incr encode_count;
      let image = Bytes.create (encoded_size t) in
      encode_into t image;
      t.enc <- Some image;
      image

let memoized_image t = t.enc

(* [memo] seeds the decoded page's image memo with [image] itself, so the
   page will never be re-serialised. Only sound when the image is known
   to be canonical encoder output (every image in this system's stores
   is: stores are only ever written with {!encode} results) and when the
   caller owns [image] exclusively — both stores hand out fresh copies on
   read. Default off for arbitrary input, whose varints may be padded. *)
let decode ?(memo = false) image =
  match
    let r = Wire.Reader.of_bytes image in
    if Wire.Reader.u16 r <> magic then Error "bad page magic"
    else if Wire.Reader.u8 r <> format_version then Error "bad page format version"
    else begin
      let kind = Wire.Reader.u8 r in
      let header =
        if kind = 1 then begin
          let file_cap = decode_cap r in
          let version_cap = decode_cap r in
          let commit_ref = decode_opt_block (Wire.Reader.u32 r) in
          let top_lock = Int64.to_int (Wire.Reader.u64 r) in
          let inner_lock = Int64.to_int (Wire.Reader.u64 r) in
          let parent_ref = decode_opt_block (Wire.Reader.u32 r) in
          match Flags.of_nibble (Wire.Reader.u8 r) with
          | None -> Error "illegal root flag nibble"
          | Some root_flags ->
              Ok
                {
                  plain_header with
                  file_cap = Some file_cap;
                  version_cap = Some version_cap;
                  commit_ref;
                  top_lock;
                  inner_lock;
                  parent_ref;
                  root_flags;
                }
        end
        else if kind = 0 then Ok plain_header
        else Error "bad page kind"
      in
      match header with
      | Error _ as e -> e
      | Ok header -> (
          let base_ref = decode_opt_block (Wire.Reader.u32 r) in
          let header = { header with base_ref } in
          let nrefs = Wire.Reader.varint r in
          let dsize = Wire.Reader.varint r in
          let bad_nibble = ref false in
          let refs =
            Array.init nrefs (fun _ ->
                let packed = Wire.Reader.u32 r in
                match Flags.of_nibble (packed land 0xF) with
                | Some flags -> { block = packed lsr 4; flags }
                | None ->
                    bad_nibble := true;
                    { block = packed lsr 4; flags = Flags.clear })
          in
          if !bad_nibble then Error "illegal flag nibble in reference table"
          else
            let data = Wire.Reader.bytes r dsize in
            let () = Wire.Reader.expect_end r in
            Ok { header; refs; data; enc = (if memo then Some image else None) })
    end
  with
  | result -> result
  | exception Wire.Decode_error msg -> Error ("page decode: " ^ msg)

(* {2 Reading an image in place}

   Positional reads that fail like [Wire.Reader] on truncation. A scan
   allocates nothing unless it fails: the collector runs one per block it
   marks. *)

let truncated () = raise (Wire.Decode_error "truncated")

let byte_at image pos = if pos >= Bytes.length image then truncated () else Bytes.get_uint8 image pos

let word_at image pos =
  if pos + 4 > Bytes.length image then truncated ()
  else Int32.to_int (Bytes.get_int32_le image pos) land 0xFFFFFFFF

(* Position just past the varint at [pos]. *)
let rec varint_end image pos shift =
  if shift > 56 then raise (Wire.Decode_error "varint too long")
  else if byte_at image pos land 0x80 = 0 then pos + 1
  else varint_end image (pos + 1) (shift + 7)

let rec varint_at image pos shift acc =
  let b = byte_at image pos in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else varint_at image (pos + 1) (shift + 7) acc

(* Past a capability: port (8), object number (varint), rights (1),
   check (4). *)
let cap_end image pos = varint_end image (pos + 8) 0 + 1 + 4

(* Checks [image] exactly as {!decode} does — magic, version, kind, flag
   nibbles, exact length — then calls [f] on each child block number and
   returns the raw commit reference field. *)
let scan_image image f =
  if word_at image 0 land 0xFFFF <> magic then raise (Wire.Decode_error "bad page magic");
  if byte_at image 2 <> format_version then raise (Wire.Decode_error "bad page format version");
  let kind = byte_at image 3 in
  if kind <> 0 && kind <> 1 then raise (Wire.Decode_error "bad page kind");
  (* A version header: two capabilities, then commit reference (4), top
     and inner locks (8 + 8), parent reference (4) and root flags (1). *)
  let commit_at = if kind = 1 then cap_end image (cap_end image 4) else 4 in
  let base_at = if kind = 1 then commit_at + 4 + 8 + 8 + 4 + 1 else 4 in
  if kind = 1 && not (Flags.legal_nibble (byte_at image (base_at - 1))) then
    raise (Wire.Decode_error "illegal root flag nibble");
  let raw_commit = if kind = 1 then word_at image commit_at else nil_block in
  let nrefs_at = base_at + 4 (* past the base reference *) in
  let dsize_at = varint_end image nrefs_at 0 in
  let refs_at = varint_end image dsize_at 0 in
  let nrefs = varint_at image nrefs_at 0 0 and dsize = varint_at image dsize_at 0 0 in
  let rest = Bytes.length image - refs_at in
  if nrefs < 0 || dsize < 0 || nrefs > rest / 4 || rest - (4 * nrefs) <> dsize then
    raise (Wire.Decode_error "length does not match the header");
  for i = 0 to nrefs - 1 do
    if not (Flags.legal_nibble (word_at image (refs_at + (4 * i)) land 0xF)) then
      raise (Wire.Decode_error "illegal flag nibble in reference table")
  done;
  for i = 0 to nrefs - 1 do
    f (word_at image (refs_at + (4 * i)) lsr 4)
  done;
  raw_commit

let no_child (_ : int) = ()

let image_commit_ref image =
  match scan_image image no_child with
  | raw -> Ok (decode_opt_block raw)
  | exception Wire.Decode_error msg -> Error ("page decode: " ^ msg)

let iter_image_refs image f =
  match scan_image image f with
  | _ -> Ok ()
  | exception Wire.Decode_error msg -> Error ("page decode: " ^ msg)

let version_header_bytes = (2 * (8 + 3 + 1 + 4)) + 4 + 8 + 8 + 4 + 1
let fixed_bytes = 2 + 1 + 1 + 4 + 3 + 3

let data_capacity ~block_size ~nrefs ~is_version =
  block_size - fixed_bytes - (is_version * version_header_bytes) - (4 * nrefs)
