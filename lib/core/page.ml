module Capability = Afs_util.Capability
module Wire = Afs_util.Wire
module Image = Afs_util.Image

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
   the field is filled lazily by {!encode} (or seeded by {!decode} with
   the store's own image when the caller vouches for its provenance) and
   never read for anything except serialisation and the page store's
   revalidation, so it is invisible to the protocol. *)
type t = {
  header : header;
  refs : ref_entry array;
  data : bytes;
  mutable enc : Image.t option;
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

(* An entry whose flags are already clear is reused, not rebuilt. *)
let clear_entry e = if Flags.equal e.flags Flags.clear then e else { e with flags = Flags.clear }
let cleared_refs refs = Array.map clear_entry refs
let clear_child_flags t = { t with refs = cleared_refs t.refs; enc = None }

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


(* {2 Wire format}

   Magic (2), format version (1), kind (1: 0 plain, 1 version page); a
   version page's two capabilities and its fields below; then on every
   page the base reference (4), the reference count and data length
   (varints), the reference table (4 per entry: block number above the
   flag nibble) and the data. *)

let magic = 0xAF5
let format_version = 1
let kind_at = 3
let kind_end = 4

(* A version page's fields past its capabilities, as offsets: commit
   reference (4), top and inner locks (8 + 8), parent reference (4) and
   root flags (1). *)
let top_lock_off = 4
let inner_lock_off = 12
let parent_off = 20
let root_flags_off = 24
let version_fields = 25

(* A capability: port (8), object number (varint), rights (1), check (4). *)
let cap_size c = 8 + Wire.varint_size c.Capability.obj + 1 + 4

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

(* The encoded size is pure arithmetic over the page's fields — no
   serialisation. Only the varint fields (capability object numbers, the
   reference count, the data length) have value-dependent widths. *)
let encoded_size t =
  let h = t.header in
  let version_header =
    match (h.file_cap, h.version_cap) with
    | Some fc, Some vc -> cap_size fc + cap_size vc + version_fields
    | None, None -> 0
    | _ -> invalid_arg "Page.encoded_size: version page must carry both capabilities"
  in
  kind_end + version_header + 4
  + Wire.varint_size (Array.length t.refs)
  + Wire.varint_size (Bytes.length t.data)
  + (4 * Array.length t.refs)
  + Bytes.length t.data

let set_word buf pos v = Bytes.set_int32_le buf pos (Int32.of_int v)

(* Writes the capability at [pos]; returns the position after it. *)
let set_cap buf pos c =
  Bytes.set_int64_le buf pos (Int64.of_int (Capability.port_to_int c.Capability.port));
  let pos = Wire.set_varint buf (pos + 8) c.Capability.obj in
  Bytes.set_uint8 buf pos (Capability.rights_to_int c.Capability.rights);
  set_word buf (pos + 1) c.Capability.check;
  pos + 5

(* Serialise into an exactly-sized buffer (the arithmetic size makes the
   single allocation possible). The image is memoized on the page and
   aliased to every caller, so callers must treat it as immutable — the
   store boundary's ownership rule ({!Store}) hands it on uncopied. *)
let encode_into t buf =
  Bytes.set_uint16_le buf 0 magic;
  Bytes.set_uint8 buf 2 format_version;
  let h = t.header in
  let base_at =
    match (h.file_cap, h.version_cap) with
    | Some fc, Some vc ->
        Bytes.set_uint8 buf kind_at 1;
        let at = set_cap buf (set_cap buf kind_end fc) vc in
        set_word buf at (encode_opt_block h.commit_ref);
        Bytes.set_int64_le buf (at + top_lock_off) (Int64.of_int h.top_lock);
        Bytes.set_int64_le buf (at + inner_lock_off) (Int64.of_int h.inner_lock);
        set_word buf (at + parent_off) (encode_opt_block h.parent_ref);
        Bytes.set_uint8 buf (at + root_flags_off) (Flags.to_nibble h.root_flags);
        at + version_fields
    | None, None ->
        Bytes.set_uint8 buf kind_at 0;
        kind_end
    | _ -> invalid_arg "Page.encode: version page must carry both capabilities"
  in
  set_word buf base_at (encode_opt_block h.base_ref);
  let refs_at = Wire.set_varint buf (base_at + 4) (Array.length t.refs) in
  let refs_at = Wire.set_varint buf refs_at (Bytes.length t.data) in
  Array.iteri
    (fun i e ->
      check_block_number e.block;
      set_word buf (refs_at + (4 * i)) ((e.block lsl 4) lor Flags.to_nibble e.flags))
    t.refs;
  Bytes.blit t.data 0 buf (refs_at + (4 * Array.length t.refs)) (Bytes.length t.data)

(* A memo seeded by {!decode} may be a split store image, whose written
   bytes [Image.to_bytes] joins afresh: a copy, but no serialisation. *)
let encode t =
  match t.enc with
  | Some image -> Image.to_bytes image
  | None ->
      incr encode_count;
      let bytes = Bytes.create (encoded_size t) in
      encode_into t bytes;
      t.enc <- Some (Image.of_bytes bytes);
      bytes

let memoized_image t = t.enc

(* {2 Reading an image}

   One check reads the layout for every reader: {!decode} builds a page
   from the positions it finds, and the collector's in-place reads take
   the commit reference and the child blocks straight from the image.
   Every position lies in the image's [head], which is the whole image
   until the first decode splits it and the encoded head after.
   Positional reads raise [Wire.Decode_error] on truncation; the check
   allocates nothing unless it fails, since the collector runs one per
   block it marks. *)

let fail msg = raise (Wire.Decode_error msg)

let byte_at image pos =
  if pos >= Bytes.length image then fail "truncated" else Bytes.get_uint8 image pos

let word_at image pos =
  if pos + 4 > Bytes.length image then fail "truncated"
  else Int32.to_int (Bytes.get_int32_le image pos) land 0xFFFFFFFF

(* Position just past the varint at [pos]. *)
let rec varint_end image pos shift =
  if shift > 56 then fail "varint too long"
  else if byte_at image pos land 0x80 = 0 then pos + 1
  else varint_end image (pos + 1) (shift + 7)

let rec varint_at image pos shift acc =
  let b = byte_at image pos in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else varint_at image (pos + 1) (shift + 7) acc

let cap_end image pos = varint_end image (pos + 8) 0 + 1 + 4

(* Checks the whole image — magic, format version, kind, a version
   page's root flag nibble, the varints, the exact length the reference
   count and data length imply, every reference nibble — then calls [f]
   on each child block number and hands [k] the image, its head and the
   layout: where a version page's fields start ([-1] on a plain page),
   where the base reference and the reference table sit, and the table's
   length. The data runs from the table's end to the image's; a split
   image's head ends with the table. *)
let check whole f k =
  let image = whole.Image.head in
  if word_at image 0 land 0xFFFF <> magic then fail "bad page magic";
  if byte_at image 2 <> format_version then fail "bad page format version";
  let kind = byte_at image kind_at in
  if kind <> 0 && kind <> 1 then fail "bad page kind";
  let fields_at = if kind = 1 then cap_end image (cap_end image kind_end) else -1 in
  let base_at = if kind = 1 then fields_at + version_fields else kind_end in
  if kind = 1 && not (Flags.legal_nibble (byte_at image (fields_at + root_flags_off))) then
    fail "illegal root flag nibble";
  let nrefs_at = base_at + 4 in
  let dsize_at = varint_end image nrefs_at 0 in
  let refs_at = varint_end image dsize_at 0 in
  let nrefs = varint_at image nrefs_at 0 0 and dsize = varint_at image dsize_at 0 0 in
  let rest = Bytes.length image - refs_at + Bytes.length whole.Image.data in
  if nrefs < 0 || dsize < 0 || nrefs > rest / 4 || rest - (4 * nrefs) <> dsize then
    fail "length does not match the header";
  if (not (Image.is_whole whole)) && Bytes.length image <> refs_at + (4 * nrefs) then
    fail "head does not end with the reference table";
  for i = 0 to nrefs - 1 do
    if not (Flags.legal_nibble (word_at image (refs_at + (4 * i)) land 0xF)) then
      fail "illegal flag nibble in reference table"
  done;
  for i = 0 to nrefs - 1 do
    f (word_at image (refs_at + (4 * i)) lsr 4)
  done;
  k whole image ~fields_at ~base_at ~refs_at ~nrefs

let rejected msg = Error ("page decode: " ^ msg)
let no_child (_ : int) = ()

(* Nibbles the check has passed. *)
let flags_of nibble =
  match Flags.of_nibble nibble with Some flags -> flags | None -> fail "illegal flag nibble"

let cap_at image pos =
  let rights_at = varint_end image (pos + 8) 0 in
  {
    Capability.port = Capability.port_of_int (Int64.to_int (Bytes.get_int64_le image pos));
    obj = varint_at image (pos + 8) 0 0;
    rights = Capability.rights_of_int (byte_at image rights_at);
    check = word_at image (rights_at + 1);
  }

(* The page's data is the image's: a whole image is split where the
   table ends, copying the data out once, and a split one shares it.
   [memo] seeds the decoded page's image memo with the image itself, so
   the page will never be re-serialised. Only sound when the image is
   known to be canonical encoder output (every image in this system's
   stores is: stores are only ever written with {!encode} results) and
   its bytes will never change — the store boundary's ownership rule.
   Default off for arbitrary input, whose varints may be padded. *)
let build ~memo whole image ~fields_at ~base_at ~refs_at ~nrefs =
  let base_ref = decode_opt_block (word_at image base_at) in
  let header =
    if fields_at < 0 then { plain_header with base_ref }
    else
      {
        file_cap = Some (cap_at image kind_end);
        version_cap = Some (cap_at image (cap_end image kind_end));
        commit_ref = decode_opt_block (word_at image fields_at);
        top_lock = Int64.to_int (Bytes.get_int64_le image (fields_at + top_lock_off));
        inner_lock = Int64.to_int (Bytes.get_int64_le image (fields_at + inner_lock_off));
        parent_ref = decode_opt_block (word_at image (fields_at + parent_off));
        base_ref;
        root_flags = flags_of (byte_at image (fields_at + root_flags_off));
      }
  in
  let refs =
    Array.init nrefs (fun i ->
        let packed = word_at image (refs_at + (4 * i)) in
        { block = packed lsr 4; flags = flags_of (packed land 0xF) })
  in
  Image.split whole ~at:(refs_at + (4 * nrefs));
  { header; refs; data = whole.Image.data; enc = (if memo then Some whole else None) }

let decode ?(memo = false) image =
  match check image no_child (build ~memo) with
  | page -> Ok page
  | exception Wire.Decode_error msg -> rejected msg

let commit_of _ image ~fields_at ~base_at:_ ~refs_at:_ ~nrefs:_ =
  if fields_at < 0 then None else decode_opt_block (word_at image fields_at)

let image_commit_ref image =
  match check image no_child commit_of with
  | commit -> Ok commit
  | exception Wire.Decode_error msg -> rejected msg

let no_layout _ _ ~fields_at:_ ~base_at:_ ~refs_at:_ ~nrefs:_ = ()

let iter_image_refs image f =
  match check image f no_layout with
  | () -> Ok ()
  | exception Wire.Decode_error msg -> rejected msg
