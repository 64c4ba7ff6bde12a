type error =
  | Offline
  | Out_of_range of int
  | Never_written of int
  | Write_once_violation of int
  | Too_large of { requested : int; block_size : int }

let pp_error ppf = function
  | Offline -> Fmt.string ppf "device offline"
  | Out_of_range b -> Fmt.pf ppf "block %d out of range" b
  | Never_written b -> Fmt.pf ppf "block %d never written" b
  | Write_once_violation b -> Fmt.pf ppf "write-once violation on block %d" b
  | Too_large { requested; block_size } ->
      Fmt.pf ppf "%d bytes exceeds block size %d" requested block_size

module Trace = Afs_trace.Trace
module Image = Afs_util.Image

type sector = { header : string; image : Image.t }

(* The slot of a block never written, told apart from a written empty
   sector by identity: the record is built at run time, so no constant
   elsewhere can share it. *)
let unwritten = { header = ""; image = Image.of_bytes (Bytes.create 0) }

type t = {
  media : Media.t;
  block_size : int;
  (* A write keeps the caller's record and a read returns it, so one
     sealed sector can sit on two disks at once; nobody changes its
     bytes, though a reader may split its image (a split shows on every
     disk that holds it). One slot per block, [unwritten] when it holds
     nothing. *)
  blocks : sector array;
  mutable offline : bool;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable busy_ms : float;
  mutable in_use : int;
  trace : Trace.t;
}

let create ?(trace = Trace.null) ~media ~blocks ~block_size () =
  if blocks <= 0 then invalid_arg "Disk.create: blocks must be positive";
  if block_size <= 0 then invalid_arg "Disk.create: block_size must be positive";
  {
    media;
    block_size;
    blocks = Array.make blocks unwritten;
    offline = false;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    busy_ms = 0.0;
    in_use = 0;
    trace;
  }

let block_count t = Array.length t.blocks
let block_size t = t.block_size

let charge t cost = t.busy_ms <- t.busy_ms +. cost

let sector_bytes s = String.length s.header + Image.length s.image

(* A read answers [answer] of the stored sector, which is the record
   itself or its image's bytes: both reads share this one body. *)
let fetch answer t b =
  if t.offline then Error Offline
  else if b < 0 || b >= Array.length t.blocks then Error (Out_of_range b)
  else
    let s = t.blocks.(b) in
    if s == unwritten then begin
      charge t (Media.read_cost t.media ~bytes:0);
      Error (Never_written b)
    end
    else begin
      let bytes = sector_bytes s in
      let cost = Media.read_cost t.media ~bytes in
      t.reads <- t.reads + 1;
      t.bytes_read <- t.bytes_read + bytes;
      charge t cost;
      if Trace.enabled t.trace then
        Trace.point t.trace
          (Trace.Disk_read
             { media = Media.kind_name t.media.Media.kind; block = b; bytes; cost_ms = cost });
      Ok (answer s)
    end

let read_sector t b = fetch Fun.id t b
let read t b = fetch (fun s -> Bytes.unsafe_to_string (Image.to_bytes s.image)) t b

let write_sector t b s =
  let bytes = sector_bytes s in
  if t.offline then Error Offline
  else if b < 0 || b >= Array.length t.blocks then Error (Out_of_range b)
  else if bytes > t.block_size then
    Error (Too_large { requested = bytes; block_size = t.block_size })
  else if t.media.Media.write_once && t.blocks.(b) != unwritten then Error (Write_once_violation b)
  else begin
    let cost = Media.write_cost t.media ~bytes in
    if t.blocks.(b) == unwritten then t.in_use <- t.in_use + 1;
    t.blocks.(b) <- s;
    t.writes <- t.writes + 1;
    t.bytes_written <- t.bytes_written + bytes;
    charge t cost;
    if Trace.enabled t.trace then
      Trace.point t.trace
        (Trace.Disk_write
           { media = Media.kind_name t.media.Media.kind; block = b; bytes; cost_ms = cost });
    Ok ()
  end

let write t b data =
  write_sector t b { header = ""; image = Image.of_bytes (Bytes.unsafe_of_string data) }

let erase t b =
  if t.offline then Error Offline
  else if b < 0 || b >= Array.length t.blocks then Error (Out_of_range b)
  else if t.media.Media.write_once then Error (Write_once_violation b)
  else begin
    if t.blocks.(b) != unwritten then t.in_use <- t.in_use - 1;
    t.blocks.(b) <- unwritten;
    Ok ()
  end

let is_written t b = b >= 0 && b < Array.length t.blocks && t.blocks.(b) != unwritten

let set_offline t flag = t.offline <- flag

let corrupt t b ~xor_byte =
  if b < 0 || b >= Array.length t.blocks then false
  else
    let s = t.blocks.(b) in
    let n = sector_bytes s in
    if n = 0 then false
    else begin
      (* A damaged copy replaces the block: the old sector may be shared
         with a companion disk or the writer, which must not see it. The
         flipped byte is the middle one of header and image together. *)
      let i = n / 2 and h = String.length s.header in
      let flip i str =
        let byte j c = if j = i then Char.chr (Char.code c lxor Char.code xor_byte) else c in
        String.mapi byte str
      in
      t.blocks.(b) <-
        (if i < h then { s with header = flip i s.header }
         else
           let image = Bytes.unsafe_to_string (Image.to_bytes s.image) in
           { s with image = Image.of_bytes (Bytes.unsafe_of_string (flip (i - h) image)) });
      true
    end

let wipe t =
  Array.fill t.blocks 0 (Array.length t.blocks) unwritten;
  t.in_use <- 0

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ms : float;
  blocks_in_use : int;
}

let stats (t : t) =
  {
    reads = t.reads;
    writes = t.writes;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
    busy_ms = t.busy_ms;
    blocks_in_use = t.in_use;
  }

let busy_ms (t : t) = t.busy_ms
