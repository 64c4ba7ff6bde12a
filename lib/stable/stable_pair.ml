module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module Wire = Afs_util.Wire
module Xrng = Afs_util.Xrng
module Det = Afs_util.Det
module Image = Afs_util.Image

type id = int

type error =
  | Unavailable of id
  | No_free_blocks
  | Collision of int
  | Not_allocated of int
  | Corrupt_both of int
  | Recovering of id
  | Disk_error of Disk.error

let pp_error ppf = function
  | Unavailable i -> Fmt.pf ppf "server %d unavailable" i
  | No_free_blocks -> Fmt.string ppf "no free blocks"
  | Collision b -> Fmt.pf ppf "allocate/write collision on block %d" b
  | Not_allocated b -> Fmt.pf ppf "block %d not allocated" b
  | Corrupt_both b -> Fmt.pf ppf "both copies of block %d corrupt" b
  | Recovering i -> Fmt.pf ppf "server %d still recovering" i
  | Disk_error e -> Disk.pp_error ppf e

(* One network hop between companions, in simulated milliseconds. *)
let hop_ms = 2.0

type intention = Wrote | Freed

type server = {
  disk : Disk.t;
  (* This server's view of the allocation state. Views can diverge while a
     companion is down and are reconciled by [restart]. *)
  allocated : (int, unit) Hashtbl.t;
  tentative : (int, unit) Hashtbl.t;
  (* Blocks written or freed while the companion was down, to replay at
     recovery. *)
  intentions : (int, intention) Hashtbl.t;
  mutable up : bool;
  mutable recovered : bool;
  mutable seq : int64;
}

module Trace = Afs_trace.Trace

type t = {
  servers : server array;
  rng : Xrng.t;
  block_size : int;
  blocks : int;
  (* The pair's own share of its clock: companion hops and collision
     back-offs, which no disk charges. *)
  mutable modelled_ms : float;
  trace : Trace.t;
}

let make_server ~trace ~media ~blocks ~block_size =
  {
    disk = Disk.create ~trace ~media ~blocks ~block_size ();
    allocated = Hashtbl.create 256;
    tentative = Hashtbl.create 16;
    intentions = Hashtbl.create 16;
    up = true;
    recovered = true;
    seq = 0L;
  }

let header_room = 32 (* magic + seq + length varint + crc, rounded up *)

let create ?(seed = 0x57AB1E) ?(media = Media.magnetic) ?(trace = Trace.null) ~blocks
    ~block_size () =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Stable_pair.create: sizes";
  let disk_block_size = block_size + header_room in
  let server () = make_server ~trace ~media ~blocks ~block_size:disk_block_size in
  let servers = [| server (); server () |] and rng = Xrng.create seed in
  { servers; rng; block_size; blocks; modelled_ms = 0.0; trace }

let busy_ms t =
  Disk.busy_ms t.servers.(0).disk +. Disk.busy_ms t.servers.(1).disk +. t.modelled_ms

let charge t ms = t.modelled_ms <- t.modelled_ms +. ms

(* A [stable.leg] point, costed as what [server]'s disk charged since its
   clock read [since]. *)
let leg t ~leg ~server ~block ~since =
  if Trace.enabled t.trace then
    let cost_ms = Disk.busy_ms t.servers.(server).disk -. since in
    Trace.point t.trace (Trace.Stable_leg { leg; server; block; cost_ms })

let block_size t = t.block_size
let disk t i = t.servers.(i).disk
let companion i = 1 - i
let online t i = t.servers.(i).up && t.servers.(i).recovered

let some_online t = if online t 0 then Some 0 else if online t 1 then Some 1 else None

(* {2 Sector headers: magic, seq, payload length, then a CRC} *)

let magic = 0x5AB1

(* A block's header sits beside its payload in the disk sector, not
   around it, so the sector's image is the writer's own bytes, kept under
   the store's ownership rule. The header's CRC covers its own fields,
   then the payload, so a flipped seq bit fails the read like a flipped
   payload bit: compare-notes would otherwise trust the damaged copy as
   newer. Both legs, a fallback repair and a restart share the one
   sealed sector, and no disk copies it. *)
let seal seq payload =
  let len = Bytes.length payload in
  let fields = 10 + Wire.varint_size len in
  let header = Bytes.create (fields + 4) in
  Bytes.set_uint16_le header 0 magic;
  Bytes.set_int64_le header 2 seq;
  ignore (Wire.set_varint header 10 len : int);
  let crc = Wire.crc32_continue (Wire.crc32_sub header 0 fields) payload 0 len in
  Bytes.set_int32_le header fields (Int32.of_int crc);
  { Disk.header = Bytes.unsafe_to_string header; image = Image.of_bytes payload }

(* The header is checked against the payload where they lie, as
   [Page.check] checks a page, so a sound sector costs nothing to find.
   The payload's length is the varint at 10, which must be the shortest
   encoding, leave exactly the CRC after it and match the image. The CRC
   runs over the header's fields, then the image's head and data: the
   written bytes, however the image is held. *)
let rec varint_at s pos limit shift acc =
  if pos >= limit || shift > 56 then -1
  else
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else varint_at s (pos + 1) limit (shift + 7) acc

let sound { Disk.header; image } =
  let fields = String.length header - 4 and len = Image.length image in
  fields >= 11
  && String.get_uint16_le header 0 = magic
  && varint_at header 10 fields 0 0 = len
  && 10 + Wire.varint_size len = fields
  && Wire.crc32_continue
       (Wire.crc32_continue
          (Wire.crc32_sub (Bytes.unsafe_of_string header) 0 fields)
          image.Image.head 0
          (Bytes.length image.Image.head))
       image.Image.data 0
       (Bytes.length image.Image.data)
     = Int32.to_int (String.get_int32_le header fields) land 0xFFFFFFFF

let seq_of sector = String.get_int64_le sector.Disk.header 2

let next_seq t i =
  let s = t.servers.(i) in
  s.seq <- Int64.add s.seq 1L;
  s.seq

let note_seq t i seq = if seq > t.servers.(i).seq then t.servers.(i).seq <- seq

(* {2 Protocol steps} *)

let check_serving t i =
  let s = t.servers.(i) in
  if not s.up then Error (Unavailable i)
  else if not s.recovered then Error (Recovering i)
  else Ok s

let is_taken s b = Hashtbl.mem s.allocated b || Hashtbl.mem s.tentative b

let tentative_allocate t i =
  match check_serving t i with
  | Error _ as e -> e
  | Ok s ->
      let total = t.blocks in
      let rec probe attempts =
        if attempts = 0 then
          (* Linear fallback keeps allocation total. *)
          let rec scan b = if b >= total then None else if is_taken s b then scan (b + 1) else Some b in
          scan 0
        else
          let b = Xrng.int t.rng total in
          if is_taken s b then probe (attempts - 1) else Some b
      in
      (match probe 16 with
      | None -> Error No_free_blocks
      | Some b ->
          Hashtbl.replace s.tentative b ();
          Ok b)

let abort_tentative t i b = Hashtbl.remove t.servers.(i).tentative b

(* The one copy writer: a sealed sector onto server [x]'s disk, with
   [x]'s counter moved past its seq and the block marked allocated there.
   Every copy — either leg of a write, a fallback repair, a restart push —
   goes through here, so no copy can land without its counter moving. *)
let put_copy t x b sector seq =
  let s = t.servers.(x) in
  note_seq t x seq;
  match Disk.write_sector s.disk b sector with
  | Error e -> Error (Disk_error e)
  | Ok () ->
      Hashtbl.replace s.allocated b ();
      Ok ()

(* Applies [f] to each element in order, stopping at the first failure. *)
let rec each f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> each f rest | Error _ as e -> e)

(* Leg 1 (A→B), at the companion of [primary], for any number of blocks.
   Collision check first: the companion knows its own allocations and
   tentative choices, so a block it holds tentatively, or a fresh block
   (not yet allocated in the primary's view, so this write allocates it)
   that it has allocated, is a collision — caught before any copy is
   written. Then each block is sealed and written. Returns each sealed
   sector with its seq: leg 2 writes that same sector, so a write seals
   once. *)
let shadow_leg t ~primary entries =
  let q = companion primary in
  match check_serving t q with
  | Error _ as e -> e
  | Ok sq -> (
      let fresh b = not (Hashtbl.mem t.servers.(primary).allocated b) in
      let collides (b, _) =
        Hashtbl.mem sq.tentative b || (fresh b && Hashtbl.mem sq.allocated b)
      in
      charge t hop_ms;
      match List.find_opt collides entries with
      | Some (b, _) -> Error (Collision b)
      | None ->
          let rec shadow sealed = function
            | [] -> Ok (List.rev sealed)
            | (b, payload) :: rest -> (
                let seq = next_seq t q in
                let sector = seal seq payload in
                let since = Disk.busy_ms sq.disk in
                match put_copy t q b sector seq with
                | Error _ as e -> e
                | Ok () ->
                    leg t ~leg:"shadow" ~server:q ~block:b ~since;
                    shadow ((b, sector, seq) :: sealed) rest)
          in
          shadow [] entries)

(* The seq the one shadow drew is the companion's counter. *)
let shadow_write t ~primary b payload =
  Result.map
    (fun _ -> t.servers.(companion primary).seq)
    (shadow_leg t ~primary [ (b, payload) ])

(* Leg 2 (B→A): the writer's own copy, which also drops its tentative
   reservation. No serving check: recovery uses this while the server is
   still marked unrecovered. *)
let local_leg t i b sector seq =
  let since = Disk.busy_ms t.servers.(i).disk in
  let r = put_copy t i b sector seq in
  if Result.is_ok r then begin
    Hashtbl.remove t.servers.(i).tentative b;
    leg t ~leg:"local" ~server:i ~block:b ~since
  end;
  r

let local_write_seq t i b payload seq =
  match check_serving t i with
  | Error _ as e -> e
  | Ok _ -> local_leg t i b (seal seq payload) seq

(* {2 Composite operations} *)

(* The §4 write of any number of blocks in one A→B→A round trip: the
   companion hop is paid once, then each block pays its two disk writes.
   Each block must be allocated or held tentatively by this server; a
   tentative block's first write is its allocation, which the companion
   checks for a collision. Every companion copy is written before any
   local copy and the writes stop at the first failure, so a crash
   mid-batch leaves each block fully stable, companion-only (repaired
   forward at restart) or untouched — never torn. *)
let write_batch t i entries =
  match entries with
  | [] -> Ok ()
  | _ -> (
      match check_serving t i with
      | Error _ as e -> e
      | Ok s -> (
          match List.find_opt (fun (b, _) -> not (is_taken s b)) entries with
          | Some (b, _) -> Error (Not_allocated b)
          | None when not (online t (companion i)) ->
              (* Companion down: write locally, leave an intention so the
                 companion restores each block when it comes back. *)
              each
                (fun (b, payload) ->
                  Hashtbl.replace s.intentions b Wrote;
                  let seq = next_seq t i in
                  local_leg t i b (seal seq payload) seq)
                entries
          | None -> (
              match shadow_leg t ~primary:i entries with
              | Error _ as e -> e
              | Ok sealed -> each (fun (b, sector, seq) -> local_leg t i b sector seq) sealed)))

let write t i b payload = write_batch t i [ (b, payload) ]

let max_allocate_retries = 16

let allocate_write t i payload =
  let rec attempt n =
    if n = 0 then Error No_free_blocks
    else
      match tentative_allocate t i with
      | Error _ as e -> e
      | Ok b -> (
          match write t i b payload with
          | Ok () -> Ok b
          | Error (Collision _) ->
              abort_tentative t i b;
              (* "Redo the operation after a random wait interval." *)
              charge t (Xrng.float t.rng 5.0);
              attempt (n - 1)
          | Error _ as e ->
              abort_tentative t i b;
              e)
  in
  attempt max_allocate_retries

(* Server [s]'s copy of [b], or [None] when the disk fails or the
   header does not match the payload. The sector is the one on disk,
   uncopied: recovery compares seqs and passes the winner on. A read
   takes [read]'s path instead. *)
let read_raw s b =
  match Disk.read_sector s.disk b with
  | Ok sector when sound sector -> Some sector
  | Ok _ | Error _ -> None

(* A damaged or unreadable local copy: fall back to the companion,
   repairing the local copy with the companion's verified sector. *)
let read_companion t i b =
  let q = companion i in
  if not (online t q) then Error (Corrupt_both b)
  else begin
    charge t hop_ms;
    let since = Disk.busy_ms t.servers.(q).disk in
    match read_raw t.servers.(q) b with
    | Some sector ->
        leg t ~leg:"companion_read" ~server:q ~block:b ~since:(since -. hop_ms);
        let since = Disk.busy_ms t.servers.(i).disk in
        ignore (local_leg t i b sector (seq_of sector));
        leg t ~leg:"repair" ~server:i ~block:b ~since;
        Ok sector.Disk.image
    | None -> Error (Corrupt_both b)
  end

(* A sound local copy answers the writer's bytes themselves, so a read
   allocates only its answers. *)
let read t i b =
  match check_serving t i with
  | Error _ as e -> e
  | Ok s -> (
      if not (Hashtbl.mem s.allocated b) then Error (Not_allocated b)
      else
        match Disk.read_sector s.disk b with
        | Ok sector when sound sector -> Ok sector.Disk.image
        | Ok _ | Error _ -> read_companion t i b)

let free t i b =
  match check_serving t i with
  | Error _ as e -> e
  | Ok s ->
      if not (Hashtbl.mem s.allocated b) then
        if Hashtbl.mem s.tentative b then begin
          (* Never written: nothing on either disk but the reservation. *)
          Hashtbl.remove s.tentative b;
          Ok ()
        end
        else Error (Not_allocated b)
      else begin
        Hashtbl.remove s.allocated b;
        ignore (Disk.erase s.disk b);
        let q = companion i in
        if online t q then begin
          charge t hop_ms;
          Hashtbl.remove t.servers.(q).allocated b;
          ignore (Disk.erase t.servers.(q).disk b)
        end
        else Hashtbl.replace s.intentions b Freed;
        Ok ()
      end

(* {2 Crashes and recovery} *)

let component_name i = Printf.sprintf "stable:%d" i

let crash t i =
  let s = t.servers.(i) in
  s.up <- false;
  s.recovered <- false;
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Crash { component = component_name i; what = "crash" });
  Hashtbl.reset s.tentative

let wipe_and_crash t i =
  crash t i;
  Disk.wipe t.servers.(i).disk;
  Hashtbl.reset t.servers.(i).allocated;
  Hashtbl.reset t.servers.(i).intentions

(* Adds the blocks of [src] to the set [dst]. *)
let add_all dst src = List.iter (fun b -> Hashtbl.replace dst b ()) (Det.sorted_int_keys src)

let restart t i =
  let s = t.servers.(i) in
  s.up <- true;
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Crash { component = component_name i; what = "restart" });
  let q_id = companion i in
  let q = t.servers.(q_id) in
  if not (q.up && q.recovered) then begin
    (* Companion also down: come up alone on our own disk. *)
    s.recovered <- true;
    Ok 0
  end
  else begin
    (* Compare notes: the union of both allocation views, resolved block by
       block in favour of the copy with the higher sequence number. The
       companion's intentions list is a cheap summary, but after a wipe the
       full union is what restores the disk, so we always walk the union. *)
    let candidates = Hashtbl.copy s.allocated in
    add_all candidates q.allocated;
    add_all candidates q.intentions;
    charge t hop_ms;
    let repaired = ref 0 in
    (* A repair copies the winning side's verified sector as it is,
       through the copy writer: a push also moves their counter past our
       seq, so their next write of the block cannot carry a seq no
       higher. *)
    let repair copy b sector =
      ignore (copy b sector (seq_of sector));
      incr repaired
    in
    let pull = repair (local_leg t i) and push = repair (put_copy t q_id) in
    (* A block freed while one side was down is gone: drop the stale
       copy rather than push it back. The companion's intention is the
       newer; ours counts when it has none. *)
    let freed b =
      match Hashtbl.find_opt q.intentions b with
      | Some intention -> intention = Freed
      | None -> Hashtbl.find_opt s.intentions b = Some Freed
    in
    let drop b x = Hashtbl.remove x.allocated b; ignore (Disk.erase x.disk b) in
    let repair_one b =
      if freed b then List.iter (drop b) [ s; q ]
      else
        let mine = read_raw s b in
        let theirs = read_raw q b in
        match (mine, theirs) with
        | Some m, Some th ->
            let c = Int64.compare (seq_of th) (seq_of m) in
            if c > 0 then pull b th
            else if c < 0 then
              (* Our copy is newer (their disk lost a write): push it back. *)
              push b m
            else Hashtbl.replace s.allocated b ()
        | None, Some th ->
            Hashtbl.replace s.allocated b ();
            pull b th
        | Some m, None ->
            (* Their copy is missing or damaged. *)
            push b m
        | None, None ->
            (* Block lost on both sides: drop it. *)
            Hashtbl.remove s.allocated b;
            Hashtbl.remove q.allocated b
    in
    List.iter repair_one (Det.sorted_int_keys candidates);
    (* Both views now agree; intentions are discharged. *)
    add_all s.allocated q.allocated;
    add_all q.allocated s.allocated;
    Hashtbl.reset q.intentions;
    Hashtbl.reset s.intentions;
    s.recovered <- true;
    if Trace.enabled t.trace then
      Trace.point t.trace (Trace.Crash { component = component_name i; what = "recover" });
    Ok !repaired
  end

let verify_companion_invariant t =
  let a = t.servers.(0) and b = t.servers.(1) in
  let union = Hashtbl.copy a.allocated in
  add_all union b.allocated;
  let violation = ref None in
  let check blk =
    if !violation = None then begin
      let ra = read_raw a blk in
      let rb = read_raw b blk in
      match (ra, rb) with
      | Some sa, Some sb when seq_of sa = seq_of sb && not (Image.equal sa.Disk.image sb.Disk.image)
        ->
          violation :=
            Some (Printf.sprintf "block %d: equal seq %Ld, different payloads" blk (seq_of sa))
      | _ -> ()
    end
  in
  List.iter check (Det.sorted_int_keys union);
  match !violation with None -> Ok () | Some msg -> Error msg
