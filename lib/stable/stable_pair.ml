module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module Wire = Afs_util.Wire
module Xrng = Afs_util.Xrng
module Det = Afs_util.Det

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

type 'a outcome = { result : ('a, error) result; cost_ms : float }

(* One network hop between companions, in simulated milliseconds. *)
let hop_ms = 2.0

type server = {
  disk : Disk.t;
  (* This server's view of the allocation state. Views can diverge while a
     companion is down and are reconciled by [restart]. *)
  allocated : (int, unit) Hashtbl.t;
  tentative : (int, unit) Hashtbl.t;
  (* Blocks written while the companion was down, to replay at recovery. *)
  intentions : (int, unit) Hashtbl.t;
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

let envelope_overhead = 32 (* magic + seq + crc + varints, rounded up *)

let create ?(seed = 0x57AB1E) ?(media = Media.magnetic) ?(trace = Trace.null) ~blocks
    ~block_size () =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Stable_pair.create: sizes";
  let disk_block_size = block_size + envelope_overhead in
  let server () = make_server ~trace ~media ~blocks ~block_size:disk_block_size in
  { servers = [| server (); server () |]; rng = Xrng.create seed; block_size; blocks; trace }

let leg t ~leg ~server ~block ~cost_ms =
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Stable_leg { leg; server; block; cost_ms })

let block_size t = t.block_size
let disk t i = t.servers.(i).disk
let companion i = 1 - i
let online t i = t.servers.(i).up && t.servers.(i).recovered

let some_online t = if online t 0 then Some 0 else if online t 1 then Some 1 else None

let ok ?(cost = 0.0) v = { result = Ok v; cost_ms = cost }
let fail ?(cost = 0.0) e = { result = Error e; cost_ms = cost }

(* {2 Envelopes: magic, seq, sized payload, then a CRC of all of it} *)

let magic = 0x5AB1

(* One exact-size buffer per envelope. The trailing CRC covers every byte
   before it, the sequence number included: a flipped seq bit must fail
   the read, or compare-notes would trust the damaged copy as newer. *)
let seal seq payload =
  let len = Bytes.length payload in
  let body = 10 + Wire.varint_size len + len in
  let image = Bytes.create (body + 4) in
  Bytes.set_uint16_le image 0 magic;
  Bytes.set_int64_le image 2 seq;
  let pos = Wire.set_varint image 10 len in
  Bytes.blit payload 0 image pos len;
  Bytes.set_int32_le image body (Int32.of_int (Wire.crc32_sub image 0 body));
  image

let unseal image =
  match
    let r = Wire.Reader.of_bytes image in
    let m = Wire.Reader.u16 r in
    let seq = Wire.Reader.u64 r in
    let payload = Wire.Reader.sized_bytes r in
    let crc = Wire.Reader.u32 r in
    Wire.Reader.expect_end r;
    if m <> magic then Error "bad magic"
    else if Wire.crc32_sub image 0 (Bytes.length image - 4) <> crc then Error "bad crc"
    else Ok (seq, payload)
  with
  | result -> result
  | exception Wire.Decode_error msg -> Error msg

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
  | Error e -> fail e
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
      | None -> fail No_free_blocks
      | Some b ->
          Hashtbl.replace s.tentative b ();
          ok b)

let abort_tentative t i b = Hashtbl.remove t.servers.(i).tentative b

(* The companion leg. Returns the sealed image with its sequence number:
   the local leg writes that same image, so a stable write seals once. *)
let shadow_leg t ~primary ~fresh b payload =
  let q = companion primary in
  match check_serving t q with
  | Error e -> fail e
  | Ok s ->
      (* Collision check: the companion knows its own allocations and
         tentative choices. A shadow write for a block the companion has
         itself handed out (to a different allocation) is a collision,
         caught before either primary copy is written. *)
      if Hashtbl.mem s.tentative b || (fresh && Hashtbl.mem s.allocated b) then
        fail ~cost:hop_ms (Collision b)
      else begin
        let seq = next_seq t q in
        let image = seal seq payload in
        let { Disk.result; cost_ms } = Disk.write s.disk b image in
        let cost = hop_ms +. cost_ms in
        match result with
        | Error e -> fail ~cost (Disk_error e)
        | Ok () ->
            Hashtbl.replace s.allocated b ();
            leg t ~leg:"shadow" ~server:q ~block:b ~cost_ms:cost;
            ok ~cost (seq, image)
      end

let shadow_write t ~primary ~fresh b payload =
  let o = shadow_leg t ~primary ~fresh b payload in
  { o with result = Result.map fst o.result }

(* The disk write of an already sealed image, without the serving check:
   recovery uses this while the server is still marked unrecovered. *)
let raw_local_write t i b image seq =
  let s = t.servers.(i) in
  note_seq t i seq;
  let { Disk.result; cost_ms } = Disk.write s.disk b image in
  match result with
  | Error e -> fail ~cost:cost_ms (Disk_error e)
  | Ok () ->
      Hashtbl.remove s.tentative b;
      Hashtbl.replace s.allocated b ();
      leg t ~leg:"local" ~server:i ~block:b ~cost_ms;
      ok ~cost:cost_ms ()

let local_write_seq t i b payload seq =
  match check_serving t i with
  | Error e -> fail e
  | Ok _ -> raw_local_write t i b (seal seq payload) seq

let local_write t i b payload =
  let seq = next_seq t i in
  local_write_seq t i b payload seq

(* {2 Composite operations} *)

(* A block this server holds only tentatively is fresh: its first write
   is its allocation (§4), so the companion checks it for a collision. *)
let write t i b payload =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if not (is_taken s b) then fail (Not_allocated b)
      else begin
        let q = companion i in
        if online t q then
          match shadow_leg t ~primary:i ~fresh:(not (Hashtbl.mem s.allocated b)) b payload with
          | { result = Error e; cost_ms } -> fail ~cost:cost_ms e
          | { result = Ok (seq, image); cost_ms = shadow_cost } -> (
              match raw_local_write t i b image seq with
              | { result = Ok (); cost_ms } -> ok ~cost:(shadow_cost +. cost_ms) ()
              | { result = Error e; cost_ms } -> fail ~cost:(shadow_cost +. cost_ms) e)
        else begin
          (* Companion down: write locally, leave an intention so the
             companion restores this block when it comes back. *)
          Hashtbl.replace s.intentions b ();
          match local_write t i b payload with
          | { result = Ok (); cost_ms } -> ok ~cost:cost_ms ()
          | { result = Error e; cost_ms } -> fail ~cost:cost_ms e
        end
      end

(* Amortised §4 write for a group-commit batch: every block rides one
   A→B→A round trip, so the companion hop is paid once for the whole
   batch instead of once per block. Each block must be allocated or held
   tentatively by this server, which a fresh block's write allocates.
   Leg 1 first checks every block for a collision, as a single write's
   shadow leg does, so a collision fails the batch with nothing written.
   The companion copy of every block is then written before any local
   copy, and the writes stop at the first failure, so a crash mid-batch
   leaves each block either fully stable, companion-only (repaired
   forward at restart, exactly as for a single write interrupted between
   legs) or untouched — never torn. *)
let write_batch t i entries =
  match entries with
  | [] -> ok ()
  | _ -> (
      match check_serving t i with
      | Error e -> fail e
      | Ok s -> (
          match List.find_opt (fun (b, _) -> not (is_taken s b)) entries with
          | Some (b, _) -> fail (Not_allocated b)
          | None ->
              let q = companion i in
              if not (online t q) then begin
                (* Companion down: local writes plus intentions, exactly as
                   [write] — there is no hop to amortise. *)
                let rec go cost = function
                  | [] -> ok ~cost ()
                  | (b, payload) :: rest -> (
                      Hashtbl.replace s.intentions b ();
                      match local_write t i b payload with
                      | { result = Ok (); cost_ms } -> go (cost +. cost_ms) rest
                      | { result = Error e; cost_ms } -> fail ~cost:(cost +. cost_ms) e)
                in
                go 0.0 entries
              end
              else begin
                let sq = t.servers.(q) in
                let cost = ref hop_ms in
                let collides (b, _) =
                  Hashtbl.mem sq.tentative b
                  || ((not (Hashtbl.mem s.allocated b)) && Hashtbl.mem sq.allocated b)
                in
                (* Leg 1 (A→B): the companion seals and writes every block. *)
                let rec shadows acc = function
                  | [] -> Ok (List.rev acc)
                  | (b, payload) :: rest -> (
                      let seq = next_seq t q in
                      let image = seal seq payload in
                      let { Disk.result; cost_ms } = Disk.write sq.disk b image in
                      cost := !cost +. cost_ms;
                      match result with
                      | Error e -> Error (Disk_error e)
                      | Ok () ->
                          Hashtbl.replace sq.allocated b ();
                          leg t ~leg:"shadow" ~server:q ~block:b ~cost_ms;
                          shadows ((b, image, seq) :: acc) rest)
                in
                (* Leg 2 (B→A): the companion's images, written locally. *)
                let rec locals = function
                  | [] -> Ok ()
                  | (b, image, seq) :: rest -> (
                      match raw_local_write t i b image seq with
                      | { result = Ok (); cost_ms } ->
                          cost := !cost +. cost_ms;
                          locals rest
                      | { result = Error e; cost_ms } ->
                          cost := !cost +. cost_ms;
                          Error e)
                in
                match List.find_opt collides entries with
                | Some (b, _) -> fail ~cost:!cost (Collision b)
                | None -> (
                    match shadows [] entries with
                    | Error e -> fail ~cost:!cost e
                    | Ok sealed -> (
                        match locals sealed with
                        | Ok () -> ok ~cost:!cost ()
                        | Error e -> fail ~cost:!cost e))
              end))

let max_allocate_retries = 16

let allocate_write t i payload =
  let rec attempt n cost_acc =
    if n = 0 then fail ~cost:cost_acc No_free_blocks
    else
      match tentative_allocate t i with
      | { result = Error e; cost_ms } -> fail ~cost:(cost_acc +. cost_ms) e
      | { result = Ok b; cost_ms = alloc_cost } -> (
          match write t i b payload with
          | { result = Ok (); cost_ms } -> ok ~cost:(cost_acc +. alloc_cost +. cost_ms) b
          | { result = Error (Collision _); cost_ms } ->
              abort_tentative t i b;
              (* "Redo the operation after a random wait interval." *)
              let backoff = Xrng.float t.rng 5.0 in
              attempt (n - 1) (cost_acc +. alloc_cost +. cost_ms +. backoff)
          | { result = Error e; cost_ms } ->
              abort_tentative t i b;
              fail ~cost:(cost_acc +. alloc_cost +. cost_ms) e)
  in
  attempt max_allocate_retries 0.0

let read_raw s b =
  let { Disk.result; cost_ms } = Disk.read s.disk b in
  match result with
  | Error e -> (Error (`Disk e), cost_ms)
  | Ok image -> (
      match unseal image with
      | Error m -> (Error (`Corrupt m), cost_ms)
      | Ok (seq, payload) -> (Ok (seq, payload, image), cost_ms))

let read t i b =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if not (Hashtbl.mem s.allocated b) then fail (Not_allocated b)
      else begin
        match read_raw s b with
        | Ok (_, payload, _), cost -> ok ~cost payload
        | (Error _ as _local_failure), local_cost ->
            (* Fall back to the companion, repairing the local copy with
               the companion's verified image. *)
            let q = companion i in
            if not (online t q) then fail ~cost:local_cost (Corrupt_both b)
            else begin
              match read_raw t.servers.(q) b with
              | Ok (seq, payload, image), remote_cost ->
                  leg t ~leg:"companion_read" ~server:q ~block:b
                    ~cost_ms:(hop_ms +. remote_cost);
                  let repair = raw_local_write t i b image seq in
                  leg t ~leg:"repair" ~server:i ~block:b ~cost_ms:repair.cost_ms;
                  let cost = local_cost +. hop_ms +. remote_cost +. repair.cost_ms in
                  ok ~cost payload
              | Error _, remote_cost ->
                  fail ~cost:(local_cost +. hop_ms +. remote_cost) (Corrupt_both b)
            end
      end

let free t i b =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if not (Hashtbl.mem s.allocated b) then
        if Hashtbl.mem s.tentative b then begin
          (* Never written: nothing on either disk but the reservation. *)
          Hashtbl.remove s.tentative b;
          ok ()
        end
        else fail (Not_allocated b)
      else begin
        Hashtbl.remove s.allocated b;
        let _ = Disk.erase s.disk b in
        let q = companion i in
        if online t q then begin
          Hashtbl.remove t.servers.(q).allocated b;
          let _ = Disk.erase t.servers.(q).disk b in
          ok ~cost:hop_ms ()
        end
        else begin
          Hashtbl.replace s.intentions b ();
          ok ()
        end
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
    ok 0
  end
  else begin
    (* Compare notes: the union of both allocation views, resolved block by
       block in favour of the copy with the higher sequence number. The
       companion's intentions list is a cheap summary, but after a wipe the
       full union is what restores the disk, so we always walk the union. *)
    let candidates = Hashtbl.create 256 in
    Det.iter_sorted (fun b () -> Hashtbl.replace candidates b ()) s.allocated;
    Det.iter_sorted (fun b () -> Hashtbl.replace candidates b ()) q.allocated;
    Det.iter_sorted (fun b () -> Hashtbl.replace candidates b ()) q.intentions;
    let repaired = ref 0 in
    let cost = ref hop_ms in
    (* A repair copies the winning side's verified image as it is. *)
    let repair_one b () =
      let mine, my_cost = read_raw s b in
      let theirs, their_cost = read_raw q b in
      cost := !cost +. my_cost +. their_cost;
      match (mine, theirs) with
      | Ok (my_seq, _, _), Ok (their_seq, _, image) when their_seq > my_seq ->
          let r = raw_local_write t i b image their_seq in
          cost := !cost +. r.cost_ms;
          incr repaired
      | Ok (my_seq, _, image), Ok (their_seq, _, _) when my_seq > their_seq ->
          (* Our copy is newer (their disk lost a write): push it back. *)
          let w = Disk.write q.disk b image in
          note_seq t q_id my_seq;
          cost := !cost +. w.Disk.cost_ms;
          incr repaired
      | Ok _, Ok _ -> Hashtbl.replace s.allocated b ()
      | Error _, Ok (their_seq, _, image) ->
          let r = raw_local_write t i b image their_seq in
          cost := !cost +. r.cost_ms;
          Hashtbl.replace s.allocated b ();
          incr repaired
      | Ok (my_seq, _, image), Error _ ->
          (* Their copy is missing or damaged. Their counter must pass our
             seq too, or their next write of this block could carry a seq
             no higher than the one we just pushed. *)
          let w = Disk.write q.disk b image in
          note_seq t q_id my_seq;
          Hashtbl.replace q.allocated b ();
          cost := !cost +. w.Disk.cost_ms;
          incr repaired
      | Error _, Error _ ->
          (* Block lost on both sides (e.g. freed concurrently): drop it. *)
          Hashtbl.remove s.allocated b;
          Hashtbl.remove q.allocated b
    in
    Det.iter_sorted repair_one candidates;
    (* Both views now agree; intentions are discharged. *)
    Det.iter_sorted (fun b () -> Hashtbl.replace s.allocated b ()) q.allocated;
    Det.iter_sorted (fun b () -> Hashtbl.replace q.allocated b ()) s.allocated;
    Hashtbl.reset q.intentions;
    Hashtbl.reset s.intentions;
    s.recovered <- true;
    if Trace.enabled t.trace then
      Trace.point t.trace (Trace.Crash { component = component_name i; what = "recover" });
    ok ~cost:!cost !repaired
  end

let verify_companion_invariant t =
  let a = t.servers.(0) and b = t.servers.(1) in
  let union = Hashtbl.create 256 in
  Det.iter_sorted (fun blk () -> Hashtbl.replace union blk ()) a.allocated;
  Det.iter_sorted (fun blk () -> Hashtbl.replace union blk ()) b.allocated;
  let violation = ref None in
  let check blk () =
    if !violation = None then begin
      let ra, _ = read_raw a blk and rb, _ = read_raw b blk in
      match (ra, rb) with
      | Ok (sa, pa, _), Ok (sb, pb, _) when sa = sb && not (Bytes.equal pa pb) ->
          violation := Some (Printf.sprintf "block %d: equal seq %Ld, different payloads" blk sa)
      | _ -> ()
    end
  in
  Det.iter_sorted check union;
  match !violation with None -> Ok () | Some msg -> Error msg
