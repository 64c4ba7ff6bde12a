module Block_server = Afs_block.Block_server
module Stable_pair = Afs_stable.Stable_pair
module Image = Afs_util.Image

type t = {
  block_size : int;
  allocate : unit -> (int, string) result;
  free : int -> (unit, string) result;
  read : int -> (Image.t, string) result;
  write : int -> bytes -> (unit, string) result;
  write_batch : (int * bytes) list -> (unit, string) result;
  lock : int -> bool;
  unlock : int -> unit;
  list_blocks : unit -> (int list, string) result;
}

type op = Alloc of int | Free of int | Write of int * bytes

let apply_op t = function
  | Alloc b -> (
      (* Replaying an allocation must land on the same block number: the
         shipped stream carries absolute block ids, so the applying
         store's allocation frontier has to track the origin's exactly. *)
      match t.allocate () with
      | Ok b' when b' = b -> Ok ()
      | Ok b' -> Error (Printf.sprintf "alloc replay: expected block %d, got %d" b b')
      | Error _ as e -> e)
  | Free b -> t.free b
  | Write (b, data) -> t.write b data

(* Consecutive writes ride one [write_batch] (the stable pair amortises
   its companion hop across them); alloc/free replay one at a time. *)
let apply_ops t ops =
  let flush = function
    | [] -> Ok ()
    | run -> t.write_batch (List.rev run)
  in
  let rec go run = function
    | [] -> flush run
    | Write (b, data) :: rest -> go ((b, data) :: run) rest
    | op :: rest -> (
        match flush run with
        | Error _ as e -> e
        | Ok () -> ( match apply_op t op with Ok () -> go [] rest | Error _ as e -> e))
  in
  go [] ops

(* Default batch write: the single writes in order, stopping at the first
   error so the durable state is always a prefix of the batch. Backends
   with a real amortisation opportunity (the stable pair's companion hop)
   override this. *)
let sequential_batch write entries =
  let rec go = function
    | [] -> Ok ()
    | (b, data) :: rest -> ( match write b data with Ok () -> go rest | Error _ as e -> e)
  in
  go entries

(* The commit-lock facility of every backend that keeps its locks in
   process: a per-block test-and-set, released by [unlock]. *)
let lock_table () =
  let locks : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let lock b =
    if Hashtbl.mem locks b then false
    else begin
      Hashtbl.replace locks b ();
      true
    end
  in
  (lock, fun b -> Hashtbl.remove locks b)

let memory ?(block_size = 32768) () =
  let blocks : (int, Image.t) Hashtbl.t = Hashtbl.create 1024 in
  let allocated : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let lock, unlock = lock_table () in
  let next = ref 0 in
  let write b data =
    if Bytes.length data > block_size then Error "block too large"
    else begin
      Hashtbl.replace allocated b ();
      Hashtbl.replace blocks b (Image.of_bytes data);
      Ok ()
    end
  in
  {
    block_size;
    allocate =
      (fun () ->
        let b = !next in
        incr next;
        Hashtbl.replace allocated b ();
        Ok b);
    free =
      (fun b ->
        Hashtbl.remove blocks b;
        Hashtbl.remove allocated b;
        Ok ());
    read =
      (fun b ->
        match Hashtbl.find blocks b with
        | image -> Ok image
        | exception Not_found -> Error (Printf.sprintf "block %d never written" b));
    write;
    write_batch = sequential_batch write;
    lock;
    unlock;
    list_blocks =
      (fun () -> Ok (Afs_util.Det.sorted_int_keys allocated));
  }

let string_of_block_error = Fmt.str "%a" Block_server.pp_error

let of_block_server server ~account =
  let lift r = Result.map_error string_of_block_error r in
  let write b data = lift (Block_server.write server account b data) in
  {
    block_size = Block_server.block_size server;
    allocate = (fun () -> lift (Block_server.allocate server account));
    free = (fun b -> lift (Block_server.deallocate server account b));
    read = (fun b -> lift (Block_server.read server account b));
    write;
    write_batch = sequential_batch write;
    lock = (fun b -> Result.is_ok (Block_server.lock server account b));
    unlock = (fun b -> ignore (Block_server.unlock server account b));
    list_blocks = (fun () -> Ok (Block_server.owned_blocks server account));
  }

let string_of_stable_error = Fmt.str "%a" Stable_pair.pp_error

let of_stable_pair pair =
  (* Block-server-style locks are not part of the stable pair; the file
     service's commit section still needs mutual exclusion, so we keep it
     here, colocated with the routing. A real deployment would put it in
     the block servers (§5.2: "if the disk server implements a test-and-set
     operation, any server can be allowed to carry out a commit"). *)
  let lock, unlock = lock_table () in
  let allocated : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* Each operation matches on the serving server: no closure per call. *)
  let online () = Stable_pair.some_online pair and offline = Error "no stable server online" in
  let lift r = Result.map_error string_of_stable_error r in
  {
    block_size = Stable_pair.block_size pair;
    allocate =
      (fun () ->
        (* §4: allocation is the block's first write. Only reserve the
           number here; its first write runs the companion's collision
           check. A number this adapter still lists belongs to a holder
           whose reservation a crashed server lost: keep the new claim
           for that holder and choose again. *)
        let rec reserve i =
          match lift (Stable_pair.tentative_allocate pair i) with
          | Ok b when Hashtbl.mem allocated b -> reserve i
          | Ok b ->
              Hashtbl.replace allocated b ();
              Ok b
          | Error _ as e -> e
        in
        match online () with Some i -> reserve i | None -> offline);
    free =
      (fun b ->
        match online () with
        | Some i ->
            Hashtbl.remove allocated b;
            lift (Stable_pair.free pair i b)
        | None -> offline);
    read =
      (fun b -> match online () with Some i -> lift (Stable_pair.read pair i b) | None -> offline);
    write =
      (fun b data ->
        match online () with Some i -> lift (Stable_pair.write pair i b data) | None -> offline);
    (* The whole batch rides one A→B→A round trip: the companion hop is
       charged once however many pages and commit references it carries. *)
    write_batch =
      (fun entries ->
        match online () with
        | Some i -> lift (Stable_pair.write_batch pair i entries)
        | None -> offline);
    lock;
    unlock;
    list_blocks =
      (fun () -> Ok (Afs_util.Det.sorted_int_keys allocated));
  }

type worm_stats = {
  bulk_writes : int;
  bulk_blocks : int;
  index_writes : int;
  index_blocks : int;
}

let worm_hybrid ~blocks ~block_size () =
  let module Disk = Afs_disk.Disk in
  let bulk = Disk.create ~media:Afs_disk.Media.optical ~blocks ~block_size () in
  let index = Disk.create ~media:Afs_disk.Media.magnetic ~blocks ~block_size () in
  let redirected : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let allocated : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let lock, unlock = lock_table () in
  let next = ref 0 in
  let lift_disk r = Result.map_error (Fmt.str "%a" Disk.pp_error) r in
  (* The disks keep the written images, which the ownership rule lets
     both directions pass through uncopied. *)
  let write b data =
    let image = Bytes.unsafe_to_string data in
    if Hashtbl.mem redirected b then lift_disk (Disk.write index b image)
    else if Disk.is_written bulk b then begin
      Hashtbl.replace redirected b ();
      lift_disk (Disk.write index b image)
    end
    else lift_disk (Disk.write bulk b image)
  in
  let store =
    {
      block_size;
      allocate =
        (fun () ->
          let b = !next in
          incr next;
          Hashtbl.replace allocated b ();
          Ok b);
      free =
        (fun b ->
          Hashtbl.remove allocated b;
          (* Bulk space is write-once and stays occupied; index space is
             reclaimable. *)
          if Hashtbl.mem redirected b then begin
            Hashtbl.remove redirected b;
            ignore (Disk.erase index b)
          end;
          Ok ());
      read =
        (fun b ->
          let disk = if Hashtbl.mem redirected b then index else bulk in
          Result.map (fun s -> s.Disk.image) (lift_disk (Disk.read_sector disk b)));
      write;
      write_batch = sequential_batch write;
      lock;
      unlock;
      list_blocks =
        (fun () ->
          Ok (Afs_util.Det.sorted_int_keys allocated));
    }
  in
  let stats () =
    let b = Disk.stats bulk and ix = Disk.stats index in
    {
      bulk_writes = b.Disk.writes;
      bulk_blocks = b.Disk.blocks_in_use;
      index_writes = ix.Disk.writes;
      index_blocks = Hashtbl.length redirected;
    }
  in
  (store, stats)

let counting inner =
  let reads = ref 0 and writes = ref 0 in
  ( {
      inner with
      read =
        (fun b ->
          incr reads;
          inner.read b);
      write =
        (fun b data ->
          incr writes;
          inner.write b data);
      write_batch =
        (fun entries ->
          writes := !writes + List.length entries;
          inner.write_batch entries);
    },
    fun () -> (!reads, !writes) )
