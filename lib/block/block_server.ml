module Disk = Afs_disk.Disk

type account = int

type error =
  | No_free_blocks
  | Not_allocated of int
  | Not_owner of { block : int; owner : account; caller : account }
  | Locked of { block : int; holder : account }
  | Not_locked of int
  | Disk_error of Disk.error

let pp_error ppf = function
  | No_free_blocks -> Fmt.string ppf "no free blocks"
  | Not_allocated b -> Fmt.pf ppf "block %d not allocated" b
  | Not_owner { block; owner; caller } ->
      Fmt.pf ppf "block %d owned by account %d, not %d" block owner caller
  | Locked { block; holder } -> Fmt.pf ppf "block %d locked by account %d" block holder
  | Not_locked b -> Fmt.pf ppf "block %d not locked" b
  | Disk_error e -> Disk.pp_error ppf e

(* The server's own CPU/queueing cost per request, on top of disk time. *)
let request_overhead_ms = 0.1

module Trace = Afs_trace.Trace

type t = {
  disk : Disk.t;
  owners : (int, account) Hashtbl.t;
  locks : (int, account) Hashtbl.t;
  mutable next_hint : int;
  mutable requests : int;
  trace : Trace.t;
}

let create ?(trace = Trace.null) ~disk () =
  let owners = Hashtbl.create 1024 and locks = Hashtbl.create 64 in
  { disk; owners; locks; next_hint = 0; requests = 0; trace }

let disk t = t.disk
let block_size t = Disk.block_size t.disk
let allocated_blocks t = Hashtbl.length t.owners

(* The server's clock: its disk's busy time plus the overhead of every
   request it has taken, failed ones included. *)
let busy_ms t = Disk.busy_ms t.disk +. (float_of_int t.requests *. request_overhead_ms)

let request t = t.requests <- t.requests + 1

(* A block is free when no account owns it and it holds nothing: a
   freed block on write-once media keeps its bytes, and its space is
   spent. *)
let is_free t b = not (Hashtbl.mem t.owners b || Disk.is_written t.disk b)

let find_free t =
  let n = Disk.block_count t.disk in
  let rec scan tried b =
    if tried >= n then None
    else if is_free t b then Some b
    else scan (tried + 1) ((b + 1) mod n)
  in
  scan 0 t.next_hint

let allocate t account =
  request t;
  match find_free t with
  | None -> Error No_free_blocks
  | Some b ->
      Hashtbl.replace t.owners b account;
      t.next_hint <- (b + 1) mod Disk.block_count t.disk;
      Ok b

let check_owner t account b =
  match Hashtbl.find_opt t.owners b with
  | None -> Error (Not_allocated b)
  | Some owner when owner <> account -> Error (Not_owner { block = b; owner; caller = account })
  | Some _ -> Ok ()

let check_lock t account b =
  match Hashtbl.find_opt t.locks b with
  | Some holder when holder <> account -> Error (Locked { block = b; holder })
  | _ -> Ok ()

let ( let* ) = Result.bind
let of_disk r = Result.map_error (fun e -> Disk_error e) r

let deallocate t account b =
  request t;
  let* () = check_owner t account b in
  let* () = check_lock t account b in
  (* Erase is refused on write-once media: the block stays unreferenced
     there, as §6 expects for optical stores, and [is_free] keeps its
     spent space out of the pool. *)
  match Disk.erase t.disk b with
  | Error Disk.Offline -> Error (Disk_error Disk.Offline)
  | Ok () | Error _ ->
      Hashtbl.remove t.owners b;
      Hashtbl.remove t.locks b;
      Ok ()

let read t account b =
  request t;
  let* () = check_owner t account b in
  Result.map (fun s -> s.Disk.image) (of_disk (Disk.read_sector t.disk b))

let write t account b data =
  request t;
  let* () = check_owner t account b in
  let* () = check_lock t account b in
  of_disk (Disk.write t.disk b (Bytes.unsafe_to_string data))

let lock t account b =
  request t;
  let note won =
    if Trace.enabled t.trace then Trace.point t.trace (Trace.Block_lock { block = b; won })
  in
  let* () = check_owner t account b in
  match Hashtbl.find_opt t.locks b with
  | Some holder when holder <> account ->
      note false;
      Error (Locked { block = b; holder })
  | Some _ ->
      note true;
      Ok () (* Re-entrant for the same account. *)
  | None ->
      Hashtbl.replace t.locks b account;
      note true;
      Ok ()

let unlock t account b =
  request t;
  match Hashtbl.find_opt t.locks b with
  | None -> Error (Not_locked b)
  | Some holder when holder <> account -> Error (Locked { block = b; holder })
  | Some _ ->
      Hashtbl.remove t.locks b;
      Ok ()

let owned_blocks t account =
  Hashtbl.fold (fun b owner acc -> if owner = account then b :: acc else acc) t.owners []
  |> List.sort Int.compare
