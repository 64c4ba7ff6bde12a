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

type 'a outcome = { result : ('a, error) result; cost_ms : float }

(* The server's own CPU/queueing cost per request, on top of disk time. *)
let request_overhead_ms = 0.1

module Trace = Afs_trace.Trace

type t = {
  disk : Disk.t;
  owners : (int, account) Hashtbl.t;
  locks : (int, account) Hashtbl.t;
  mutable free_count : int;
  mutable next_hint : int;
  trace : Trace.t;
}

let create ?(trace = Trace.null) ~disk () =
  {
    disk;
    owners = Hashtbl.create 1024;
    locks = Hashtbl.create 64;
    free_count = Disk.block_count disk;
    next_hint = 0;
    trace;
  }

let disk t = t.disk
let block_size t = Disk.block_size t.disk
let allocated_blocks t = Hashtbl.length t.owners

let ok ?(cost = request_overhead_ms) v = { result = Ok v; cost_ms = cost }
let fail ?(cost = request_overhead_ms) e = { result = Error e; cost_ms = cost }

let is_free t b = not (Hashtbl.mem t.owners b)

let find_free t =
  let n = Disk.block_count t.disk in
  let rec scan tried b =
    if tried >= n then None
    else if is_free t b then Some b
    else scan (tried + 1) ((b + 1) mod n)
  in
  scan 0 t.next_hint

let allocate t account =
  if t.free_count = 0 then fail No_free_blocks
  else
    match find_free t with
    | None -> fail No_free_blocks
    | Some b ->
        Hashtbl.replace t.owners b account;
        t.free_count <- t.free_count - 1;
        t.next_hint <- (b + 1) mod Disk.block_count t.disk;
        ok b

let check_owner t account b =
  match Hashtbl.find_opt t.owners b with
  | None -> Error (Not_allocated b)
  | Some owner when owner <> account -> Error (Not_owner { block = b; owner; caller = account })
  | Some _ -> Ok ()

let check_lock t account b =
  match Hashtbl.find_opt t.locks b with
  | Some holder when holder <> account -> Error (Locked { block = b; holder })
  | _ -> Ok ()

let deallocate t account b =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match check_lock t account b with
      | Error e -> fail e
      | Ok () ->
          Hashtbl.remove t.owners b;
          Hashtbl.remove t.locks b;
          t.free_count <- t.free_count + 1;
          (* Erase is refused on write-once media; the block simply stays
             unreferenced there, as §6 expects for optical stores. *)
          let _ = Disk.erase t.disk b in
          ok ())

let read t account b =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () ->
      let { Disk.result; cost_ms } = Disk.read t.disk b in
      let cost = request_overhead_ms +. cost_ms in
      (match result with
      | Ok image -> ok ~cost (Bytes.unsafe_of_string image)
      | Error e -> fail ~cost (Disk_error e))

let write t account b data =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match check_lock t account b with
      | Error e -> fail e
      | Ok () ->
          let { Disk.result; cost_ms } = Disk.write t.disk b (Bytes.unsafe_to_string data) in
          let cost = request_overhead_ms +. cost_ms in
          (match result with
          | Ok () -> ok ~cost ()
          | Error e -> fail ~cost (Disk_error e)))

let lock t account b =
  let note won =
    if Trace.enabled t.trace then Trace.point t.trace (Trace.Block_lock { block = b; won })
  in
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match Hashtbl.find_opt t.locks b with
      | Some holder when holder <> account ->
          note false;
          fail (Locked { block = b; holder })
      | Some _ ->
          note true;
          ok () (* Re-entrant for the same account. *)
      | None ->
          Hashtbl.replace t.locks b account;
          note true;
          ok ())

let unlock t account b =
  match Hashtbl.find_opt t.locks b with
  | None -> fail (Not_locked b)
  | Some holder when holder <> account -> fail (Locked { block = b; holder })
  | Some _ ->
      Hashtbl.remove t.locks b;
      ok ()

let owned_blocks t account =
  Hashtbl.fold (fun b owner acc -> if owner = account then b :: acc else acc) t.owners []
  |> List.sort Int.compare
