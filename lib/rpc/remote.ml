module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Server = Afs_core.Server
module Cache = Afs_core.Cache
module Errors = Afs_core.Errors

type request =
  | Create_file of bytes
  | Current_version of Capability.t
  | Create_version of { file : Capability.t; respect_hints : bool; updater_port : int }
  | Read_page of Capability.t * Pagepath.t
  | Write_page of Capability.t * Pagepath.t * bytes
  | Insert_page of { version : Capability.t; parent : Pagepath.t; index : int; data : bytes }
  | Remove_page of { version : Capability.t; parent : Pagepath.t; index : int }
  | Page_info of Capability.t * Pagepath.t
  | Commit of Capability.t
  | Abort_version of Capability.t
  | Destroy_file of Capability.t
  | Validate_cache of { file : Capability.t; basis_block : int }
  (* Cross-shard transaction messages (lib/txn). The first two exist so a
     resolver can see past the cluster wrapper's in-doubt trap: Txn_mark
     reads the file's current root data (marker and all), Txn_open is
     Create_version minus the trap. Prepare/Decide drive the server's
     two-phase-commit baseline. *)
  | Txn_mark of Capability.t
  | Txn_open of { file : Capability.t; reads : Pagepath.t list }
  | Txn_seal of { version : Capability.t; root : bytes; writes : (Pagepath.t * bytes) list }
  | Txn_cas of {
      file : Capability.t;
      expected : bytes;
      root : bytes;
      writes : (Pagepath.t * bytes) list;
    }
  | Prepare of Capability.t
  | Decide of { version : Capability.t; commit : bool }
  (* Replication-plane messages, answered only by a replica host
     (lib/replica); a plain file server rejects them. *)
  | Ship of { epoch : int; seq : int; ops : Afs_core.Store.op list }
  | Promote of { expected_epoch : int }
  | Replica_watermark

type value =
  | Cap of Capability.t
  | Data of bytes
  | Opened of { version : Capability.t; root : bytes; pages : bytes list }
  | Unit
  | Path of Pagepath.t
  | Info of { nrefs : int; dsize : int }
  | Validation of Cache.validation
  | Watermark of { epoch : int; shipped : int; applied : int }

type response = (value, Errors.t) result

(* The fusions' shared steps. A fused request opens its version itself and
   the client never learns its capability, so every error after the open
   must abandon it; aborting a version the commit already removed is a
   harmless no-op. *)
let abandon server version = ignore (Server.abort_version server version : unit Errors.r)

let open_with_root server file =
  Result.bind (Server.create_version server file) (fun version ->
      match Server.read_page server version Pagepath.root with
      | Ok root -> Ok (version, root)
      | Error e ->
          abandon server version;
          Error e)

let seal server version ~root writes =
  let rec write = function
    | [] -> Server.commit server version
    | (path, data) :: rest ->
        Result.bind (Server.write_page server version path data) (fun () -> write rest)
  in
  Result.bind (Server.write_page server version Pagepath.root root) (fun () -> write writes)

let handle server : request -> response = function
  | Create_file data -> Result.map (fun c -> Cap c) (Server.create_file server ~data ())
  | Current_version file -> Result.map (fun c -> Cap c) (Server.current_version server file)
  | Create_version { file; respect_hints; updater_port } ->
      Result.map (fun c -> Cap c) (Server.create_version ~respect_hints ~updater_port server file)
  | Read_page (version, path) ->
      Result.map (fun d -> Data d) (Server.read_page server version path)
  | Write_page (version, path, data) ->
      Result.map (fun () -> Unit) (Server.write_page server version path data)
  | Insert_page { version; parent; index; data } ->
      Result.map (fun p -> Path p) (Server.insert_page server version ~parent ~index ~data ())
  | Remove_page { version; parent; index } ->
      Result.map (fun () -> Unit) (Server.remove_page server version ~parent ~index)
  | Page_info (version, path) ->
      Result.map
        (fun (i : Server.page_info) -> Info { nrefs = i.Server.nrefs; dsize = i.Server.dsize })
        (Server.page_info server version path)
  | Commit version -> Result.map (fun () -> Unit) (Server.commit server version)
  | Abort_version version -> Result.map (fun () -> Unit) (Server.abort_version server version)
  | Destroy_file file -> Result.map (fun () -> Unit) (Server.destroy_file server file)
  | Validate_cache { file; basis_block } ->
      Result.map (fun v -> Validation v) (Cache.server_validate server ~file ~basis_block)
  | Txn_mark file ->
      Result.bind (Server.current_version server file) (fun version ->
          Result.map (fun d -> Data d) (Server.read_page server version Pagepath.root))
  | Txn_open { file; reads } ->
      (* One message opens the version, reads its root AND the listed
         pages: every read runs inside the fresh version, so all of them
         land in its read set and any conflicting committed update
         collides with the caller's seal — same fences as separate
         calls, a fraction of the round trips. *)
      Result.bind (open_with_root server file) (fun (version, root) ->
          let rec fetch acc = function
            | [] -> Ok (Opened { version; root; pages = List.rev acc })
            | path :: rest -> (
                match Server.read_page server version path with
                | Ok data -> fetch (data :: acc) rest
                | Error e ->
                    abandon server version;
                    Error e)
          in
          fetch [] reads)
  | Txn_seal { version; root; writes } ->
      (* The counterpart: root write, staged page writes and the ordinary
         optimistic commit in a single message. Pure batching — the
         validation semantics are exactly those of the individual calls.
         The client holds this version, so abandoning it is the client's
         call. *)
      Result.map (fun () -> Unit) (seal server version ~root writes)
  | Txn_cas { file; expected; root; writes } ->
      (* Open-read-compare-seal as one message: a whole root test-and-set
         in a single round trip. Still an ordinary optimistic commit with
         its ordinary flag map — only the comparison is new, and on
         mismatch the caller gets the current root back in the same
         breath, so losing the race costs no extra message. *)
      Result.bind (open_with_root server file) (fun (version, current) ->
          if not (Bytes.equal current expected) then begin
            abandon server version;
            Ok (Data current)
          end
          else
            match seal server version ~root writes with
            | Ok () -> Ok Unit
            | Error e ->
                abandon server version;
                Error e)
  | Prepare version -> Result.map (fun () -> Unit) (Server.prepare server version)
  | Decide { version; commit = decision } ->
      Result.map (fun () -> Unit) (Server.decide server version ~commit:decision)
  | Ship _ | Promote _ | Replica_watermark ->
      Error (Errors.Store_failure "rpc: not a replica")

let request_kind : request -> string = function
  | Create_file _ -> "create_file"
  | Current_version _ -> "current_version"
  | Create_version _ -> "create_version"
  | Read_page _ -> "read_page"
  | Write_page _ -> "write_page"
  | Insert_page _ -> "insert_page"
  | Remove_page _ -> "remove_page"
  | Page_info _ -> "page_info"
  | Commit _ -> "commit"
  | Abort_version _ -> "abort_version"
  | Destroy_file _ -> "destroy_file"
  | Validate_cache _ -> "validate_cache"
  | Txn_mark _ -> "txn_mark"
  | Txn_open _ -> "txn_open"
  | Txn_seal _ -> "txn_seal"
  | Txn_cas _ -> "txn_cas"
  | Prepare _ -> "prepare"
  | Decide _ -> "decide"
  | Ship _ -> "ship"
  | Promote _ -> "promote"
  | Replica_watermark -> "replica_watermark"

type host = { rpc : (request, response) Rpc.t; server : Server.t }

let host ?latency_ms ?proc_ms ?disks ?wrap ?(group_commit = 1) engine ~name server =
  if group_commit < 1 then invalid_arg "Remote.host: group_commit must be >= 1";
  let handler =
    match wrap with None -> handle server | Some w -> w (handle server)
  in
  (* The group-commit window turns into an RPC batcher: queued Commit
     requests drain together and run through one [Server.commit_batch]
     pipeline, paying the request overheads and the stable-storage
     publish leg once per batch. Commit carries its own capability, so it
     needs none of [wrap]'s routing checks (shard wrappers pass it through
     untouched). *)
  let batching =
    if group_commit = 1 then None
    else
      Some
        {
          Rpc.window = group_commit;
          batchable = (function Commit _ -> true | _ -> false);
          handle_batch =
            (fun reqs ->
              let caps =
                List.filter_map (function Commit cap -> Some cap | _ -> None) reqs
              in
              List.map
                (fun r -> Result.map (fun () -> Unit) r)
                (Server.commit_batch server caps));
        }
  in
  {
    rpc =
      Rpc.serve ?latency_ms ?proc_ms ?disks ?batching ~describe:request_kind engine ~name
        ~handler;
    server;
  }

let crash_host h =
  Rpc.crash h.rpc;
  Server.crash h.server

let restart_host h = Rpc.restart h.rpc
let host_server h = h.server
let host_up h = Rpc.is_up h.rpc

type conn = { hosts : host array; balance : bool; mutable preferred : int }

let connect ?(balance = false) hosts =
  if hosts = [] then invalid_arg "Remote.connect: no hosts";
  { hosts = Array.of_list hosts; balance; preferred = 0 }

(* Without [balance], requests start from the last host that answered
   (sticky failover: a client that timed out on its primary does not pay
   that timeout again on every subsequent request). With it, transactions
   rotate across live hosts — "several servers can serve the same store",
   any of which may carry out any commit (§5.2) — but only at version
   boundaries: a version's operations stay with its managing server, whose
   write-back cache holds the uncommitted pages until the commit-time
   flush. *)
let rotates_boundary = function
  | Create_file _ | Create_version _ | Current_version _ | Txn_mark _ | Txn_open _
  | Txn_cas _ ->
      true
  | Read_page _ | Write_page _ | Insert_page _ | Remove_page _ | Page_info _ | Commit _
  | Abort_version _ | Destroy_file _ | Validate_cache _ | Txn_seal _ | Prepare _
  | Decide _ | Ship _ | Promote _ | Replica_watermark ->
      false

let call conn req =
  let n = Array.length conn.hosts in
  let start =
    if conn.balance && rotates_boundary req then begin
      conn.preferred <- (conn.preferred + 1) mod n;
      conn.preferred
    end
    else conn.preferred
  in
  let rec try_hosts attempt =
    if attempt >= n then Error (Errors.Store_failure "rpc: no server responded")
    else begin
      let idx = (start + attempt) mod n in
      match Rpc.call conn.hosts.(idx).rpc req with
      | Ok response ->
          conn.preferred <- idx;
          response
      | Error (Rpc.Timeout | Rpc.Server_crashed) -> try_hosts (attempt + 1)
    end
  in
  try_hosts 0

let type_error = Error (Errors.Store_failure "rpc: response type mismatch")

let as_cap = function Ok (Cap c) -> Ok c | Ok _ -> type_error | Error e -> Error e
let as_data = function Ok (Data d) -> Ok d | Ok _ -> type_error | Error e -> Error e
let as_unit = function Ok Unit -> Ok () | Ok _ -> type_error | Error e -> Error e
let as_path = function Ok (Path p) -> Ok p | Ok _ -> type_error | Error e -> Error e

let as_validation = function
  | Ok (Validation v) -> Ok v
  | Ok _ -> type_error
  | Error e -> Error e

let create_file conn data = as_cap (call conn (Create_file data))
let current_version conn file = as_cap (call conn (Current_version file))

let create_version ?(respect_hints = false) ?(updater_port = 0) conn file =
  as_cap (call conn (Create_version { file; respect_hints; updater_port }))

let read_page conn version path = as_data (call conn (Read_page (version, path)))
let write_page conn version path data = as_unit (call conn (Write_page (version, path, data)))

let insert_page conn version ~parent ~index ~data =
  as_path (call conn (Insert_page { version; parent; index; data }))

let remove_page conn version ~parent ~index =
  as_unit (call conn (Remove_page { version; parent; index }))

let page_info conn version path =
  match call conn (Page_info (version, path)) with
  | Ok (Info { nrefs; dsize }) -> Ok (nrefs, dsize)
  | Ok _ -> type_error
  | Error e -> Error e

let commit conn version = as_unit (call conn (Commit version))
let abort_version conn version = as_unit (call conn (Abort_version version))
let destroy_file conn file = as_unit (call conn (Destroy_file file))

let validate_cache conn ~file ~basis_block =
  as_validation (call conn (Validate_cache { file; basis_block }))

let txn_mark conn file = as_data (call conn (Txn_mark file))

let txn_open ?(reads = []) conn file =
  match call conn (Txn_open { file; reads }) with
  | Ok (Opened { version; root; pages }) -> Ok (version, root, pages)
  | Ok _ -> type_error
  | Error e -> Error e

let txn_seal conn version ~root writes = as_unit (call conn (Txn_seal { version; root; writes }))

let txn_cas conn file ~expected ~root writes =
  match call conn (Txn_cas { file; expected; root; writes }) with
  | Ok Unit -> Ok `Swapped
  | Ok (Data current) -> Ok (`Mismatch current)
  | Ok _ -> type_error
  | Error e -> Error e
let prepare conn version = as_unit (call conn (Prepare version))
let decide conn version ~commit = as_unit (call conn (Decide { version; commit }))
