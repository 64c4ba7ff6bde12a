module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Server = Afs_core.Server
module Errors = Afs_core.Errors

(* A batch is a short program of existing calls, run against one version
   inside one handler event (lib/txn's coordinator is its client). *)
type target = Open of Capability.t | Current of Capability.t | Version of Capability.t

type step =
  | Read of Pagepath.t
  | Write of Pagepath.t * bytes
  | Insert of { parent : Pagepath.t; index : int; data : bytes }
  | Remove of { parent : Pagepath.t; index : int }
  | Info of Pagepath.t
  | Commit
  | Abort
  | Redo of Capability.t * Pagepath.t list
  | Swap of { file : Capability.t; expected : bytes; writes : (Pagepath.t * bytes) list }

type request =
  | Create_file of bytes
  | Destroy_file of Capability.t
  | Batch of { target : target; steps : step list }
  | Await of { file : Capability.t; until : bytes list; budget_ms : float }
  (* Prepare/Decide drive the two-phase-commit baseline. *)
  | Prepare of Capability.t
  | Decide of { version : Capability.t; commit : bool }

type batch_answer =
  | Ran of { version : Capability.t; reads : bytes list; infos : (int * int) list }
  | Guard_failed of bytes
  | Reopened of { version : Capability.t; reads : bytes list }
  | Marked of bytes

type value =
  | Cap of Capability.t
  | Data of bytes
  | Batched of batch_answer
  | Unit

type response = (value, Errors.t) result

let message_cap = 32_768

let too_large bytes = Error (Errors.Message_too_large { bytes; limit = message_cap })

(* A [Swap] step: on a fresh version of [file], iff the root is
   [expected], apply [writes] and commit; otherwise answer the root.
   Either way no version of it is left open. Like [run_steps], it
   matches rather than binds, so it allocates its answer and no
   closure. *)
let rec swap_writes server version = function
  | [] -> Server.commit server version
  | (path, data) :: rest -> (
      match Server.write_page server version path data with
      | Ok () -> swap_writes server version rest
      | Error _ as e -> e)

let swap server file ~expected writes =
  match Server.create_version server file with
  | Error e -> Error e
  | Ok version ->
      let swapped =
        match Server.read_page server version Pagepath.root with
        | Error e -> Error e
        | Ok root when not (Bytes.equal root expected) -> Ok (Some root)
        | Ok _ -> (
            match swap_writes server version writes with Ok () -> Ok None | Error e -> Error e)
      in
      (match swapped with
      | Ok None -> ()
      | Ok (Some _) | Error _ -> ignore (Server.abort_version server version : unit Errors.r));
      swapped

let step_bytes = function
  | Write (_, data) -> Bytes.length data
  | Swap { writes; _ } -> List.fold_left (fun n (_, data) -> n + Bytes.length data) 0 writes
  | Insert { data; _ } -> Bytes.length data
  | Read _ | Remove _ | Info _ | Commit | Abort | Redo _ -> 0

(* Run a batch's steps in order against its version, stopping at the
   first error or failed [Swap]. Each step is the ordinary call with its
   ordinary validation, so a [Current] batch is read-only because the
   server refuses writes to committed versions. The reply so far is
   summed afresh at each read (batches are short), so no step carries a
   running total; a read's data joins the reply uncopied. Every step
   matches rather than binds, so a step allocates its own answer, not a
   closure. A final [Commit] that loses validation hands a trailing
   [Redo] to [reopen], which opens the next attempt. *)
let rec run_steps ~reopen server version reads infos : step list -> batch_answer Errors.r =
  function
  | [] -> Ok (Ran { version; reads = List.rev reads; infos = List.rev infos })
  | Read path :: rest -> (
      match Server.read_page server version path with
      | Error e -> Error e
      | Ok data ->
          let replied = List.fold_left (fun n d -> n + Bytes.length d) (Bytes.length data) reads in
          if replied > message_cap then too_large replied
          else run_steps ~reopen server version (data :: reads) infos rest)
  | Write (path, data) :: rest -> (
      match Server.write_page server version path data with
      | Ok () -> run_steps ~reopen server version reads infos rest
      | Error e -> Error e)
  | Insert { parent; index; data } :: rest -> (
      match Server.insert_page server version ~parent ~index ~data () with
      | Ok _ -> run_steps ~reopen server version reads infos rest
      | Error e -> Error e)
  | Remove { parent; index } :: rest -> (
      match Server.remove_page server version ~parent ~index with
      | Ok () -> run_steps ~reopen server version reads infos rest
      | Error e -> Error e)
  | Info path :: rest -> (
      match Server.page_info server version path with
      | Ok i ->
          run_steps ~reopen server version reads ((i.Server.nrefs, i.Server.dsize) :: infos) rest
      | Error e -> Error e)
  | [ Commit; Redo (file, paths) ] -> (
      match Server.commit server version with
      | Ok () -> run_steps ~reopen server version reads infos []
      | Error Errors.Conflict -> reopen file paths
      | Error e -> Error e)
  | Commit :: rest -> (
      match Server.commit server version with
      | Ok () -> run_steps ~reopen server version reads infos rest
      | Error e -> Error e)
  | Abort :: rest -> (
      match Server.abort_version server version with
      | Ok () -> run_steps ~reopen server version reads infos rest
      | Error e -> Error e)
  | Redo _ :: _ -> Error (Errors.Store_failure "rpc: Redo must follow the final Commit")
  | Swap { file; expected; writes } :: rest -> (
      match swap server file ~expected writes with
      | Ok None -> run_steps ~reopen server version reads infos rest
      | Ok (Some root) -> Ok (Guard_failed root)
      | Error e -> Error e)

(* A batch's version, then its steps. A version the batch opened itself
   must not outlive a failed batch — the client never learns its
   capability — so an error or a failed [Swap] abandons it; aborting a
   version the [Commit] step already removed is a harmless no-op. Both
   messages obey the 32K cap: a request whose write data exceeds it is
   refused before it runs, and a batch stops at the read that takes its
   reply past it. *)
let run_batch ~reopen server target steps =
  let written = List.fold_left (fun n step -> n + step_bytes step) 0 steps in
  if written > message_cap then too_large written
  else
    match
      match target with
      | Open file -> Server.create_version server file
      | Current file -> Server.current_version server file
      | Version version -> Ok version
    with
    | Error e -> Error e
    | Ok version ->
        let answer = run_steps ~reopen server version [] [] steps in
        (match (target, answer) with
        | Open _, (Error _ | Ok (Guard_failed _)) ->
            ignore (Server.abort_version server version : unit Errors.r)
        | _ -> ());
        answer

(* What a redo answers: the reopened version and its reads, or what a
   fresh [Open] batch would have met — a marker's image, or an error,
   except that a reply over
   the cap is a plain [Conflict], the refused batch having abandoned its
   version, so the client's next attempt splits its reads as usual. *)
let reopened : response -> batch_answer Errors.r = function
  | Ok (Batched (Ran { version; reads; _ })) -> Ok (Reopened { version; reads })
  | Ok (Batched (Marked _ as marked)) -> Ok marked
  | Error (Errors.Message_too_large _) -> Error Errors.Conflict
  | Error e -> Error e
  | Ok _ -> Error (Errors.Store_failure "rpc: redo answer mismatch")

(* [parked] holds each prepared run's answer, keyed by the exact
   capability that prepared it. A decision finding none is presumed
   abort: an abort is trivially satisfied, a commit cannot be honoured. *)
let handle ~reopen ~parked server : request -> response = function
  | Create_file data -> Result.map (fun c -> Cap c) (Server.create_file server ~data ())
  | Destroy_file file -> Result.map (fun () -> Unit) (Server.destroy_file server file)
  | Batch { target; steps } ->
      Result.map (fun a -> Batched a) (run_batch ~reopen server target steps)
  | Await { file; _ } -> Result.map (fun d -> Data d) (Server.current_root_data server file)
  | Prepare version ->
      Result.map (fun answer -> Hashtbl.replace parked version answer; Unit)
        (Server.prepare server version)
  | Decide { version; commit } -> (
      match Hashtbl.find_opt parked version with
      | Some answer ->
          Hashtbl.remove parked version;
          Result.map (fun () -> Unit) (answer ~commit)
      | None when commit -> Error (Errors.Store_failure "2pc: version not prepared")
      | None -> Ok Unit)

(* The [op] label of a request in RPC trace events. *)
let request_kind : request -> string = function
  | Create_file _ -> "create_file"
  | Destroy_file _ -> "destroy_file"
  | Batch _ -> "batch"
  | Await _ -> "await"
  | Prepare _ -> "prepare"
  | Decide _ -> "decide"

type host = {
  rpc : (request, response) Rpc.t;
  server : Server.t;
  parked : (Capability.t, commit:bool -> unit Errors.r) Hashtbl.t;  (** Forgotten in a crash. *)
  redos : int ref;  (** Conflicted commits answered with a reopened version. *)
}

(* A request the group-commit batcher takes: a [Version] batch whose
   last step is [Commit], or [Commit] then [Redo] — its version, the
   steps that run before its commit, and its redo, if any. *)
let commit_member = function
  | Batch { target = Version version; steps } ->
      let rec before acc : step list -> _ = function
        | [ Commit ] -> Some (version, List.rev acc, None)
        | [ Commit; Redo (file, paths) ] -> Some (version, List.rev acc, Some (file, paths))
        | [] | Redo _ :: _ -> None
        | step :: rest -> before (step :: acc) rest
      in
      before [] steps
  | _ -> None

(* The OCC loop's commit: a [Version] batch whose steps end
   [Commit; Redo _]. If it loses validation its answer is the client's
   next attempt, so serving it ahead of new openings shortens every
   validation window. Asked of every request on arrival, so it
   allocates nothing. *)
let rec ends_in_redo : step list -> bool = function
  | [ Commit; Redo _ ] -> true
  | [] -> false
  | _ :: rest -> ends_in_redo rest

let carries_redo = function
  | Batch { target = Version _; steps } -> ends_in_redo steps
  | _ -> false

(* Every member's own steps run first, in queue order; a member whose
   steps fail (or whose [Swap] fails) answers alone and leaves the commit
   run. The rest commit in one pipeline run, answering as the same
   requests would one at a time — a member that lost validation with its
   redo, reopened after the run. *)
let group_commit_batch ~reopen server reqs =
  let members =
    List.map
      (fun req ->
        match commit_member req with
        | None -> Error (Error (Errors.Store_failure "rpc: not a commit"))
        | Some (version, steps, redo) -> (
            match run_batch ~reopen server (Version version) steps with
            | Ok (Ran _ as ran) -> Ok (version, redo, Batched ran)
            | Ok (Guard_failed _ | Reopened _ | Marked _) as answered ->
                Error (Result.map (fun a -> Batched a) answered)
            | Error e -> Error (Error e)))
      reqs
  in
  let outcomes =
    Server.commit_batch server
      (List.filter_map (function Ok (version, _, _) -> Some version | Error _ -> None) members)
  in
  snd
    (List.fold_left_map
       (fun outcomes member ->
         match (member, outcomes) with
         | Error answered, _ -> (outcomes, answered)
         | Ok (_, Some (file, paths), _), Error Errors.Conflict :: rest ->
             (rest, Result.map (fun a -> Batched a) (reopen file paths))
         | Ok (_, _, answer), outcome :: rest -> (rest, Result.map (fun () -> answer) outcome)
         | Ok _, [] -> ([], Error (Errors.Store_failure "rpc: commit run lost a member")))
       outcomes members)

(* An [Await] whose file's root is none of [until] is held, and answered
   once a commit changes that root. Rechecks only look again after the
   server has committed something, and read each awaited file's root
   once, however many requests await it. *)
let awaits server =
  let commits () = Afs_util.Stats.Counter.get (Server.counters server) "commits.ok" in
  let last = ref (commits ()) in
  let still _ _ = None in
  {
    Rpc.hold =
      (fun req resp ->
        match (req, resp) with
        | Await { until; budget_ms; _ }, Ok (Data root)
          when budget_ms > 0.0 && not (List.exists (Bytes.equal root) until) ->
            Some budget_ms
        | _ -> None);
    recheck =
      (fun () ->
        let now = commits () in
        if now = !last then still
        else begin
          last := now;
          let roots = ref [] in
          let root_of (file : Capability.t) =
            match List.assoc_opt file.Capability.obj !roots with
            | Some root -> root
            | None ->
                let root = Server.current_root_data server file in
                roots := (file.Capability.obj, root) :: !roots;
                root
          in
          fun req held ->
            match (req, held) with
            | Await { file; _ }, Ok (Data before) -> (
                match root_of file with
                | Ok root when Bytes.equal root before -> None
                | Ok root -> Some (Ok (Data root))
                | Error e -> Some (Error e))
            | _ -> None
        end);
  }

let host ?latency_ms ?proc_ms ?disks ?wrap ?(group_commit = 1) engine ~name server =
  if group_commit < 1 then invalid_arg "Remote.host: group_commit must be >= 1";
  let redos = ref 0 in
  let parked = Hashtbl.create 4 in
  (* A redo is the next attempt's [Open] batch, sent through the same
     wrapped handler a client's would take — so a cluster shard's
     location check traps it exactly like a fresh attempt. *)
  let rec handler =
    lazy
      (let base = handle ~reopen ~parked server in
       match wrap with None -> base | Some w -> w base)
  and reopen file paths =
    let answer =
      reopened
        (Lazy.force handler
           (Batch
              {
                target = Open file;
                steps = Read Pagepath.root :: List.map (fun path -> Read path) paths;
              }))
    in
    (match answer with Ok (Reopened _) -> incr redos | Ok _ | Error _ -> ());
    answer
  in
  (* The group-commit window turns into an RPC batcher: queued commits —
     [Version] batches whose last step is Commit, optionally followed by
     its Redo — drain together and run through
     one [Server.commit_batch] pipeline, paying the request overheads
     and the stable-storage publish leg once per batch. They carry their
     own version, so they need none of [wrap]'s routing checks (shard
     wrappers pass them through untouched); a redo takes them all.
     Without a window, redo-carrying commits are served first; with one
     the queue stays FIFO, or each commit would be served as it arrives
     and leave no batch to drain. *)
  let policy =
    if group_commit = 1 then Rpc.First carries_redo
    else
      Rpc.Batching
        {
          Rpc.window = group_commit;
          batchable = (fun req -> Option.is_some (commit_member req));
          handle_batch = group_commit_batch ~reopen server;
        }
  in
  {
    rpc =
      Rpc.serve ?latency_ms ?proc_ms ?disks ~policy ~holding:(awaits server)
        ~describe:request_kind engine ~name ~handler:(Lazy.force handler);
    server;
    parked;
    redos;
  }

let crash_host h =
  Rpc.crash h.rpc;
  Hashtbl.reset h.parked;
  Server.crash h.server

let restart_host h = Rpc.restart h.rpc
let host_server h = h.server
let host_up h = Rpc.is_up h.rpc
let requests_served h = Rpc.requests_served h.rpc
let redos_served h = !(h.redos)

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
  | Create_file _ | Batch { target = Open _ | Current _; _ } -> true
  | Destroy_file _ | Batch { target = Version _; _ } | Await _ | Prepare _ | Decide _ -> false

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

let create_file conn data = as_cap (call conn (Create_file data))
let destroy_file conn file = as_unit (call conn (Destroy_file file))

let batch conn target steps =
  match call conn (Batch { target; steps }) with
  | Ok (Batched answer) -> Ok answer
  | Ok _ -> type_error
  | Error e -> Error e

let on_version conn version steps =
  match batch conn (Version version) steps with
  | Ok (Ran { reads; infos; _ }) -> Ok (reads, infos)
  | Ok (Guard_failed _ | Reopened _ | Marked _) -> type_error
  | Error e -> Error e

(* The answer is never a forward to chase: a [Version] batch passes a
   cluster wrapper unchecked. *)
let abandon conn version =
  match on_version conn version [ Abort ] with Ok _ | Error _ -> ()

let await conn file ~until ~budget_ms = as_data (call conn (Await { file; until; budget_ms }))
let prepare conn version = as_unit (call conn (Prepare version))
let decide conn version ~commit = as_unit (call conn (Decide { version; commit }))
