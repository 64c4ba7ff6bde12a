module Trace = Afs_trace.Trace

type denial = { holder : int; vulnerable : bool }

type outcome = [ `Ok | `Denied of denial | `Aborted ]

type lock_state = {
  mutable readers : (int * float) list;  (** (txn id, acquired-at). *)
  mutable iwriter : (int * float) option;
  mutable commit_holder : int option;
  (* A committer waiting for existing readers to drain; blocks new
     readers so the commit cannot starve. *)
  mutable commit_pending : int option;
}

type txn_state = {
  id : int;
  mutable active : bool;
  mutable read_set : int list;
  mutable intentions : (int * bytes) list;  (** Reverse order of writes. *)
  mutable last_op_at : float;
}

type t = {
  clock : unit -> float;
  vulnerable_after_ms : float;
  data : (int, bytes) Hashtbl.t;
  locks : (int, lock_state) Hashtbl.t;
  txns : (int, txn_state) Hashtbl.t;
  mutable next_txn : int;
  mutable up : bool;
  (* A durably-logged intentions list whose application was interrupted by
     a crash; recovery replays it. *)
  mutable interrupted : (int * bytes) list;
  trace : Trace.t;
}

type txn = txn_state

let create ?(vulnerable_after_ms = 50.0) ?(trace = Trace.null) ~clock () =
  {
    clock;
    vulnerable_after_ms;
    data = Hashtbl.create 1024;
    locks = Hashtbl.create 1024;
    txns = Hashtbl.create 64;
    next_txn = 1;
    up = true;
    interrupted = [];
    trace;
  }

let tpoint t payload = if Trace.enabled t.trace then Trace.point t.trace payload

let note_wait t ~obj ~txn ~holder = tpoint t (Trace.Lock_wait { obj; txn; holder })

let note_acquire t ~obj ~txn ~mode = tpoint t (Trace.Lock_acquire { obj; txn; mode })

let begin_ t =
  let txn =
    { id = t.next_txn; active = true; read_set = []; intentions = []; last_op_at = t.clock () }
  in
  t.next_txn <- t.next_txn + 1;
  Hashtbl.replace t.txns txn.id txn;
  txn

let txn_id txn = txn.id
let is_active _t txn = txn.active

let lock_of t obj =
  match Hashtbl.find_opt t.locks obj with
  | Some l -> l
  | None ->
      let l = { readers = []; iwriter = None; commit_holder = None; commit_pending = None } in
      Hashtbl.replace t.locks obj l;
      l

let vulnerable t acquired_at = t.clock () -. acquired_at >= t.vulnerable_after_ms

let denial t ~holder ~acquired_at = { holder; vulnerable = vulnerable t acquired_at }

let self_aborted = { holder = 0; vulnerable = false }

let read t txn ~obj =
  assert t.up;
  if not txn.active then Error self_aborted
  else begin
  txn.last_op_at <- t.clock ();
  let l = lock_of t obj in
  match (l.commit_holder, l.commit_pending) with
  | Some holder, _ when holder <> txn.id ->
      note_wait t ~obj ~txn:txn.id ~holder;
      Error { holder; vulnerable = false }
  | _, Some holder when holder <> txn.id ->
      note_wait t ~obj ~txn:txn.id ~holder;
      Error { holder; vulnerable = false }
  | _, _ ->
      if not (List.mem_assoc txn.id l.readers) then begin
        l.readers <- (txn.id, t.clock ()) :: l.readers;
        txn.read_set <- obj :: txn.read_set;
        note_acquire t ~obj ~txn:txn.id ~mode:"read"
      end;
      Ok (match Hashtbl.find_opt t.data obj with Some v -> Bytes.copy v | None -> Bytes.empty)
  end

(* Take the intention-write lock without buffering data yet: the update
   lock of a read-modify-write, which avoids the classic read-then-upgrade
   deadlock. *)
let reserve t txn ~obj =
  assert t.up;
  if not txn.active then Error self_aborted
  else begin
    txn.last_op_at <- t.clock ();
    let l = lock_of t obj in
    match (l.commit_holder, l.iwriter) with
    | Some holder, _ when holder <> txn.id ->
        note_wait t ~obj ~txn:txn.id ~holder;
        Error { holder; vulnerable = false }
    | _, Some (holder, at) when holder <> txn.id ->
        note_wait t ~obj ~txn:txn.id ~holder;
        Error (denial t ~holder ~acquired_at:at)
    | _, _ ->
        if l.iwriter = None then begin
          l.iwriter <- Some (txn.id, t.clock ());
          note_acquire t ~obj ~txn:txn.id ~mode:"iwrite"
        end;
        Ok ()
  end

let write t txn ~obj data =
  assert t.up;
  if not txn.active then Error self_aborted
  else begin
  txn.last_op_at <- t.clock ();
  let l = lock_of t obj in
  match (l.commit_holder, l.iwriter) with
  | Some holder, _ when holder <> txn.id ->
      note_wait t ~obj ~txn:txn.id ~holder;
      Error { holder; vulnerable = false }
  | _, Some (holder, at) when holder <> txn.id ->
      note_wait t ~obj ~txn:txn.id ~holder;
      Error (denial t ~holder ~acquired_at:at)
  | _, _ ->
      if l.iwriter = None then begin
        l.iwriter <- Some (txn.id, t.clock ());
        note_acquire t ~obj ~txn:txn.id ~mode:"iwrite"
      end;
      txn.intentions <- (obj, Bytes.copy data) :: txn.intentions;
      Ok ()
  end

let release_txn_locks t txn =
  let release _obj l =
    l.readers <- List.filter (fun (id, _) -> id <> txn.id) l.readers;
    (match l.iwriter with Some (id, _) when id = txn.id -> l.iwriter <- None | _ -> ());
    (match l.commit_pending with Some id when id = txn.id -> l.commit_pending <- None | _ -> ());
    match l.commit_holder with Some id when id = txn.id -> l.commit_holder <- None | _ -> ()
  in
  Hashtbl.iter release t.locks

let abort t txn =
  if txn.active then begin
    txn.active <- false;
    release_txn_locks t txn;
    Hashtbl.remove t.txns txn.id
  end

(* Upgrade all intention-write locks to commit locks; denied if any other
   reader or writer remains on a written object. *)
let upgrade_locks t txn =
  let written = List.sort_uniq compare (List.map fst txn.intentions) in
  (* Claim commit-pending on every written object (kept across denials:
     it blocks new readers while existing ones drain). *)
  let rec claim = function
    | [] -> Ok ()
    | obj :: rest -> (
        let l = lock_of t obj in
        match (l.commit_holder, l.commit_pending) with
        | Some holder, _ when holder <> txn.id -> Error { holder; vulnerable = false }
        | _, Some holder when holder <> txn.id -> Error { holder; vulnerable = false }
        | _, _ ->
            l.commit_pending <- Some txn.id;
            claim rest)
  in
  let rec drained = function
    | [] -> Ok ()
    | obj :: rest -> (
        let l = lock_of t obj in
        match List.find_opt (fun (id, _) -> id <> txn.id) l.readers with
        | Some (holder, at) -> Error (denial t ~holder ~acquired_at:at)
        | None -> drained rest)
  in
  match claim written with
  | Error _ as e -> e
  | Ok () -> (
      match drained written with
      | Error _ as e -> e
      | Ok () ->
          List.iter
            (fun obj ->
              let l = lock_of t obj in
              l.commit_pending <- None;
              l.commit_holder <- Some txn.id)
            written;
          Ok ())

let apply_intentions t intentions =
  List.iter (fun (obj, data) -> Hashtbl.replace t.data obj (Bytes.copy data)) intentions

let commit t txn =
  assert t.up;
  if not txn.active then Error self_aborted
  else
  match upgrade_locks t txn with
  | Error _ as e -> e
  | Ok () ->
      apply_intentions t (List.rev txn.intentions);
      txn.active <- false;
      release_txn_locks t txn;
      Hashtbl.remove t.txns txn.id;
      Ok ()

let prod ?(by = 0) ?(obj = 0) t ~victim =
  match Hashtbl.find_opt t.txns victim with
  | None -> true (* Already gone; the lock will clear. *)
  | Some txn ->
      if t.clock () -. txn.last_op_at >= t.vulnerable_after_ms then begin
        abort t txn;
        tpoint t (Trace.Lock_steal { obj; txn = by; victim });
        true
      end
      else false

let value t ~obj =
  match Hashtbl.find_opt t.data obj with Some v -> Bytes.copy v | None -> Bytes.empty

(* {2 Crash and recovery} *)

type recovery_stats = {
  locks_cleared : int;
  txns_rolled_back : int;
  intentions_replayed : int;
}

let crash t =
  t.up <- false;
  tpoint t (Trace.Crash { component = "twopl"; what = "crash" })

let crash_mid_commit t txn =
  match upgrade_locks t txn with
  | Error _ as e -> e
  | Ok () ->
      let intentions = List.rev txn.intentions in
      let n = List.length intentions in
      let applied = List.filteri (fun i _ -> i < n / 2) intentions in
      apply_intentions t applied;
      (* The full list was durably logged before application began. *)
      t.interrupted <- intentions;
      t.up <- false;
      tpoint t (Trace.Crash { component = "twopl"; what = "crash" });
      Ok ()

let recover t =
  let locks_cleared = ref 0 in
  Hashtbl.iter
    (fun _ l ->
      locks_cleared := !locks_cleared + List.length l.readers;
      (match l.iwriter with Some _ -> incr locks_cleared | None -> ());
      (match l.commit_pending with Some _ -> incr locks_cleared | None -> ());
      (match l.commit_holder with Some _ -> incr locks_cleared | None -> ());
      l.readers <- [];
      l.iwriter <- None;
      l.commit_pending <- None;
      l.commit_holder <- None)
    t.locks;
  let txns_rolled_back = Hashtbl.length t.txns in
  Hashtbl.reset t.txns;
  let intentions_replayed = List.length t.interrupted in
  apply_intentions t t.interrupted;
  t.interrupted <- [];
  t.up <- true;
  (* Rollback/replay events appear only when recovery had real work to
     undo or redo — the C2 contrast with AFS, whose recovery never does. *)
  if txns_rolled_back > 0 then tpoint t (Trace.Rollback { txns = txns_rolled_back });
  if intentions_replayed > 0 then
    tpoint t (Trace.Intentions_replay { count = intentions_replayed });
  tpoint t (Trace.Crash { component = "twopl"; what = "recover" });
  { locks_cleared = !locks_cleared; txns_rolled_back; intentions_replayed }

let is_up t = t.up
