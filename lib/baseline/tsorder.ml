module Trace = Afs_trace.Trace

type version = { wts : int; mutable rts : int; data : bytes }

(* Newest first. An implicit initial version (wts = 0, empty) exists for
   every object. *)
type history = { mutable versions : version list }

type txn = {
  ts : int;
  mutable active : bool;
  mutable buffered : (int * bytes) list;  (** Reverse write order. *)
}

type t = {
  objects : (int, history) Hashtbl.t;
  mutable next_ts : int;
  trace : Trace.t;
}

let create ?(trace = Trace.null) () =
  {
    objects = Hashtbl.create 1024;
    next_ts = 1;
    trace;
  }

(* A late write is MVTO's analogue of a lock denial: the moment a
   transaction discovers it has lost the timestamp race. *)
let note_late t ~obj ~ts ~blocker =
  if Trace.enabled t.trace then
    Trace.point t.trace
      (Trace.Generic
         {
           kind = "ts.late_write";
           fields = [ ("obj", Trace.Int obj); ("ts", Trace.Int ts); ("blocker", Trace.Int blocker) ];
         })

let begin_ t =
  let txn = { ts = t.next_ts; active = true; buffered = [] } in
  t.next_ts <- t.next_ts + 1;
  txn

let timestamp_of txn = txn.ts
let is_active txn = txn.active

let history_of t obj =
  match Hashtbl.find_opt t.objects obj with
  | Some h -> h
  | None ->
      let h = { versions = [ { wts = 0; rts = 0; data = Bytes.empty } ] } in
      Hashtbl.replace t.objects obj h;
      h

(* The committed version current at [ts]: the one with the largest write
   timestamp not exceeding it. There always is one: the initial version
   (wts 0) is never dropped, and every timestamp is at least 1. *)
let version_at h ts = List.find (fun v -> v.wts <= ts) h.versions

let read t txn ~obj =
  assert txn.active;
  (* Read-your-own-writes from the buffer first. *)
  match List.assoc_opt obj txn.buffered with
  | Some data -> Bytes.copy data
  | None ->
      let v = version_at (history_of t obj) txn.ts in
      if txn.ts > v.rts then v.rts <- txn.ts;
      Bytes.copy v.data

(* A write at [ts] is too late when some transaction with a timestamp
   greater than [ts] has already read the version this write would have
   superseded. *)
let write_allowed h ts =
  let v = version_at h ts in
  if v.rts > ts then Error (`Late_write v.rts) else Ok ()

let write t txn ~obj data =
  assert txn.active;
  let h = history_of t obj in
  match write_allowed h txn.ts with
  | Error (`Late_write blocker) ->
      note_late t ~obj ~ts:txn.ts ~blocker;
      Error (`Late_write blocker)
  | Ok () ->
      txn.buffered <- (obj, Bytes.copy data) :: txn.buffered;
      Ok ()

let abort _ txn = txn.active <- false

let install h ts data =
  let newer, older = List.partition (fun v -> v.wts > ts) h.versions in
  h.versions <- newer @ ({ wts = ts; rts = ts; data = Bytes.copy data } :: older)

let commit t txn =
  assert txn.active;
  (* Revalidate every buffered write: read stamps may have advanced. *)
  let writes = List.rev txn.buffered in
  let rec check = function
    | [] -> Ok ()
    | (obj, _) :: rest -> (
        match write_allowed (history_of t obj) txn.ts with
        | Error e -> Error e
        | Ok () -> check rest)
  in
  match check writes with
  | Error (`Late_write blocker as e) ->
      note_late t ~obj:0 ~ts:txn.ts ~blocker;
      abort t txn;
      Error e
  | Ok () ->
      List.iter (fun (obj, data) -> install (history_of t obj) txn.ts data) writes;
      txn.active <- false;
      Ok ()

let value t ~obj =
  let h = history_of t obj in
  match h.versions with v :: _ -> Bytes.copy v.data | [] -> Bytes.empty
