(* Deterministic structured tracing keyed on virtual time.

   The trace never consults a wall clock: [now] is supplied by the owner
   (invariably [Engine.now]), so two runs from the same seed produce the
   same event stream byte for byte. Emission costs no simulated time —
   tracing is pure observation and cannot perturb what it observes. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type payload =
  | Proc_spawn of { proc : string }
  | Proc_resume of { proc : string }
  | Crash of { component : string; what : string }
  | Rpc_send of { server : string; op : string }
  | Rpc_recv of { server : string; op : string }
  | Rpc_timeout of { server : string; op : string }
  | Disk_read of { media : string; block : int; bytes : int; cost_ms : float }
  | Disk_write of { media : string; block : int; bytes : int; cost_ms : float }
  | Block_lock of { block : int; won : bool }
  | Test_and_set of { block : int; won : bool }
  | Commit_phase of { vblock : int; phase : string }
  | Commit_outcome of { vblock : int; outcome : string }
  | Commit_batch of { size : int; winners : int; aborts : int }
  | Cache_validate of { file_obj : int; basis : int; current : int; invalid : int }
  | Cache_drop of { file_obj : int; path : string }
  | Stable_leg of { leg : string; server : int; block : int; cost_ms : float }
  | Lock_acquire of { obj : int; txn : int; mode : string }
  | Lock_wait of { obj : int; txn : int; holder : int }
  | Lock_steal of { obj : int; txn : int; victim : int }
  | Rollback of { txns : int }
  | Intentions_replay of { count : int }
  | Recovered_files of { count : int }
  | Gc_phase of { phase : string; count : int }
  | Ship of { seq : int; ops : int; epoch : int }
  | Ship_apply of { seq : int; ops : int; lag_ms : float }
  | Promote of { shard : int; epoch : int; watermark : int }
  | Fence of { epoch : int; stale : int }
  | Txn_stage of { txn : int; file_obj : int }
  | Txn_decide of { txn : int; committed : bool }
  | Txn_flip of { txn : int; file_obj : int; writes : int }
  | Txn_resolve of { txn : int; file_obj : int; action : string }
  | Generic of { kind : string; fields : (string * value) list }

let kind_of_payload = function
  | Proc_spawn _ -> "proc.spawn"
  | Proc_resume _ -> "proc.resume"
  | Crash _ -> "crash"
  | Rpc_send _ -> "rpc.send"
  | Rpc_recv _ -> "rpc.recv"
  | Rpc_timeout _ -> "rpc.timeout"
  | Disk_read _ -> "disk.read"
  | Disk_write _ -> "disk.write"
  | Block_lock _ -> "block.lock"
  | Test_and_set _ -> "commit.test_and_set"
  | Commit_phase _ -> "commit.phase"
  | Commit_outcome _ -> "commit.outcome"
  | Commit_batch _ -> "commit.batch"
  | Cache_validate _ -> "cache.validate"
  | Cache_drop _ -> "cache.drop"
  | Stable_leg _ -> "stable.leg"
  | Lock_acquire _ -> "lock.acquire"
  | Lock_wait _ -> "lock.wait"
  | Lock_steal _ -> "lock.steal"
  | Rollback _ -> "recovery.rollback"
  | Intentions_replay _ -> "recovery.replay"
  | Recovered_files _ -> "recovery.files"
  | Gc_phase _ -> "gc.phase"
  | Ship _ -> "replica.ship"
  | Ship_apply _ -> "replica.apply"
  | Promote _ -> "replica.promote"
  | Fence _ -> "replica.fence"
  | Txn_stage _ -> "txn.stage"
  | Txn_decide _ -> "txn.decide"
  | Txn_flip _ -> "txn.flip"
  | Txn_resolve _ -> "txn.resolve"
  | Generic { kind; _ } -> kind

let fields_of_payload = function
  | Proc_spawn { proc } | Proc_resume { proc } -> [ ("proc", Str proc) ]
  | Crash { component; what } -> [ ("component", Str component); ("what", Str what) ]
  | Rpc_send { server; op } | Rpc_recv { server; op } | Rpc_timeout { server; op } ->
      [ ("server", Str server); ("op", Str op) ]
  | Disk_read { media; block; bytes; cost_ms } | Disk_write { media; block; bytes; cost_ms } ->
      [ ("media", Str media); ("block", Int block); ("bytes", Int bytes);
        ("cost_ms", Float cost_ms) ]
  | Block_lock { block; won } | Test_and_set { block; won } ->
      [ ("block", Int block); ("won", Bool won) ]
  | Commit_phase { vblock; phase } -> [ ("vblock", Int vblock); ("phase", Str phase) ]
  | Commit_outcome { vblock; outcome } -> [ ("vblock", Int vblock); ("outcome", Str outcome) ]
  | Commit_batch { size; winners; aborts } ->
      [ ("size", Int size); ("winners", Int winners); ("aborts", Int aborts) ]
  | Cache_validate { file_obj; basis; current; invalid } ->
      [ ("file_obj", Int file_obj); ("basis", Int basis); ("current", Int current);
        ("invalid", Int invalid) ]
  | Cache_drop { file_obj; path } -> [ ("file_obj", Int file_obj); ("path", Str path) ]
  | Stable_leg { leg; server; block; cost_ms } ->
      [ ("leg", Str leg); ("server", Int server); ("block", Int block);
        ("cost_ms", Float cost_ms) ]
  | Lock_acquire { obj; txn; mode } ->
      [ ("obj", Int obj); ("txn", Int txn); ("mode", Str mode) ]
  | Lock_wait { obj; txn; holder } ->
      [ ("obj", Int obj); ("txn", Int txn); ("holder", Int holder) ]
  | Lock_steal { obj; txn; victim } ->
      [ ("obj", Int obj); ("txn", Int txn); ("victim", Int victim) ]
  | Rollback { txns } -> [ ("txns", Int txns) ]
  | Intentions_replay { count } | Recovered_files { count } -> [ ("count", Int count) ]
  | Gc_phase { phase; count } -> [ ("phase", Str phase); ("count", Int count) ]
  | Ship { seq; ops; epoch } -> [ ("seq", Int seq); ("ops", Int ops); ("epoch", Int epoch) ]
  | Ship_apply { seq; ops; lag_ms } ->
      [ ("seq", Int seq); ("ops", Int ops); ("lag_ms", Float lag_ms) ]
  | Promote { shard; epoch; watermark } ->
      [ ("shard", Int shard); ("epoch", Int epoch); ("watermark", Int watermark) ]
  | Fence { epoch; stale } -> [ ("epoch", Int epoch); ("stale", Int stale) ]
  | Txn_stage { txn; file_obj } -> [ ("txn", Int txn); ("file_obj", Int file_obj) ]
  | Txn_decide { txn; committed } -> [ ("txn", Int txn); ("committed", Bool committed) ]
  | Txn_flip { txn; file_obj; writes } ->
      [ ("txn", Int txn); ("file_obj", Int file_obj); ("writes", Int writes) ]
  | Txn_resolve { txn; file_obj; action } ->
      [ ("txn", Int txn); ("file_obj", Int file_obj); ("action", Str action) ]
  | Generic { fields; _ } -> fields

type event =
  | Point of { seq : int; at_ms : float; span : int; payload : payload }
  | Span_open of { seq : int; at_ms : float; id : int; parent : int; kind : string; label : string }
  | Span_close of { seq : int; at_ms : float; id : int }

let event_seq = function
  | Point { seq; _ } | Span_open { seq; _ } | Span_close { seq; _ } -> seq

type ring = {
  cap : int;
  buf : event option array;
  mutable len : int;  (** Stored events, <= cap. *)
  mutable head : int;  (** Index of the oldest stored event. *)
  mutable ring_dropped : int;
}

type sink = Null | Ring of ring | Stream of (event -> unit)

(* {2 Host cost of synchronous spans}

   Kept beside the events, never in them. The tallies and frames hold
   floats only, so updating them stores the floats unboxed. A span's
   probe reads the clock and then the allocation counter on entry, and
   the counter and then the clock on exit: what the clock itself
   allocates falls outside the span. The words allocated while no span
   is open are summed up to [outside.mark], the counter's reading when
   the last outermost span closed, so every word lands in exactly one
   span's own share or outside. That makes own plus outside equal every
   word allocated by construction, whatever the spans cover: the sum
   can only go wrong when spans do not nest. *)

type host_cost = {
  kind : string;
  spans : int;
  own_words : float;
  total_words : float;
  own_us : float;
  total_us : float;
}

type sums = {
  mutable n : float;
  mutable own_w : float;
  mutable total_w : float;
  mutable own_c : float;
  mutable total_c : float;
}

(* An open span's entry readings and what its child spans spent. Frames
   are reused, one per nesting depth, so a probe allocates nothing. *)
type frame = {
  mutable w0 : float;
  mutable c0 : float;
  mutable child_w : float;
  mutable child_c : float;
}

(* The words allocated outside every span, summed up to [mark]. *)
type outside = { mutable words : float; mutable mark : float }

type host = {
  clock : unit -> float;
  kinds : (string, sums) Hashtbl.t;
  mutable frames : frame array;
  mutable depth : int;  (** Open host-costed spans: [frames.(depth - 1)] is the innermost. *)
  outside : outside;
}

type t = {
  now : unit -> float;
  sink : sink;
  mutable next_seq : int;
  mutable next_span : int;
  mutable stack : int list;  (** Ambient span stack for synchronous sections. *)
  mutable emitted : int;
  host : host option;
}

let new_frame _ = { w0 = 0.0; c0 = 0.0; child_w = 0.0; child_c = 0.0 }

let make ?host ~now sink =
  let host =
    Option.map
      (fun clock ->
        let kinds = Hashtbl.create 16 and frames = Array.init 8 new_frame in
        let outside = { words = 0.0; mark = 0.0 } in
        outside.mark <- Gc.minor_words ();
        { clock; kinds; frames; depth = 0; outside })
      host
  in
  { now; sink; next_seq = 0; next_span = 1; stack = []; emitted = 0; host }

let null = make ~now:(fun () -> 0.0) Null

let default_capacity = 65536

let ring ?(capacity = default_capacity) ?host ~now () =
  if capacity < 1 then invalid_arg "Trace.ring: capacity must be positive";
  make ?host ~now
    (Ring { cap = capacity; buf = Array.make capacity None; len = 0; head = 0; ring_dropped = 0 })

let stream ?host ~now emit = make ?host ~now (Stream emit)

let enter h =
  let c0 = h.clock () in
  let w0 = Gc.minor_words () in
  if h.depth = 0 then h.outside.words <- h.outside.words +. (w0 -. h.outside.mark);
  if h.depth = Array.length h.frames then
    h.frames <- Array.append h.frames (Array.init h.depth new_frame);
  let f = h.frames.(h.depth) in
  f.w0 <- w0;
  f.c0 <- c0;
  f.child_w <- 0.0;
  f.child_c <- 0.0;
  h.depth <- h.depth + 1

let sums h kind =
  match Hashtbl.find h.kinds kind with
  | s -> s
  | exception Not_found ->
      let s = { n = 0.0; own_w = 0.0; total_w = 0.0; own_c = 0.0; total_c = 0.0 } in
      Hashtbl.replace h.kinds kind s;
      s

let leave h kind =
  let w = Gc.minor_words () in
  let c = h.clock () in
  h.depth <- h.depth - 1;
  let f = h.frames.(h.depth) in
  let total_w = w -. f.w0 and total_c = c -. f.c0 in
  if h.depth > 0 then begin
    let parent = h.frames.(h.depth - 1) in
    parent.child_w <- parent.child_w +. total_w;
    parent.child_c <- parent.child_c +. total_c
  end
  else h.outside.mark <- w;
  let s = sums h kind in
  s.n <- s.n +. 1.0;
  s.own_w <- s.own_w +. (total_w -. f.child_w);
  s.total_w <- s.total_w +. total_w;
  s.own_c <- s.own_c +. (total_c -. f.child_c);
  s.total_c <- s.total_c +. total_c

let host_costs t =
  match t.host with
  | None -> []
  | Some h ->
      List.sort
        (fun a b -> String.compare a.kind b.kind)
        (Hashtbl.fold
           (fun kind s acc ->
             {
               kind;
               spans = int_of_float s.n;
               own_words = s.own_w;
               total_words = s.total_w;
               own_us = s.own_c;
               total_us = s.total_c;
             }
             :: acc)
           h.kinds [])

let outside_words t =
  match t.host with
  | None -> 0.0
  | Some h ->
      let o = h.outside in
      o.words +. if h.depth = 0 then Gc.minor_words () -. o.mark else 0.0

let costing t = Option.is_some t.host

let costed t ~kind f =
  match t.host with
  | None -> f ()
  | Some h -> (
      enter h;
      match f () with
      | x ->
          leave h kind;
          x
      | exception e ->
          leave h kind;
          raise e)

let enabled t = match t.sink with Null -> false | Ring _ | Stream _ -> true

let events_emitted t = t.emitted

let push t ev =
  t.emitted <- t.emitted + 1;
  match t.sink with
  | Null -> ()
  | Stream emit -> emit ev
  | Ring r ->
      if r.len < r.cap then begin
        r.buf.((r.head + r.len) mod r.cap) <- Some ev;
        r.len <- r.len + 1
      end
      else begin
        (* Full: overwrite the oldest (the ring keeps the newest window). *)
        r.buf.(r.head) <- Some ev;
        r.head <- (r.head + 1) mod r.cap;
        r.ring_dropped <- r.ring_dropped + 1
      end

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let current_span t = match t.stack with [] -> 0 | id :: _ -> id

let point t payload =
  match t.sink with
  | Null -> ()
  | Ring _ | Stream _ ->
      push t (Point { seq = fresh_seq t; at_ms = t.now (); span = current_span t; payload })

let open_span t ?parent ~kind ?(label = "") () =
  match t.sink with
  | Null -> 0
  | Ring _ | Stream _ ->
      let parent = match parent with Some p -> p | None -> current_span t in
      let id = t.next_span in
      t.next_span <- id + 1;
      push t (Span_open { seq = fresh_seq t; at_ms = t.now (); id; parent; kind; label });
      id

let close_span t id =
  match t.sink with
  | Null -> ()
  | Ring _ | Stream _ ->
      if id <> 0 then push t (Span_close { seq = fresh_seq t; at_ms = t.now (); id })

let span t ~kind ?label f =
  match t.sink with
  | Null -> f ()
  | Ring _ | Stream _ ->
      let id = open_span t ~kind ?label () in
      t.stack <- id :: t.stack;
      let finish () =
        (match t.stack with s :: rest when s = id -> t.stack <- rest | _ -> ());
        close_span t id
      in
      Fun.protect ~finally:finish (if costing t then fun () -> costed t ~kind f else f)

let events t =
  match t.sink with
  | Null | Stream _ -> []
  | Ring r ->
      let out = ref [] in
      for i = r.len - 1 downto 0 do
        match r.buf.((r.head + i) mod r.cap) with
        | Some ev -> out := ev :: !out
        | None -> ()
      done;
      !out

let dropped t = match t.sink with Ring r -> r.ring_dropped | Null | Stream _ -> 0
