type error =
  | Offline
  | Out_of_range of int
  | Never_written of int
  | Write_once_violation of int
  | Too_large of { requested : int; block_size : int }

let pp_error ppf = function
  | Offline -> Fmt.string ppf "device offline"
  | Out_of_range b -> Fmt.pf ppf "block %d out of range" b
  | Never_written b -> Fmt.pf ppf "block %d never written" b
  | Write_once_violation b -> Fmt.pf ppf "write-once violation on block %d" b
  | Too_large { requested; block_size } ->
      Fmt.pf ppf "%d bytes exceeds block size %d" requested block_size

type 'a outcome = { result : ('a, error) result; cost_ms : float }

module Trace = Afs_trace.Trace

type t = {
  media : Media.t;
  block_size : int;
  (* Images are immutable: a write keeps the caller's string and a read
     returns it, so one sealed image can sit on two disks at once. *)
  blocks : string option array;
  mutable offline : bool;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable busy_ms : float;
  mutable in_use : int;
  trace : Trace.t;
}

let create ?(trace = Trace.null) ~media ~blocks ~block_size () =
  if blocks <= 0 then invalid_arg "Disk.create: blocks must be positive";
  if block_size <= 0 then invalid_arg "Disk.create: block_size must be positive";
  {
    media;
    block_size;
    blocks = Array.make blocks None;
    offline = false;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    busy_ms = 0.0;
    in_use = 0;
    trace;
  }

let block_count t = Array.length t.blocks
let block_size t = t.block_size

let charge t cost = t.busy_ms <- t.busy_ms +. cost

let read t b =
  if t.offline then { result = Error Offline; cost_ms = 0.0 }
  else if b < 0 || b >= Array.length t.blocks then
    { result = Error (Out_of_range b); cost_ms = 0.0 }
  else
    match t.blocks.(b) with
    | None ->
        let cost = Media.read_cost t.media ~bytes:0 in
        charge t cost;
        { result = Error (Never_written b); cost_ms = cost }
    | Some data ->
        let cost = Media.read_cost t.media ~bytes:(String.length data) in
        t.reads <- t.reads + 1;
        t.bytes_read <- t.bytes_read + String.length data;
        charge t cost;
        if Trace.enabled t.trace then
          Trace.point t.trace
            (Trace.Disk_read
               {
                 media = Media.kind_name t.media.Media.kind;
                 block = b;
                 bytes = String.length data;
                 cost_ms = cost;
               });
        { result = Ok data; cost_ms = cost }

let write t b data =
  if t.offline then { result = Error Offline; cost_ms = 0.0 }
  else if b < 0 || b >= Array.length t.blocks then
    { result = Error (Out_of_range b); cost_ms = 0.0 }
  else if String.length data > t.block_size then
    {
      result = Error (Too_large { requested = String.length data; block_size = t.block_size });
      cost_ms = 0.0;
    }
  else if t.media.Media.write_once && t.blocks.(b) <> None then
    { result = Error (Write_once_violation b); cost_ms = 0.0 }
  else begin
    let cost = Media.write_cost t.media ~bytes:(String.length data) in
    if t.blocks.(b) = None then t.in_use <- t.in_use + 1;
    t.blocks.(b) <- Some data;
    t.writes <- t.writes + 1;
    t.bytes_written <- t.bytes_written + String.length data;
    charge t cost;
    if Trace.enabled t.trace then
      Trace.point t.trace
        (Trace.Disk_write
           {
             media = Media.kind_name t.media.Media.kind;
             block = b;
             bytes = String.length data;
             cost_ms = cost;
           });
    { result = Ok (); cost_ms = cost }
  end

let erase t b =
  if t.offline then { result = Error Offline; cost_ms = 0.0 }
  else if b < 0 || b >= Array.length t.blocks then
    { result = Error (Out_of_range b); cost_ms = 0.0 }
  else if t.media.Media.write_once then
    { result = Error (Write_once_violation b); cost_ms = 0.0 }
  else begin
    if t.blocks.(b) <> None then t.in_use <- t.in_use - 1;
    t.blocks.(b) <- None;
    { result = Ok (); cost_ms = 0.0 }
  end

let is_written t b = b >= 0 && b < Array.length t.blocks && t.blocks.(b) <> None

let set_offline t flag = t.offline <- flag

let corrupt t b ~xor_byte =
  if b < 0 || b >= Array.length t.blocks then false
  else
    match t.blocks.(b) with
    | None -> false
    | Some "" -> false
    | Some data ->
        (* A damaged copy replaces the block: the old image may be shared
           with a companion disk or the writer, which must not see it. *)
        let i = String.length data / 2 in
        let flip j c = if j = i then Char.chr (Char.code c lxor Char.code xor_byte) else c in
        t.blocks.(b) <- Some (String.mapi flip data);
        true

let wipe t =
  Array.fill t.blocks 0 (Array.length t.blocks) None;
  t.in_use <- 0

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ms : float;
  blocks_in_use : int;
}

let stats (t : t) =
  {
    reads = t.reads;
    writes = t.writes;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
    busy_ms = t.busy_ms;
    blocks_in_use = t.in_use;
  }

let busy_ms (t : t) = t.busy_ms

let reset_stats (t : t) =
  t.reads <- 0;
  t.writes <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.busy_ms <- 0.0
