(* A bounded LRU index: hashtable for O(1) lookup, intrusive doubly-linked
   recency list for O(1) promotion and eviction-candidate selection. The
   structure itself never evicts — the owner asks for [lru_unpinned] and
   removes the entry once whatever write-back the eviction requires has
   succeeded, so a failed write-back never silently drops data. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable pinned : bool;
  mutable prev : ('k, 'v) node option;  (* towards the MRU end *)
  mutable next : ('k, 'v) node option;  (* towards the LRU end *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min capacity 1024); head = None; tail = None }

let length t = Hashtbl.length t.table

(* {2 Intrusive list plumbing} *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

(* {2 Operations} *)

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      touch t n;
      Some n.value

let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table k)

let mem t k = Hashtbl.mem t.table k

let set t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      let n = { key = k; value = v; pinned = false; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some n ->
      Hashtbl.remove t.table k;
      unlink t n

let pin t k =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some n ->
      n.pinned <- true;
      true

let unpin t k =
  match Hashtbl.find_opt t.table k with None -> () | Some n -> n.pinned <- false

let needs_eviction t = length t > t.capacity

(* Oldest unpinned entry: a linear scan from the tail, but the scan only
   passes over pinned entries, of which the owner holds a handful (locked
   commit blocks) at any time. *)
let lru_unpinned t =
  let rec scan = function
    | None -> None
    | Some n -> if n.pinned then scan n.prev else Some (n.key, n.value)
  in
  scan t.tail

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

(* Recency order, most recent first — deterministic given a deterministic
   access sequence. *)
let fold f t init =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.next
  in
  go init t.head
