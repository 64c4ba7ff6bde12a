(* A bounded LRU index: hashtable for O(1) lookup, intrusive doubly-linked
   recency list for O(1) promotion and eviction-candidate selection. The
   structure itself never evicts — the owner asks for [lru_unpinned] and
   removes the entry once whatever write-back the eviction requires has
   succeeded, so a failed write-back never silently drops data.

   The links are [Nil | Node] with an inline record rather than
   [node option]: a [Node] is itself the list cell, so relinking one
   allocates nothing, and a cache hit's promotion is free. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      mutable value : 'v;
      mutable pinned : bool;
      mutable prev : ('k, 'v) node;  (* towards the MRU end *)
      mutable next : ('k, 'v) node;  (* towards the LRU end *)
    }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;  (* every value is a [Node] *)
  mutable head : ('k, 'v) node;  (* most recently used *)
  mutable tail : ('k, 'v) node;  (* least recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min capacity 1024); head = Nil; tail = Nil }

let length t = Hashtbl.length t.table

(* [Nil] when absent, without the option [Hashtbl.find_opt] allocates. *)
let lookup t k = match Hashtbl.find t.table k with n -> n | exception Not_found -> Nil

(* {2 Intrusive list plumbing} *)

let set_prev n p = match n with Node r -> r.prev <- p | Nil -> ()
let set_next n s = match n with Node r -> r.next <- s | Nil -> ()

let unlink t = function
  | Nil -> ()
  | Node r ->
      (match r.prev with Nil -> t.head <- r.next | p -> set_next p r.next);
      (match r.next with Nil -> t.tail <- r.prev | s -> set_prev s r.prev);
      r.prev <- Nil;
      r.next <- Nil

let push_front t n =
  set_prev n Nil;
  set_next n t.head;
  (match t.head with Nil -> t.tail <- n | h -> set_prev h n);
  t.head <- n

let touch t n =
  if t.head != n then begin
    unlink t n;
    push_front t n
  end

(* {2 Operations} *)

let find_or t k default =
  match lookup t k with
  | Nil -> default
  | Node r as n ->
      touch t n;
      r.value

let peek_or t k default = match lookup t k with Nil -> default | Node r -> r.value

let mem t k = Hashtbl.mem t.table k

let set t k v =
  match lookup t k with
  | Node r as n ->
      r.value <- v;
      touch t n
  | Nil ->
      let n = Node { key = k; value = v; pinned = false; prev = Nil; next = Nil } in
      Hashtbl.replace t.table k n;
      push_front t n

let remove t k =
  match lookup t k with
  | Nil -> ()
  | n ->
      Hashtbl.remove t.table k;
      unlink t n

let pin t k =
  match lookup t k with
  | Nil -> false
  | Node r ->
      r.pinned <- true;
      true

let unpin t k = match lookup t k with Nil -> () | Node r -> r.pinned <- false

let needs_eviction t = length t > t.capacity

(* Oldest unpinned entry: a linear scan from the tail, but the scan only
   passes over pinned entries, of which the owner holds a handful (locked
   commit blocks) at any time. *)
let lru_unpinned t =
  let rec scan = function
    | Nil -> None
    | Node r -> if r.pinned then scan r.prev else Some (r.key, r.value)
  in
  scan t.tail

let clear t =
  Hashtbl.reset t.table;
  t.head <- Nil;
  t.tail <- Nil

(* Recency order, most recent first — deterministic given a deterministic
   access sequence. *)
let fold f t init =
  let rec go acc = function
    | Nil -> acc
    | Node r -> go (f r.key r.value acc) r.next
  in
  go init t.head
