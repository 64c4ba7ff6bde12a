module Lru = Afs_util.Lru
module Stats = Afs_util.Stats
module Det = Afs_util.Det
module Trace = Afs_trace.Trace

(* [stale] marks a clean entry whose block must be re-read from the
   store before it is believed (set by {!refresh}, the §3.1
   cache-integrity point). The re-read compares the store image
   against the page's memoized encoding: commit references are almost
   always unchanged, and an identical image means the cached decoded
   page — and its memo — can be reused without re-parsing. [answer] is
   [Ok page], rebuilt by {!set_page} whenever the page changes, so a
   cache hit hands it out and allocates nothing. *)
type entry = {
  mutable page : Page.t;
  mutable answer : (Page.t, Errors.t) result;
  mutable dirty : bool;
  mutable stale : bool;
}

let entry page ~dirty = { page; answer = Ok page; dirty; stale = false }

let set_page e page = if e.page != page then (e.page <- page; e.answer <- Ok page)

let set_clean e page =
  set_page e page;
  e.dirty <- false;
  e.stale <- false

(* What a cache lookup answers for an uncached block; compared
   physically, never cached and never changed. *)
let absent = entry Page.empty ~dirty:false

type t = {
  store : Store.t;
  cache_enabled : bool;
  cache : (int, entry) Lru.t;
  (* Blocks held under a store lock: their cache entries are pinned so the
     commit critical section never loses its block to eviction. *)
  locked : (int, unit) Hashtbl.t;
  (* The dirty set, mirrored from the entries' [dirty] bits, so [flush]
     and [dirty_count] cost O(pages written), not O(cache capacity). *)
  dirty : (int, unit) Hashtbl.t;
  counters : Stats.Counter.t;
  (* Resolved-once cells for the per-read counters, forced at first bump
     so untouched counters stay out of the table exactly as with
     [Counter.incr]. The generic string-keyed bump costs a string hash
     per call, which the cache hit path pays tens of times per
     transaction. *)
  hits : int ref Lazy.t;
  misses : int ref Lazy.t;
  (* Host-costed sections: [pagestore.miss] around a miss's store read
     and decode, [pagestore.write] around an encode and its store write,
     [store.read] around any other store read. Each site tests
     [Trace.costing] itself, so a run without host cost builds no
     closure. *)
  trace : Trace.t;
}

let default_capacity = 4096

let create ?(cache = true) ?(capacity = default_capacity) ?(trace = Trace.null) ~counters store =
  if capacity < 1 then invalid_arg "Pagestore.create: capacity must be positive";
  {
    store;
    cache_enabled = cache;
    cache = Lru.create ~capacity;
    locked = Hashtbl.create 4;
    dirty = Hashtbl.create 64;
    counters;
    hits = lazy (Stats.Counter.handle counters "cache.hits");
    misses = lazy (Stats.Counter.handle counters "cache.misses");
    trace;
  }

let store t = t.store

(* The store's block size, which by §5 is at most 32K: a page must fit in
   one atomic transaction message. *)
let page_size_limit t = t.store.Store.block_size

let bump ?by t name = Stats.Counter.incr ?by t.counters name

let allocate t =
  match t.store.Store.allocate () with
  | Ok b -> Ok b
  | Error msg -> Error (Errors.Store_failure msg)

let put t b page = t.store.Store.write b (Page.encode page)

let store_write t b page =
  let written =
    if Trace.costing t.trace then Trace.costed t.trace ~kind:"pagestore.write" (fun () -> put t b page)
    else put t b page
  in
  match written with Ok () -> Ok () | Error msg -> Error (Errors.Store_failure msg)

(* The entry's page just reached the store: clean, in place, LRU order
   untouched. *)
let mark_clean t b (e : entry) =
  e.dirty <- false;
  Hashtbl.remove t.dirty b

(* Bring the cache back within capacity, oldest unpinned entries first.
   A dirty evictee is written back before it is dropped (the §5.4
   write-back contract: eviction must not lose writes), so a store error
   here surfaces to the caller and the entry survives. *)
let rec evict_excess t =
  if not (Lru.needs_eviction t.cache) then Ok ()
  else
    match Lru.lru_unpinned t.cache with
    | None -> Ok () (* Everything pinned: transiently over capacity. *)
    | Some (b, e) ->
        let write_back =
          if e.dirty then
            match store_write t b e.page with
            | Ok () ->
                mark_clean t b e;
                bump t "cache.writebacks";
                Ok ()
            | Error _ as err -> err
          else Ok ()
        in
        (match write_back with
        | Ok () ->
            Lru.remove t.cache b;
            bump t "cache.evictions";
            evict_excess t
        | Error _ as err -> err)

(* Insert or refresh a cache entry, pinning it when its block is locked
   (the entry may be created inside the critical section, after the lock
   was taken). *)
let cache_set t b entry =
  Lru.set t.cache b entry;
  if Hashtbl.mem t.locked b then ignore (Lru.pin t.cache b);
  evict_excess t

let drop_entry t b =
  Hashtbl.remove t.dirty b;
  Lru.remove t.cache b

(* Re-read a stale entry's block. An image identical to the cached
   page's memoized encoding proves the store still holds exactly what we
   decoded (or wrote) before, so the decoded page is reused as is; this
   counts as a miss, like the drop-and-re-read it replaces, and the
   store read it pays for is the §3.1 integrity check itself: with shared
   images, usually a physical comparison with the memo, and otherwise a
   byte comparison that allocates nothing. *)
let revalidate t b (e : entry) =
  match t.store.Store.read b with
  | Error msg ->
      drop_entry t b;
      Error (Errors.Store_failure msg)
  | Ok image -> (
      let r = Lazy.force t.misses in
      r := !r + 1;
      match Page.memoized_image e.page with
      | Some memo when Afs_util.Image.equal memo image ->
          e.stale <- false;
          e.answer
      | _ -> (
          match Page.decode ~memo:true image with
          | Error msg -> Error (Errors.Store_failure msg)
          | Ok page ->
              set_page e page;
              e.stale <- false;
              e.answer))

(* The store hands back an image this system wrote with [Page.encode],
   so it can seed the page's encode memo: a page faulted in and flushed
   back out costs zero serialisations. *)
let fault t b =
  match t.store.Store.read b with Ok image -> Page.decode ~memo:true image | Error _ as e -> e

let read t b =
  let e = if t.cache_enabled then Lru.find_or t.cache b absent else absent in
  if e == absent then
    let faulted =
      if Trace.costing t.trace then Trace.costed t.trace ~kind:"pagestore.miss" (fun () -> fault t b)
      else fault t b
    in
    match faulted with
    | Error msg -> Error (Errors.Store_failure msg)
    | Ok page ->
        if t.cache_enabled then begin
          let r = Lazy.force t.misses in
          r := !r + 1;
          let e = entry page ~dirty:false in
          match cache_set t b e with Ok () -> e.answer | Error _ as err -> err
        end
        else Ok page
  else if e.stale then
    if Trace.costing t.trace then
      Trace.costed t.trace ~kind:"pagestore.miss" (fun () -> revalidate t b e)
    else revalidate t b e
  else begin
    let r = Lazy.force t.hits in
    r := !r + 1;
    e.answer
  end

let check_size t page =
  let bytes = Page.encoded_size page in
  if bytes > page_size_limit t then
    Error (Errors.Page_too_large { bytes; limit = page_size_limit t })
  else Ok ()

let write t b page =
  match check_size t page with
  | Error _ as e -> e
  | Ok () ->
      if not t.cache_enabled then store_write t b page
      else
        let e = Lru.find_or t.cache b absent in
        if e != absent then begin
          if not e.dirty then Hashtbl.replace t.dirty b ();
          set_page e page;
          e.dirty <- true;
          e.stale <- false;
          Ok ()
        end
        else begin
          Hashtbl.replace t.dirty b ();
          cache_set t b (entry page ~dirty:true)
        end

(* Size-check and write to the store: afterwards the block is clean. *)
let durable_write t b page =
  match check_size t page with
  | Error _ as e -> e
  | Ok () -> (
      match store_write t b page with
      | Error _ as e -> e
      | Ok () ->
          Hashtbl.remove t.dirty b;
          Ok ())

let write_through t b page =
  match durable_write t b page with
  | Error _ as e -> e
  | Ok () ->
      if t.cache_enabled then cache_set t b (entry page ~dirty:false) else Ok ()

let flush_block t b =
  let e = Lru.peek_or t.cache b absent in
  if not e.dirty then Ok ()
  else
    match store_write t b e.page with
    | Error _ as err -> err
    | Ok () ->
        mark_clean t b e;
        Ok ()

let flush t =
  (* The dirty set, in the same deterministic ascending order the old
     whole-cache fold produced, without touching clean entries. *)
  let rec go = function
    | [] -> Ok ()
    | b :: rest -> ( match flush_block t b with Ok () -> go rest | Error _ as e -> e)
  in
  if Hashtbl.length t.dirty = 0 then Ok () else go (Det.sorted_int_keys t.dirty)

let dirty_count t = Hashtbl.length t.dirty

let set_ref t b page i entry =
  let e = Lru.peek_or t.cache b absent in
  if e.dirty && e.page == page then begin
    Page.set_ref page i entry;
    write t b page
  end
  else
    match Page.with_ref page i entry with
    | Ok page -> write t b page
    | Error msg -> Error (Errors.Store_failure msg)

let add_dirty t batch b =
  let e = Lru.peek_or t.cache b absent in
  if e.dirty then (b, e.page) :: batch else batch

let cached_blocks t = List.rev (Lru.fold (fun b _ acc -> b :: acc) t.cache [])

let lock t b =
  if t.store.Store.lock b then begin
    Hashtbl.replace t.locked b ();
    ignore (Lru.pin t.cache b);
    true
  end
  else false

let unlock t b =
  Hashtbl.remove t.locked b;
  Lru.unpin t.cache b;
  t.store.Store.unlock b

(* A crashed holder's store locks die with it. *)
let drop_volatile t =
  List.iter t.store.Store.unlock (Det.sorted_int_keys t.locked);
  Hashtbl.reset t.locked;
  Lru.clear t.cache;
  Hashtbl.reset t.dirty

(* Our own pending write is authoritative, so a dirty entry stays as it
   is; [absent] is never marked. *)
let refresh t b =
  let e = Lru.peek_or t.cache b absent in
  if e != absent && not e.dirty then e.stale <- true

(* A published reference: its entry is refreshed in place and promoted,
   as [cache_set] would, or a clean one is added. *)
let settle t b page =
  Hashtbl.remove t.dirty b;
  let e = if t.cache_enabled then Lru.find_or t.cache b absent else absent in
  if e != absent then (set_clean e page; evict_excess t)
  else if t.cache_enabled then cache_set t b (entry page ~dirty:false)
  else Ok ()

(* A durable batch's first [pages] entries become clean in place; the
   rest settle. *)
let rec clean t pages = function
  | [] -> Ok ()
  | (b, _) :: rest when pages > 0 ->
      let e = Lru.peek_or t.cache b absent in
      if e != absent then mark_clean t b e;
      clean t (pages - 1) rest
  | (b, page) :: rest -> ( match settle t b page with Ok () -> clean t 0 rest | Error _ as e -> e)

let put_batch t batch =
  t.store.Store.write_batch (List.map (fun (b, page) -> (b, Page.encode page)) batch)

(* The publish leg: every page is size-checked before the first store
   write (a too-large page cannot leave the batch half-written), then the
   batch's images go to the store in one [write_batch] call — one
   amortised stable-storage round trip when the backend is a stable
   pair. The store writes in order and stops at the first error, so on
   failure the durable state is a prefix of the batch. The dirty pages
   then stay dirty, so a retry writes them again; every other cached
   copy of a batch block is dropped, since we no longer know which
   writes landed. *)
let write_through_batch ?(pages = 0) t batch =
  match List.find_opt (fun (_, p) -> Page.encoded_size p > page_size_limit t) batch with
  | Some (_, page) -> check_size t page
  | None -> (
      let written =
        if Trace.costing t.trace then
          Trace.costed t.trace ~kind:"pagestore.write" (fun () -> put_batch t batch)
        else put_batch t batch
      in
      match written with
      | Ok () -> clean t pages batch
      | Error msg ->
          List.iter (fun (b, _) -> if not (Hashtbl.mem t.dirty b) then drop_entry t b) batch;
          Error (Errors.Store_failure msg))

let free t b =
  drop_entry t b;
  ignore (t.store.Store.free b)

(* {2 Cache-neutral access}

   A cached entry is believed unless stale (a stale one must be re-read
   before it is believed, which is exactly what these calls do — without
   revalidating the entry). [Lru.peek_or] neither reorders nor counts. *)

let store_failure r = Result.map_error (fun msg -> Errors.Store_failure msg) r

(* [read_page] applied to the store image of [b]. *)
let read_with t b read_page =
  match t.store.Store.read b with
  | Ok image -> store_failure (read_page image)
  | Error msg -> Error (Errors.Store_failure msg)

let from_store t b read_page =
  if Trace.costing t.trace then
    Trace.costed t.trace ~kind:"store.read" (fun () -> read_with t b read_page)
  else read_with t b read_page

(* The cached entry of [b], when it can be believed. *)
let believed t b =
  let e = Lru.peek_or t.cache b absent in
  if e != absent && not e.stale then e else absent

let peek t b =
  let e = believed t b in
  if e != absent then e.answer else from_store t b (Page.decode ~memo:true)

let peek_commit_ref t b =
  let e = believed t b in
  if e != absent then Ok e.page.Page.header.Page.commit_ref
  else from_store t b Page.image_commit_ref

let peek_children t b f =
  let e = believed t b in
  if e != absent then begin
    let refs = e.page.Page.refs in
    for i = 0 to Array.length refs - 1 do
      f refs.(i).Page.block
    done;
    Ok ()
  end
  else from_store t b (fun image -> Page.iter_image_refs image f)

let write_through_in_place t b page =
  match durable_write t b page with
  | Error _ as e -> e
  | Ok () ->
      let e = Lru.peek_or t.cache b absent in
      if e != absent then set_clean e page;
      Ok ()
