open Afs_core

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok

let create ?cache ?capacity store =
  Pagestore.create ?cache ?capacity ~counters:(Afs_util.Stats.Counter.create ()) store

let fresh ?cache ?capacity () =
  let store = Store.memory ~block_size:1024 () in
  (store, create ?cache ?capacity store)

(* A fresh page store and a reader of the table it counts into. *)
let counted ?capacity ?(store = Store.memory ~block_size:1024 ()) () =
  let counters = Afs_util.Stats.Counter.create () in
  (store, Pagestore.create ?capacity ~counters store, Afs_util.Stats.Counter.get counters)

let page_with_data s = Page.with_data Page.empty (bytes s)

let read_data ps b = Helpers.str (ok (Pagestore.read ps b)).Page.data

let test_write_read_cached () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "cached")));
  Alcotest.(check string) "read hits cache" "cached" (read_data ps b)

let test_write_is_deferred () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "dirty")));
  Alcotest.(check int) "dirty count" 1 (Pagestore.dirty_count ps);
  (match store.Store.read b with
  | Error _ -> () (* Not durable yet: exactly the §5.4 point. *)
  | Ok _ -> Alcotest.fail "write reached the store before flush");
  ignore (ok (Pagestore.flush ps));
  Alcotest.(check int) "clean after flush" 0 (Pagestore.dirty_count ps);
  match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "not durable after flush: %s" msg

let test_write_through_immediate () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "now")));
  Alcotest.(check int) "not dirty" 0 (Pagestore.dirty_count ps);
  match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "not durable: %s" msg

let test_flush_block_single () =
  let _, ps = fresh () in
  let b1 = ok (Pagestore.allocate ps) in
  let b2 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b1 (page_with_data "one")));
  ignore (ok (Pagestore.write ps b2 (page_with_data "two")));
  ignore (ok (Pagestore.flush_block ps b1));
  Alcotest.(check int) "one still dirty" 1 (Pagestore.dirty_count ps)

let test_crash_loses_unflushed () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "will vanish")));
  Pagestore.drop_volatile ps;
  Alcotest.(check int) "dirty gone" 0 (Pagestore.dirty_count ps);
  match Pagestore.read ps b with
  | Error (Errors.Store_failure _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "unflushed write survived the crash"

let test_crash_keeps_flushed () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "durable")));
  ignore (ok (Pagestore.flush ps));
  Pagestore.drop_volatile ps;
  Alcotest.(check string) "reloaded from store" "durable" (read_data ps b)

let test_page_too_large () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  match Pagestore.write ps b (page_with_data (String.make 2000 'x')) with
  | Error (Errors.Page_too_large { limit = 1024; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok () -> Alcotest.fail "oversized page accepted"

let test_overwrite_dirty_keeps_one_dirty_count () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "a")));
  ignore (ok (Pagestore.write ps b (page_with_data "b")));
  Alcotest.(check int) "counted once" 1 (Pagestore.dirty_count ps);
  Alcotest.(check string) "latest wins" "b" (read_data ps b)

let test_refresh_rereads_clean () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "v1")));
  (* Another server writes the block behind our back. *)
  (match store.Store.write b (Page.encode (page_with_data "v2")) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "stale cache serves v1" "v1" (read_data ps b);
  Pagestore.refresh ps b;
  Alcotest.(check string) "fresh after refresh" "v2" (read_data ps b)

let test_refresh_keeps_dirty () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "durable")));
  ignore (ok (Pagestore.write ps b (page_with_data "pending")));
  (* A commit's test-and-set refreshes its base, which may be an earlier
     winner's version page awaiting the same publish: our own pending
     write is authoritative and must survive. *)
  Pagestore.refresh ps b;
  Alcotest.(check int) "still dirty" 1 (Pagestore.dirty_count ps);
  Alcotest.(check string) "pending write served" "pending" (read_data ps b);
  match Page.decode (Helpers.ok_str (store.Store.read b)) with
  | Ok p -> Helpers.check_bytes "store untouched" "durable" p.Page.data
  | Error msg -> Alcotest.fail msg

let test_free_drops_cache () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "x")));
  Pagestore.free ps b;
  match Pagestore.read ps b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "freed block still readable"

let test_uncached_mode () =
  let store, ps = fresh ~cache:false () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "direct")));
  Alcotest.(check int) "never dirty" 0 (Pagestore.dirty_count ps);
  (match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "write-through failed: %s" msg);
  Alcotest.(check string) "reads via store" "direct" (read_data ps b)

let test_decode_error_surfaces () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  (match store.Store.write b (bytes "garbage block") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Pagestore.read ps b with
  | Error (Errors.Store_failure _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "decoded garbage"

let test_locks_pass_through () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  Alcotest.(check bool) "first lock" true (Pagestore.lock ps b);
  Alcotest.(check bool) "second denied" false (Pagestore.lock ps b);
  Pagestore.unlock ps b;
  Alcotest.(check bool) "relock after unlock" true (Pagestore.lock ps b)

(* A crash frees the crashed server's store locks in the store layer, and
   only those: two pagestores share one store, as two servers do. *)
let test_crash_frees_own_locks () =
  let store = Store.memory ~block_size:1024 () in
  let crashed = create store and survivor = create store in
  let mine = ok (Pagestore.allocate crashed) and theirs = ok (Pagestore.allocate survivor) in
  Alcotest.(check bool) "crashed locks" true (Pagestore.lock crashed mine);
  Alcotest.(check bool) "survivor locks" true (Pagestore.lock survivor theirs);
  Pagestore.drop_volatile crashed;
  Alcotest.(check bool) "crashed server's lock freed" true (Pagestore.lock survivor mine);
  Alcotest.(check bool) "survivor's lock still held" false (Pagestore.lock crashed theirs)

(* {2 Bounded capacity: eviction, write-back, pinning} *)

let test_eviction_writes_back_dirty () =
  let store, ps, counter = counted ~capacity:2 () in
  let blocks = List.init 4 (fun i -> (i, ok (Pagestore.allocate ps))) in
  List.iter
    (fun (i, b) -> ignore (ok (Pagestore.write ps b (page_with_data (Printf.sprintf "d%d" i)))))
    blocks;
  (* Capacity 2, four dirty inserts: two evictions, each written back. *)
  Alcotest.(check int) "evictions" 2 (counter "cache.evictions");
  Alcotest.(check int) "writebacks" 2 (counter "cache.writebacks");
  Alcotest.(check int) "dirty entries left" 2 (Pagestore.dirty_count ps);
  (* The evicted writes reached the store without any flush. *)
  let b0 = List.assoc 0 blocks in
  (match store.Store.read b0 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "evicted dirty block not written back: %s" msg);
  (* Re-reading the evictee is a miss but sees the written-back data. *)
  Alcotest.(check string) "write-back preserved data" "d0" (read_data ps b0)

let test_eviction_order_is_lru () =
  let _, ps, counter = counted ~capacity:2 () in
  let b0 = ok (Pagestore.allocate ps) in
  let b1 = ok (Pagestore.allocate ps) in
  let b2 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "a")));
  ignore (ok (Pagestore.write ps b1 (page_with_data "b")));
  ignore (read_data ps b0) (* touch b0: b1 becomes the LRU *);
  let m0 = counter "cache.misses" in
  ignore (ok (Pagestore.write ps b2 (page_with_data "c")));
  ignore (read_data ps b0);
  Alcotest.(check int) "b0 still cached after b2 insert" m0 (counter "cache.misses");
  ignore (read_data ps b1);
  Alcotest.(check int) "b1 was the evictee" (m0 + 1) (counter "cache.misses")

let test_locked_block_never_evicted () =
  let _, ps, counter = counted ~capacity:1 () in
  let b0 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "pinned")));
  Alcotest.(check bool) "lock" true (Pagestore.lock ps b0);
  (* Push many other blocks through the one-slot cache. *)
  for i = 1 to 5 do
    let b = ok (Pagestore.allocate ps) in
    ignore (ok (Pagestore.write ps b (page_with_data (string_of_int i))))
  done;
  let h0 = counter "cache.hits" in
  Alcotest.(check string) "pinned entry survived" "pinned" (read_data ps b0);
  Alcotest.(check int) "served from cache" (h0 + 1) (counter "cache.hits");
  Pagestore.unlock ps b0;
  (* Unpinned now: the next insert evicts it (write-back keeps the data). *)
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "x")));
  let m0 = counter "cache.misses" in
  Alcotest.(check string) "data survives via write-back" "pinned" (read_data ps b0);
  Alcotest.(check int) "read after unlock misses" (m0 + 1) (counter "cache.misses")

let test_hit_miss_counters () =
  let _, ps, counter = counted () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "x")));
  Pagestore.refresh ps b;
  ignore (read_data ps b);
  ignore (read_data ps b);
  Alcotest.(check int) "one miss" 1 (counter "cache.misses");
  Alcotest.(check int) "one hit" 1 (counter "cache.hits")

let test_flush_then_evict_no_second_write () =
  let _, ps, counter = counted ~capacity:1 () in
  let b0 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "v")));
  ignore (ok (Pagestore.flush ps));
  (* Clean after flush: evicting it must not write back again. *)
  let b1 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b1 (page_with_data "w")));
  Alcotest.(check int) "no write-back of clean evictee" 0 (counter "cache.writebacks");
  Alcotest.(check int) "evicted" 1 (counter "cache.evictions")

(* A cache hit hands out the answer its entry keeps, so it allocates
   nothing. *)
let test_hit_allocates_nothing () =
  let _, ps, counter = counted () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "hot")));
  ignore (read_data ps b);
  let hits = counter "cache.hits" in
  let read () = match Pagestore.read ps b with Ok _ -> () | Error _ -> Alcotest.fail "read" in
  Alcotest.(check (float 0.)) "hit allocates no words" 0. (Helpers.minor_words_of read);
  Alcotest.(check int) "it was a hit" (hits + 1) (counter "cache.hits");
  Alcotest.(check bool) "the same answer each time" true
    (Pagestore.read ps b == Pagestore.read ps b);
  ignore (ok (Pagestore.write ps b (page_with_data "new")));
  Alcotest.(check string) "a write rebuilds the answer" "new" (read_data ps b)

(* {2 Encode-once: each page value is serialised at most once} *)

let encodes_during f =
  let before = Page.fresh_encodes () in
  f ();
  Page.fresh_encodes () - before

let test_one_encode_per_write () =
  let _, ps = fresh () in
  let blocks = List.init 3 (fun _ -> ok (Pagestore.allocate ps)) in
  let n =
    encodes_during (fun () ->
        List.iteri
          (fun i b -> ignore (ok (Pagestore.write ps b (page_with_data (string_of_int i)))))
          blocks;
        ignore (ok (Pagestore.flush ps)))
  in
  Alcotest.(check int) "one encode per written page" 3 n;
  Alcotest.(check int) "second flush encodes nothing" 0
    (encodes_during (fun () -> ignore (ok (Pagestore.flush ps))))

let test_one_encode_write_through () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  let n =
    encodes_during (fun () -> ignore (ok (Pagestore.write_through ps b (page_with_data "x"))))
  in
  (* The historical bug this guards against: [write_through] used to pay
     one encode for the size check and a second for the store write. *)
  Alcotest.(check int) "write_through encodes exactly once" 1 n

let test_batch_encodes_k () =
  let _, ps = fresh () in
  let entries =
    List.init 4 (fun i -> (ok (Pagestore.allocate ps), page_with_data (string_of_int i)))
  in
  let n = encodes_during (fun () -> ignore (ok (Pagestore.write_through_batch ps entries))) in
  Alcotest.(check int) "batch of k encodes k" 4 n

let test_faulted_page_rewrites_free () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "v")));
  Pagestore.drop_volatile ps;
  (* Fault the page in (decode seeds the memo), write the same value back
     and flush: the round trip must not serialise at all. *)
  let n =
    encodes_during (fun () ->
        let p = ok (Pagestore.read ps b) in
        ignore (ok (Pagestore.write ps b p));
        ignore (ok (Pagestore.flush ps)))
  in
  Alcotest.(check int) "fault-in/flush-out costs zero encodes" 0 n

let test_refresh_revalidates_in_place () =
  let _, ps, counter = counted () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "same")));
  let p0 = ok (Pagestore.read ps b) in
  Pagestore.refresh ps b;
  let m0 = counter "cache.misses" in
  let p1 = ok (Pagestore.read ps b) in
  (* The store image is unchanged, so revalidation must reuse the decoded
     page (physically: the memo comparison short-circuits the decode) while
     still accounting the store round trip as a miss. *)
  Alcotest.(check bool) "same decoded page reused" true (p0 == p1);
  Alcotest.(check int) "revalidation counts as a miss" (m0 + 1) (counter "cache.misses");
  let h0 = counter "cache.hits" in
  ignore (ok (Pagestore.read ps b));
  Alcotest.(check int) "entry is fresh again" (h0 + 1) (counter "cache.hits")

(* {2 Property: cached reads ≡ decode-from-image, under random eviction} *)

(* Drive a tiny (capacity 2) pagestore with random writes, reads, flushes,
   publish batches of dirty pages and stale-markings over 6 blocks,
   mirroring every write in a plain model map. Whatever the
   eviction/revalidation sequence did, a read must return a page
   structurally equal to the model's last write, and after a final flush
   the store image must decode to the same value. *)
let prop_cache_reads_equal_model =
  let open QCheck2 in
  let nblocks = 6 in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun b s -> `Write (b, s)) (int_bound (nblocks - 1)) (small_string ~gen:printable);
          map (fun b -> `Read b) (int_bound (nblocks - 1));
          return `Flush;
          map (fun b -> `Refresh b) (int_bound (nblocks - 1));
          map (fun b -> `Publish b) (int_bound (nblocks - 1));
        ])
  in
  Test.make ~name:"cached reads = decode-from-image under random eviction" ~count:200
    Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let store = Store.memory ~block_size:1024 () in
      let ps = create ~capacity:2 store in
      let blocks = Array.init nblocks (fun _ -> ok (Pagestore.allocate ps)) in
      let model = Array.make nblocks None in
      (* Seed every block so reads are always defined. *)
      Array.iteri
        (fun i b ->
          let p = page_with_data (Printf.sprintf "init%d" i) in
          ignore (ok (Pagestore.write_through ps b p));
          model.(i) <- Some p)
        blocks;
      List.iter
        (function
          | `Write (i, s) ->
              let p = page_with_data s in
              ignore (ok (Pagestore.write ps blocks.(i) p));
              model.(i) <- Some p
          | `Read i -> (
              let p = ok (Pagestore.read ps blocks.(i)) in
              match model.(i) with
              | Some m when Page.equal p m -> ()
              | _ -> Test.fail_reportf "read of block %d diverged from model" i)
          | `Flush -> ignore (ok (Pagestore.flush ps))
          | `Refresh i -> Pagestore.refresh ps blocks.(i)
          | `Publish i ->
              (* Two blocks' dirty pages ride a batch ahead of a third
                 block's rewrite, as a commit's pages precede its reference. *)
              let j = (i + 2) mod nblocks in
              let refs = Option.to_list (Option.map (fun p -> (blocks.(j), p)) model.(j)) in
              let batch =
                List.fold_left (Pagestore.add_dirty ps) refs
                  [ blocks.((i + 1) mod nblocks); blocks.(i) ]
              in
              let pages = List.length batch - List.length refs in
              ignore (ok (Pagestore.write_through_batch ~pages ps batch)))
        ops;
      ignore (ok (Pagestore.flush ps));
      Array.iteri
        (fun i b ->
          let cached = ok (Pagestore.read ps b) in
          let durable =
            match Page.decode (Helpers.ok_str (store.Store.read b)) with
            | Ok p -> p
            | Error msg -> Test.fail_reportf "store image undecodable: %s" msg
          in
          match model.(i) with
          | Some m ->
              if not (Page.equal cached m) then
                Test.fail_reportf "final cached read of block %d diverged" i;
              if not (Page.equal durable m) then
                Test.fail_reportf "final store image of block %d diverged" i
          | None -> ())
        blocks;
      true)

(* Every commit's validate and every chase of the current version
   refresh a block before re-reading it: marking it stale, or leaving a
   dirty or uncached block alone, allocates nothing. *)
let test_refresh_allocates_nothing () =
  let _, ps, counter = counted () in
  let clean = ok (Pagestore.allocate ps) and dirty = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps clean (page_with_data "clean")));
  ignore (ok (Pagestore.write ps dirty (page_with_data "dirty")));
  let uncached = 1_000_000 in
  List.iter
    (fun (what, b) ->
      let words = Helpers.minor_words_of (fun () -> Pagestore.refresh ps b) in
      if words > 0. then Alcotest.failf "refresh of a %s block allocates %.0f words" what words)
    [ ("clean", clean); ("dirty", dirty); ("uncached", uncached) ];
  let misses = counter "cache.misses" in
  Alcotest.(check string) "the clean block is re-read" "clean" (read_data ps clean);
  Alcotest.(check int) "as a revalidation" (misses + 1) (counter "cache.misses");
  Alcotest.(check string) "the dirty block kept its write" "dirty" (read_data ps dirty)

(* {2 Shared images}

   A memory store keeps the bytes it is handed and reads them back
   uncopied, so revalidating an unchanged page finds the page's own memo
   and compares nothing. *)

module Image = Afs_util.Image

let test_memory_read_shares_image () =
  let store = Store.memory () in
  let b = Helpers.ok_str (store.Store.allocate ()) in
  let image = Bytes.make 1024 'i' in
  Helpers.ok_str (store.Store.write b image);
  let stored = Helpers.ok_str (store.Store.read b) in
  Alcotest.(check bool) "the written bytes" true (stored.Image.head == image);
  Alcotest.(check bool) "one image per block" true (Helpers.ok_str (store.Store.read b) == stored);
  let words =
    Helpers.minor_words_of (fun () -> ignore (Sys.opaque_identity (store.Store.read b)))
  in
  if words > 2. then Alcotest.failf "memory read allocates %.0f words (want its Ok, 2)" words

let test_revalidate_allocates_only_answer () =
  let _, ps, counter = counted ~store:(Store.memory ()) () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data (String.make 1024 'r'))));
  let revalidate () = ignore (Sys.opaque_identity (Pagestore.read ps b)) in
  Pagestore.refresh ps b;
  revalidate ();
  Pagestore.refresh ps b;
  let words = Helpers.minor_words_of revalidate in
  Alcotest.(check int) "both re-reads revalidated" 2 (counter "cache.misses");
  if words > 2. then
    Alcotest.failf "revalidating a 1 KiB page allocates %.0f words (want the store's Ok, 2)" words

(* Over the stable pair too: its disks keep the written bytes beside
   their header, and a sound read answers them, so the page's memo is
   the image the store reads back. Revalidating an unchanged page then
   compares pointers, and a page faulted in from the pair keeps the
   read image as its memo, so its re-read copies nothing either. Either
   re-read allocates what the pair's read does (16 words): the store
   adds nothing per operation. *)
let test_stable_pair_revalidation_shares_image () =
  let pair =
    Afs_stable.Stable_pair.create ~media:Afs_disk.Media.electronic ~blocks:64 ~block_size:2048 ()
  in
  let store = Store.of_stable_pair pair in
  let ps = create store in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data (String.make 1024 's'))));
  let stored () = Helpers.ok_str (store.Store.read b) in
  let memo ps = Option.get (Page.memoized_image (ok (Pagestore.read ps b))) in
  Alcotest.(check bool) "the memo holds the stored bytes" true
    ((memo ps).Image.head == (stored ()).Image.head);
  let reread ps () =
    Pagestore.refresh ps b;
    ignore (Sys.opaque_identity (Pagestore.read ps b))
  in
  reread ps ();
  let words = Helpers.minor_words_of (reread ps) in
  if words > 16. then
    Alcotest.failf "revalidating a 1 KiB stable page allocates %.0f words (want at most 16)" words;
  let cold = create store in
  let faulted = ok (Pagestore.read cold b) in
  Alcotest.(check bool) "a faulted-in page's memo is the stored image" true
    (memo cold == stored ());
  reread cold ();
  let words = Helpers.minor_words_of (reread cold) in
  if words > 16. then
    Alcotest.failf
      "re-reading a faulted-in 1 KiB stable page allocates %.0f words (want at most 16)" words;
  Alcotest.(check bool) "the re-read answers the faulted page" true
    (ok (Pagestore.read cold b) == faulted)

(* {2 Split-once images}

   A store keeps a block's written bytes whole until the first decode
   splits them into the page's head and data. Every later miss on the
   block, by any page store over that store, decodes the split image and
   shares its data: a 1 KiB page's miss then allocates what a 16-byte
   page's does, over the memory store and over the stable pair. Copying
   the data would cost about 130 words more. *)

let electronic_pair () =
  Store.of_stable_pair
    (Afs_stable.Stable_pair.create ~media:Afs_disk.Media.electronic ~blocks:64 ~block_size:2048 ())

(* A one-page cache that wrote a [size]-byte page to [b] and then another
   page, which evicted it, and a reader that evicts [b] again. *)
let evicted store ~size =
  let ps = create ~capacity:1 store in
  let b = ok (Pagestore.allocate ps) and other = ok (Pagestore.allocate ps) in
  ok (Pagestore.write_through ps b (page_with_data (String.make size 'm')));
  ok (Pagestore.write_through ps other (page_with_data "other"));
  (ps, b, fun () -> ignore (ok (Pagestore.read ps other)))

let second_miss_words store ~size =
  let ps, b, evict = evicted store ~size in
  let first = ok (Pagestore.read ps b) in
  evict ();
  let words =
    Helpers.minor_words_of (fun () -> ignore (Sys.opaque_identity (Pagestore.read ps b)))
  in
  Alcotest.(check bool) "the second miss shares the first's data" true
    ((ok (Pagestore.read ps b)).Page.data == first.Page.data);
  words

let test_miss_copies_no_data () =
  List.iter
    (fun (what, store) ->
      let small = second_miss_words (store ()) ~size:16
      and large = second_miss_words (store ()) ~size:1024 in
      if large > small +. 4. then
        Alcotest.failf "%s: a 1 KiB page's miss allocates %.0f words, a 16-byte page's %.0f" what
          large small)
    [ ("memory store", fun () -> Store.memory ~block_size:2048 ()); ("stable pair", electronic_pair) ]

(* The first miss splits the stored image where the page's head ends, and
   a page store that never saw the block shares the same data. *)
let test_first_miss_splits () =
  let store = Store.memory ~block_size:2048 () in
  let ps, b, _ = evicted store ~size:64 in
  let stored () = Helpers.ok_str (store.Store.read b) in
  let written = Bytes.copy (Helpers.bytes_of (stored ())) in
  Alcotest.(check bool) "whole until read" true (Image.is_whole (stored ()));
  let page = ok (Pagestore.read ps b) in
  Alcotest.(check bool) "split by the miss" false (Image.is_whole (stored ()));
  Alcotest.(check bool) "its data is the page's" true ((stored ()).Image.data == page.Page.data);
  Helpers.check_bytes "the written bytes, unchanged" (Helpers.str written)
    (Helpers.bytes_of (stored ()));
  let cold = ok (Pagestore.read (create store) b) in
  Alcotest.(check bool) "another page store shares it" true (cold.Page.data == page.Page.data)

let () =
  Alcotest.run "pagestore"
    [
      ( "write-back cache",
        [
          quick "write/read cached" test_write_read_cached;
          quick "writes deferred until flush" test_write_is_deferred;
          quick "write_through immediate" test_write_through_immediate;
          quick "flush single block" test_flush_block_single;
          quick "crash loses unflushed" test_crash_loses_unflushed;
          quick "crash keeps flushed" test_crash_keeps_flushed;
          quick "overwrite dirty counted once" test_overwrite_dirty_keeps_one_dirty_count;
          quick "uncached mode" test_uncached_mode;
        ] );
      ( "coherence",
        [
          quick "refresh" test_refresh_rereads_clean;
          quick "refresh dirty" test_refresh_keeps_dirty;
          quick "refresh allocates nothing" test_refresh_allocates_nothing;
          quick "free drops cache" test_free_drops_cache;
        ] );
      ( "bounded capacity",
        [
          quick "dirty eviction writes back" test_eviction_writes_back_dirty;
          quick "eviction order is LRU" test_eviction_order_is_lru;
          quick "locked block never evicted" test_locked_block_never_evicted;
          quick "hit/miss counters" test_hit_miss_counters;
          quick "clean evictee not rewritten" test_flush_then_evict_no_second_write;
          quick "hit allocates nothing" test_hit_allocates_nothing;
        ] );
      ( "errors",
        [
          quick "page too large" test_page_too_large;
          quick "decode error surfaces" test_decode_error_surfaces;
          quick "locks pass through" test_locks_pass_through;
          quick "crash frees own locks" test_crash_frees_own_locks;
        ] );
      ( "encode-once",
        [
          quick "one encode per write" test_one_encode_per_write;
          quick "write_through encodes once" test_one_encode_write_through;
          quick "batch of k encodes k" test_batch_encodes_k;
          quick "fault-in/flush-out is encode-free" test_faulted_page_rewrites_free;
          quick "refresh revalidates in place" test_refresh_revalidates_in_place;
        ] );
      ( "shared images",
        [
          quick "memory read is the written image" test_memory_read_shares_image;
          quick "revalidation allocates its answer" test_revalidate_allocates_only_answer;
          quick "stable pair revalidation shares" test_stable_pair_revalidation_shares_image;
          quick "a miss copies no data" test_miss_copies_no_data;
          quick "the first miss splits" test_first_miss_splits;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_cache_reads_equal_model ] );
    ]
