open Afs_util

let quick = Helpers.quick

(* {2 Xrng} *)

let test_rng_determinism () =
  let a = Xrng.create 42 and b = Xrng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xrng.bits64 a) (Xrng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Xrng.create 1 and b = Xrng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Xrng.bits64 a = Xrng.bits64 b)

let test_rng_int_bounds () =
  let rng = Xrng.create 7 in
  for _ = 1 to 1000 do
    let v = Xrng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Xrng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Xrng.int: bound must be positive")
    (fun () -> ignore (Xrng.int rng 0))

let test_rng_int_in () =
  let rng = Xrng.create 9 in
  for _ = 1 to 500 do
    let v = Xrng.int_in rng (-3) 4 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 4)
  done

let test_rng_float_bounds () =
  let rng = Xrng.create 11 in
  for _ = 1 to 1000 do
    let v = Xrng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Xrng.create 5 in
  let child = Xrng.split parent in
  let a = Xrng.bits64 parent and b = Xrng.bits64 child in
  Alcotest.(check bool) "streams diverge" false (a = b)

let test_rng_exponential_positive () =
  let rng = Xrng.create 13 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "positive" true (Xrng.exponential rng 10.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Xrng.create 21 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Xrng.exponential rng 10.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (mean > 9.0 && mean < 11.0)

let test_rng_shuffle_permutation () =
  let rng = Xrng.create 3 in
  let a = Array.init 50 Fun.id in
  Xrng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Xrng.create 17 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "picked member" true (Array.mem (Xrng.pick rng a) a)
  done

(* {2 Zipf} *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~theta:0.0 in
  for k = 0 to 3 do
    Alcotest.(check bool) "uniform mass" true (abs_float (Zipf.probability z k -. 0.25) < 1e-9)
  done

let test_zipf_skew_orders_mass () =
  let z = Zipf.create ~n:10 ~theta:1.0 in
  for k = 0 to 8 do
    Alcotest.(check bool) "monotone" true (Zipf.probability z k >= Zipf.probability z (k + 1))
  done

let test_zipf_mass_sums_to_one () =
  let z = Zipf.create ~n:100 ~theta:0.7 in
  let total = ref 0.0 in
  for k = 0 to 99 do
    total := !total +. Zipf.probability z k
  done;
  Alcotest.(check bool) "sums to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_zipf_sample_range () =
  let z = Zipf.create ~n:8 ~theta:0.9 in
  let rng = Xrng.create 23 in
  for _ = 1 to 1000 do
    let k = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (k >= 0 && k < 8)
  done

let test_zipf_sample_distribution () =
  let z = Zipf.create ~n:4 ~theta:1.2 in
  let rng = Xrng.create 29 in
  let counts = Array.make 4 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 3 do
    let expected = Zipf.probability z k *. float_of_int n in
    let observed = float_of_int counts.(k) in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d within 10%%" k)
      true
      (abs_float (observed -. expected) < 0.1 *. expected +. 50.0)
  done

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:1.0))

(* {2 Capability} *)

let test_cap_mint_validate () =
  let secret = Capability.secret_of_seed 99 in
  let cap =
    Capability.mint secret ~port:(Capability.port_of_int 7) ~obj:42
      ~rights:Capability.rights_all
  in
  Alcotest.(check bool) "validates" true (Capability.validate secret cap)

let test_cap_forgery_detected () =
  let secret = Capability.secret_of_seed 99 in
  let cap =
    Capability.mint secret ~port:(Capability.port_of_int 7) ~obj:42
      ~rights:Capability.right_read
  in
  let forged = { cap with Capability.obj = 43 } in
  Alcotest.(check bool) "forged obj fails" false (Capability.validate secret forged);
  let amplified = { cap with Capability.rights = Capability.rights_all } in
  Alcotest.(check bool) "amplified rights fail" false (Capability.validate secret amplified)

let test_cap_wrong_secret () =
  let s1 = Capability.secret_of_seed 1 and s2 = Capability.secret_of_seed 2 in
  let cap =
    Capability.mint s1 ~port:(Capability.port_of_int 7) ~obj:1 ~rights:Capability.rights_all
  in
  Alcotest.(check bool) "other secret rejects" false (Capability.validate s2 cap)

let test_cap_restrict () =
  let secret = Capability.secret_of_seed 5 in
  let cap =
    Capability.mint secret ~port:(Capability.port_of_int 9) ~obj:3 ~rights:Capability.rights_all
  in
  match Capability.restrict secret cap Capability.right_read with
  | Error msg -> Alcotest.failf "restrict failed: %s" msg
  | Ok restricted ->
      Alcotest.(check bool) "restricted validates" true (Capability.validate secret restricted);
      (match Capability.restrict secret restricted Capability.rights_all with
      | Ok _ -> Alcotest.fail "amplification allowed"
      | Error _ -> ())

(* Every request checks a capability, and many mint one: the check field's
   hash must not box its intermediates, so [validate] allocates nothing
   and [mint] only its record. *)
let test_cap_check_allocates_nothing () =
  let secret = Capability.secret_of_seed 5 and port = Capability.port_of_int 9 in
  let cap = Capability.mint secret ~port ~obj:3 ~rights:Capability.rights_all in
  let validate () = ignore (Sys.opaque_identity (Capability.validate secret cap)) in
  let mint () =
    ignore (Sys.opaque_identity (Capability.mint secret ~port ~obj:3 ~rights:Capability.rights_all))
  in
  Alcotest.(check (float 0.)) "validate" 0. (Helpers.minor_words_of validate);
  (* The record: a header and four fields. *)
  Alcotest.(check (float 0.)) "mint" 5. (Helpers.minor_words_of mint)

let test_cap_rights_subset () =
  let open Capability in
  Alcotest.(check bool) "r ⊆ all" true (rights_subset right_read rights_all);
  Alcotest.(check bool) "all ⊄ r" false (rights_subset rights_all right_read);
  Alcotest.(check bool) "none ⊆ r" true (rights_subset rights_none right_read)

(* {2 Pagepath} *)

let test_path_roundtrip_string () =
  let cases = [ []; [ 0 ]; [ 1; 2; 3 ]; [ 42; 0; 7 ] ] in
  List.iter
    (fun l ->
      let p = Pagepath.of_list l in
      match Pagepath.of_string (Pagepath.to_string p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (Pagepath.equal p p')
      | Error msg -> Alcotest.fail msg)
    cases

let test_path_parent_child () =
  let p = Pagepath.of_list [ 1; 2 ] in
  let c = Pagepath.child p 3 in
  Alcotest.(check (list int)) "child" [ 1; 2; 3 ] (Pagepath.to_list c);
  (match Pagepath.parent c with
  | Some q -> Alcotest.(check bool) "parent" true (Pagepath.equal p q)
  | None -> Alcotest.fail "no parent");
  Alcotest.(check (option reject)) "root has no parent" None
    (Option.map ignore (Pagepath.parent Pagepath.root))

let test_path_prefix () =
  let a = Pagepath.of_list [ 1 ] and b = Pagepath.of_list [ 1; 2 ] in
  Alcotest.(check bool) "a prefixes b" true (Pagepath.is_prefix a b);
  Alcotest.(check bool) "b does not prefix a" false (Pagepath.is_prefix b a);
  Alcotest.(check bool) "root prefixes all" true (Pagepath.is_prefix Pagepath.root b);
  Alcotest.(check bool) "self-prefix" true (Pagepath.is_prefix b b)

let test_path_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Pagepath.of_list: negative index")
    (fun () -> ignore (Pagepath.of_list [ -1 ]))

let test_path_of_string_errors () =
  (match Pagepath.of_string "no-slash" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Pagepath.of_string "/1.x.2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted non-numeric"

let test_path_last_depth () =
  Alcotest.(check (option int)) "last of root" None (Pagepath.last Pagepath.root);
  Alcotest.(check (option int)) "last" (Some 9) (Pagepath.last (Pagepath.of_list [ 1; 9 ]));
  Alcotest.(check int) "depth" 2 (Pagepath.depth (Pagepath.of_list [ 1; 9 ]))

(* {2 Wire} *)

let test_wire_scalar_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0xCDEF;
  Wire.Writer.u32 w 0x12345678;
  Wire.Writer.u64 w 0x1122334455667788L;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0xCDEF (Wire.Reader.u16 r);
  Alcotest.(check int) "u32" 0x12345678 (Wire.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Wire.Reader.u64 r);
  Wire.Reader.expect_end r

let test_wire_varint_roundtrip () =
  let values = [ 0; 1; 127; 128; 300; 65535; 1 lsl 28; (1 lsl 56) - 1 ] in
  let w = Wire.Writer.create () in
  List.iter (Wire.Writer.varint w) values;
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  List.iter (fun v -> Alcotest.(check int) (string_of_int v) v (Wire.Reader.varint r)) values

let test_wire_string_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.string w "hello";
  Wire.Writer.string w "";
  Wire.Writer.sized_bytes w (Bytes.of_string "raw\x00data");
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check string) "s1" "hello" (Wire.Reader.string r);
  Alcotest.(check string) "s2" "" (Wire.Reader.string r);
  Alcotest.(check string) "bytes" "raw\x00data" (Bytes.to_string (Wire.Reader.sized_bytes r))

let test_wire_truncation_detected () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32 w 7;
  let full = Wire.Writer.contents w in
  let truncated = Bytes.sub full 0 2 in
  let r = Wire.Reader.of_bytes truncated in
  Alcotest.check_raises "truncated"
    (Wire.Decode_error "u32: truncated at 0")
    (fun () -> ignore (Wire.Reader.u32 r))

let test_wire_trailing_garbage_detected () =
  let r = Wire.Reader.of_bytes (Bytes.make 3 'x') in
  ignore (Wire.Reader.u8 r);
  Alcotest.check_raises "trailing"
    (Wire.Decode_error "trailing garbage: 2 bytes")
    (fun () -> Wire.Reader.expect_end r)

let test_wire_negative_varint_rejected () =
  let w = Wire.Writer.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Wire.Writer.varint: negative")
    (fun () -> Wire.Writer.varint w (-1))

let test_crc32_known_value () =
  (* CRC-32 of "123456789" is the classic check value 0xCBF43926. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Wire.crc32 (Bytes.of_string "123456789"))

let test_crc32_detects_flip () =
  let data = Bytes.of_string "some page image" in
  let crc = Wire.crc32 data in
  Bytes.set data 3 'X';
  Alcotest.(check bool) "differs" false (crc = Wire.crc32 data)

(* The classic byte-at-a-time CRC-32, kept here as the oracle for the
   eight-bytes-per-step [Wire.crc32]. *)
let crc32_reference b =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  Bytes.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) b;
  !c lxor 0xFFFFFFFF

(* Lengths 0–4200 hit every tail length mod 8, and more than one 1 KiB
   stable-storage block with its header. *)
let prop_crc32_matches_reference =
  QCheck2.Test.make ~name:"crc32 = byte-at-a-time reference" ~count:500
    QCheck2.Gen.(string_size (int_range 0 4200))
    (fun s ->
      let b = Bytes.of_string s in
      Wire.crc32 b = crc32_reference b)

let prop_crc32_sub =
  let gen =
    QCheck2.Gen.(
      let* s = string_size (int_range 0 300) in
      let n = String.length s in
      let* pos = int_range 0 n in
      let+ len = int_range 0 (n - pos) in
      (s, pos, len))
  in
  QCheck2.Test.make ~name:"crc32_sub = reference over the sub-range" ~count:300 gen
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Wire.crc32_sub b pos len = crc32_reference (Bytes.sub b pos len))

(* Header and payload of a stable-storage block lie in two buffers; one
   CRC runs across both, as though they were one. Lengths past 8 on both
   sides put the seam in the middle of the eight-byte loop. *)
let prop_crc32_continue =
  QCheck2.Test.make ~name:"crc32_continue over two = crc32 of both" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 40)) (string_size (int_range 0 300)))
    (fun (a, b) ->
      let a = Bytes.of_string a and b = Bytes.of_string b in
      Wire.crc32_continue (Wire.crc32 a) b 0 (Bytes.length b) = Wire.crc32 (Bytes.cat a b))

let test_wire_set_varint () =
  List.iter
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w v;
      let expected = Bytes.to_string (Wire.Writer.contents w) in
      let n = String.length expected in
      let b = Bytes.make (n + 2) '\xAA' in
      Alcotest.(check int) "varint_size" n (Wire.varint_size v);
      Alcotest.(check int) "next position" (1 + n) (Wire.set_varint b 1 v);
      Alcotest.(check string) "same bytes as Writer.varint" expected (Bytes.sub_string b 1 n);
      Alcotest.(check char) "neighbours untouched" '\xAA' (Bytes.get b (n + 1)))
    [ 0; 1; 127; 128; 300; 65535; 1 lsl 28; (1 lsl 56) - 1 ]

(* {2 Stats} *)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check bool) "mean" true (abs_float (Stats.Summary.mean s -. 5.0) < 1e-9)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean 0" true (Stats.Summary.mean s = 0.0)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Stats.Histogram.percentile h 0.5 in
  let p99 = Stats.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p50 near 500" true (p50 > 400.0 && p50 < 620.0);
  Alcotest.(check bool) "p99 near 990" true (p99 > 850.0 && p99 < 1200.0);
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "0 on empty at p=%g" p)
        true
        (Stats.Histogram.percentile h p = 0.0))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_histogram_endpoints_exact () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 3.7; 120.0; 0.25; 41.5 ];
  (* p=0/p=1 return the observed extremes, not bucket upper bounds. *)
  Alcotest.(check (float 0.0)) "p0 is the min" 0.25 (Stats.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 is the max" 120.0 (Stats.Histogram.percentile h 1.0)

let test_histogram_rejects_bad_p () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 1.0;
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p=%g" p)
        (Invalid_argument "Histogram.percentile")
        (fun () -> ignore (Stats.Histogram.percentile h p)))
    [ -0.1; 1.1; Float.nan ]

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add a 1.0;
  Stats.Histogram.add b 100.0;
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "count" 2 (Stats.Histogram.count m);
  Alcotest.(check (float 0.0)) "min crosses inputs" 1.0 (Stats.Histogram.percentile m 0.0);
  Alcotest.(check (float 0.0)) "max crosses inputs" 100.0 (Stats.Histogram.percentile m 1.0);
  Alcotest.(check int) "inputs untouched" 1 (Stats.Histogram.count a)

(* merge ≡ adding both streams: every percentile of the merged histogram
   matches the histogram built from the concatenated samples. *)
let prop_histogram_merge_is_stream_union =
  let sample = QCheck.(list_of_size (Gen.int_range 0 40) (float_range 0.001 50_000.0)) in
  QCheck.Test.make ~name:"histogram merge equals adding both streams" ~count:200
    QCheck.(pair sample sample)
    (fun (xs, ys) ->
      let of_list l =
        let h = Stats.Histogram.create () in
        List.iter (Stats.Histogram.add h) l;
        h
      in
      let merged = Stats.Histogram.merge (of_list xs) (of_list ys) in
      let union = of_list (xs @ ys) in
      Stats.Histogram.count merged = Stats.Histogram.count union
      && List.for_all
           (fun p ->
             Stats.Histogram.percentile merged p = Stats.Histogram.percentile union p)
           [ 0.0; 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

let test_counter_incr_get_missing () =
  let c = Stats.Counter.create () in
  Alcotest.(check int) "missing is 0" 0 (Stats.Counter.get c "never");
  Stats.Counter.incr c "x";
  Stats.Counter.incr ~by:0 c "zero";
  Alcotest.(check int) "by:0 still creates" 0 (Stats.Counter.get c "zero");
  Stats.Counter.incr ~by:(-1) c "x";
  Alcotest.(check int) "negative by decrements" 0 (Stats.Counter.get c "x");
  Alcotest.(check (list (pair string int)))
    "to_list keeps zeroed names" [ ("x", 0); ("zero", 0) ] (Stats.Counter.to_list c)

(* Hot paths bump counters by name on every request. *)
let test_counter_incr_allocates_nothing () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "x";
  let words = Helpers.minor_words_of (fun () -> Stats.Counter.incr c "x") in
  Alcotest.(check (float 0.)) "incr of an existing counter" 0. words;
  Alcotest.(check int) "counted" 2 (Stats.Counter.get c "x")

let test_counter_independent_instances () =
  let a = Stats.Counter.create () and b = Stats.Counter.create () in
  Stats.Counter.incr a "shared";
  Alcotest.(check int) "no cross-talk" 0 (Stats.Counter.get b "shared")

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "a";
  Stats.Counter.incr c "a";
  Stats.Counter.incr ~by:5 c "b";
  Alcotest.(check int) "a" 2 (Stats.Counter.get c "a");
  Alcotest.(check int) "b" 5 (Stats.Counter.get c "b");
  Alcotest.(check int) "missing" 0 (Stats.Counter.get c "zzz");
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 2); ("b", 5) ]
    (Stats.Counter.to_list c)

let test_ratio () =
  Alcotest.(check bool) "half" true (Stats.ratio 1 2 = 0.5);
  Alcotest.(check bool) "zero denominator" true (Stats.ratio 1 0 = 0.0)

(* [fill_printable] computes splitmix64 draws directly from the draw
   index; it must produce exactly the bytes (and final RNG state) of the
   one-[int]-per-byte loop it replaced, or every workload trace shifts. *)
let test_rng_fill_printable_identity () =
  List.iter
    (fun (seed, len) ->
      let a = Xrng.create seed and b = Xrng.create seed in
      let fast = Bytes.create len in
      Xrng.fill_printable a fast;
      let slow = Bytes.init len (fun _ -> Char.chr (32 + Xrng.int b 95)) in
      Alcotest.(check string)
        (Printf.sprintf "bytes identical (seed %d, len %d)" seed len)
        (Bytes.to_string slow) (Bytes.to_string fast);
      Alcotest.(check int64) "RNG state advanced identically" (Xrng.bits64 b) (Xrng.bits64 a))
    [ (1, 0); (7, 1); (42, 13); (1234, 1024) ]

(* [Det.sorted_int_keys] is the polymorphic-compare sort of the keys,
   whether they are dense (the byte-map path), sparse or negative (the
   comparison sort). *)
let prop_sorted_int_keys =
  QCheck2.Test.make ~name:"sorted_int_keys = sorted_keys" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (oneof [ int_range 0 300; int_range (-50) 50; int ]))
    (fun keys ->
      let t = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace t k ()) keys;
      let keys = Hashtbl.fold (fun k () ks -> k :: ks) t [] in
      Afs_util.Det.sorted_int_keys t = List.sort compare keys)

(* {2 Images} *)

module Image = Afs_util.Image

(* A split keeps the written bytes, copies both parts out once, and
   leaves an image equal to a whole one of the same bytes; a split at the
   end, or of a split image, does nothing. *)
let prop_image_split =
  QCheck2.Test.make ~name:"a split image holds the written bytes" ~count:300
    ~print:QCheck2.Print.(pair string int)
    QCheck2.Gen.(pair (string_size (int_range 0 200)) (int_bound 1000))
    (fun (s, pos) ->
      let written = Bytes.of_string s in
      let at = pos mod (String.length s + 1) in
      let image = Image.of_bytes written in
      Image.split image ~at;
      let head = image.Image.head and data = image.Image.data in
      if not (Image.is_whole image) then Image.split image ~at:0;
      Image.length image = String.length s
      && Bytes.to_string (Image.to_bytes image) = s
      && Image.equal image (Image.of_bytes (Bytes.of_string s))
      && Image.is_whole image = (at = String.length s)
      && (Image.is_whole image || (image.Image.head != written && Bytes.length head = at))
      && image.Image.head == head && image.Image.data == data)

let test_image_equal_allocates_nothing () =
  let a = Image.of_bytes (Bytes.make 1024 'a') and b = Image.of_bytes (Bytes.make 1024 'a') in
  Image.split b ~at:100;
  let c = Image.of_bytes (Bytes.make 1024 'a') in
  Image.split c ~at:200;
  let words =
    Helpers.minor_words_of (fun () ->
        ignore (Sys.opaque_identity (Image.equal a b && Image.equal b c && Image.equal a a)))
  in
  Alcotest.(check bool) "equal across forms" true (Image.equal a b && Image.equal b c);
  Alcotest.(check bool) "a changed byte differs" false
    (Image.equal a (Image.of_bytes (Bytes.cat (Bytes.make 1023 'a') (Bytes.make 1 'b'))));
  Alcotest.(check (float 0.)) "no words" 0. words

let () =
  Alcotest.run "util"
    [
      ( "xrng",
        [
          quick "determinism" test_rng_determinism;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "int bounds" test_rng_int_bounds;
          quick "int rejects non-positive" test_rng_int_rejects_nonpositive;
          quick "fill_printable stream identity" test_rng_fill_printable_identity;
          quick "int_in bounds" test_rng_int_in;
          quick "float bounds" test_rng_float_bounds;
          quick "split independence" test_rng_split_independent;
          quick "exponential positive" test_rng_exponential_positive;
          quick "exponential mean" test_rng_exponential_mean;
          quick "shuffle is a permutation" test_rng_shuffle_permutation;
          quick "pick member" test_rng_pick;
        ] );
      ( "zipf",
        [
          quick "theta 0 is uniform" test_zipf_uniform;
          quick "mass is monotone" test_zipf_skew_orders_mass;
          quick "mass sums to 1" test_zipf_mass_sums_to_one;
          quick "sample range" test_zipf_sample_range;
          quick "sample matches mass" test_zipf_sample_distribution;
          quick "rejects bad args" test_zipf_rejects_bad_args;
        ] );
      ( "capability",
        [
          quick "mint/validate" test_cap_mint_validate;
          quick "forgery detected" test_cap_forgery_detected;
          quick "wrong secret rejected" test_cap_wrong_secret;
          quick "restrict" test_cap_restrict;
          quick "rights subset" test_cap_rights_subset;
          quick "check allocates nothing" test_cap_check_allocates_nothing;
        ] );
      ( "pagepath",
        [
          quick "string roundtrip" test_path_roundtrip_string;
          quick "parent/child" test_path_parent_child;
          quick "prefix" test_path_prefix;
          quick "rejects negative" test_path_rejects_negative;
          quick "of_string errors" test_path_of_string_errors;
          quick "last/depth" test_path_last_depth;
        ] );
      ( "wire",
        [
          quick "scalar roundtrip" test_wire_scalar_roundtrip;
          quick "varint roundtrip" test_wire_varint_roundtrip;
          quick "string roundtrip" test_wire_string_roundtrip;
          quick "truncation detected" test_wire_truncation_detected;
          quick "trailing garbage detected" test_wire_trailing_garbage_detected;
          quick "negative varint rejected" test_wire_negative_varint_rejected;
          quick "crc32 known value" test_crc32_known_value;
          quick "crc32 detects corruption" test_crc32_detects_flip;
          QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
          QCheck_alcotest.to_alcotest prop_crc32_sub;
          QCheck_alcotest.to_alcotest prop_crc32_continue;
          quick "set_varint matches writer" test_wire_set_varint;
        ] );
      ( "stats",
        [
          quick "summary moments" test_summary_moments;
          quick "summary empty" test_summary_empty;
          quick "histogram percentiles" test_histogram_percentiles;
          quick "histogram empty" test_histogram_empty;
          quick "histogram endpoints exact" test_histogram_endpoints_exact;
          quick "histogram rejects bad p" test_histogram_rejects_bad_p;
          quick "histogram merge" test_histogram_merge;
          QCheck_alcotest.to_alcotest prop_histogram_merge_is_stream_union;
          quick "counter" test_counter;
          quick "counter incr/get/missing" test_counter_incr_get_missing;
          quick "counter instances independent" test_counter_independent_instances;
          quick "counter incr allocates nothing" test_counter_incr_allocates_nothing;
          quick "ratio" test_ratio;
        ] );
      ("det", [ QCheck_alcotest.to_alcotest prop_sorted_int_keys ]);
      ( "image",
        [
          QCheck_alcotest.to_alcotest prop_image_split;
          quick "equal allocates nothing" test_image_equal_allocates_nothing;
        ] );
    ]
