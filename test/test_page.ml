open Afs_core
module Capability = Afs_util.Capability
module Wire = Afs_util.Wire
module Image = Afs_util.Image

let quick = Helpers.quick
let bytes = Helpers.bytes

let secret = Capability.secret_of_seed 31
let port = Capability.port_of_int 0xBEEF

let cap obj = Capability.mint secret ~port ~obj ~rights:Capability.rights_all

let entry ?(flags = Flags.clear) block = { Page.block; flags }

let sample_version_page () =
  Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 5) ~base_ref:(Some 17)
    ~parent_ref:None
    ~refs:[| entry 3; entry ~flags:(Flags.record Flags.clear Flags.Write) 9 |]
    ~data:(bytes "version page data")

(* The codec reads stored images; most tests here hand it a whole image
   of the bytes they build. *)
let decode ?memo b = Page.decode ?memo (Image.of_bytes b)
let image_commit_ref b = Page.image_commit_ref (Image.of_bytes b)
let iter_image_refs b f = Page.iter_image_refs (Image.of_bytes b) f

let decode_ok ?memo image =
  match decode ?memo image with
  | Ok p -> p
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_empty_page () =
  Alcotest.(check int) "no refs" 0 (Page.nrefs Page.empty);
  Alcotest.(check int) "no data" 0 (Page.dsize Page.empty);
  Alcotest.(check bool) "not a version page" false (Page.is_version_page Page.empty)

let test_version_page_fields () =
  let p = sample_version_page () in
  Alcotest.(check bool) "is version page" true (Page.is_version_page p);
  Alcotest.(check int) "nrefs" 2 (Page.nrefs p);
  Alcotest.(check int) "dsize" 17 (Page.dsize p)

let test_codec_roundtrip_plain () =
  let p = Page.with_data Page.empty (bytes "plain data") in
  let p' = decode_ok (Page.encode p) in
  Helpers.check_bytes "data" "plain data" p'.Page.data;
  Alcotest.(check bool) "still plain" false (Page.is_version_page p')

let test_codec_roundtrip_version () =
  let p = sample_version_page () in
  let p' = decode_ok (Page.encode p) in
  let h = p'.Page.header in
  Alcotest.(check bool) "file cap" true
    (match h.Page.file_cap with Some fc -> Capability.equal fc (cap 2) | None -> false);
  Alcotest.(check bool) "version cap" true
    (match h.Page.version_cap with Some vc -> Capability.equal vc (cap 5) | None -> false);
  Alcotest.(check (option int)) "base ref" (Some 17) h.Page.base_ref;
  Alcotest.(check (option int)) "commit ref nil" None h.Page.commit_ref;
  Alcotest.(check int) "ref 0 block" 3 p'.Page.refs.(0).Page.block;
  Alcotest.(check bool) "ref 1 W flag" true p'.Page.refs.(1).Page.flags.Flags.w;
  Helpers.check_bytes "data" "version page data" p'.Page.data

let test_codec_roundtrip_locks () =
  let p = sample_version_page () in
  let h = { p.Page.header with Page.top_lock = 123; Page.inner_lock = 456;
            Page.commit_ref = Some 99; Page.parent_ref = Some 7 } in
  let p = Page.with_header p h in
  let p' = decode_ok (Page.encode p) in
  Alcotest.(check int) "top lock" 123 p'.Page.header.Page.top_lock;
  Alcotest.(check int) "inner lock" 456 p'.Page.header.Page.inner_lock;
  Alcotest.(check (option int)) "commit ref" (Some 99) p'.Page.header.Page.commit_ref;
  Alcotest.(check (option int)) "parent ref" (Some 7) p'.Page.header.Page.parent_ref

let test_decode_rejects_garbage () =
  (match decode (bytes "not a page") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match decode Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty"

let test_decode_rejects_truncation () =
  let image = Page.encode (sample_version_page ()) in
  let truncated = Bytes.sub image 0 (Bytes.length image - 4) in
  match decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated image"

let test_decode_rejects_trailing () =
  let image = Page.encode (sample_version_page ()) in
  let padded = Bytes.cat image (bytes "junk") in
  match decode padded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing bytes"

(* [page]'s image with its reference count ([count = `Refs]) or its data
   length rewritten to [value]: the two varints sit just before the
   reference table. *)
let with_count page count value =
  let image = Page.encode page in
  let nrefs = Page.nrefs page and dsize = Page.dsize page in
  let refs_at = Bytes.length image - dsize - (4 * nrefs) in
  let nrefs_at = refs_at - Wire.varint_size nrefs - Wire.varint_size dsize in
  let w = Wire.Writer.create () in
  Wire.Writer.varint w (if count = `Refs then value else nrefs);
  Wire.Writer.varint w (if count = `Refs then dsize else value);
  Bytes.concat Bytes.empty
    [
      Bytes.sub image 0 nrefs_at;
      Wire.Writer.contents w;
      Bytes.sub image refs_at (Bytes.length image - refs_at);
    ]

(* A 20-byte plain page claiming 2^40 references: every reader answers
   [Error] before allocating for them. *)
let test_decode_rejects_huge_count () =
  let page = Page.with_data Page.empty (Bytes.make 5 'd') in
  let image = with_count page `Refs (1 lsl 40) in
  Alcotest.(check int) "image length" 20 (Bytes.length image);
  (match decode image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a 2^40 reference count");
  (match image_commit_ref image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "image_commit_ref accepted a 2^40 reference count");
  match iter_image_refs image (fun _ -> Alcotest.fail "child of a rejected image") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "iter_image_refs accepted a 2^40 reference count"

let test_block_number_28_bits () =
  let p = Page.with_data Page.empty Bytes.empty in
  match Page.insert_ref p 0 (entry Page.max_block_number) with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
      let p' = decode_ok (Page.encode p) in
      Alcotest.(check int) "max block survives" Page.max_block_number
        p'.Page.refs.(0).Page.block;
      Alcotest.check_raises "overflow rejected"
        (Invalid_argument
           (Printf.sprintf "Page: block number %d out of 28-bit range"
              (Page.max_block_number + 2)))
        (fun () ->
          match Page.with_ref p 0 (entry (Page.max_block_number + 2)) with
          | Ok bad -> ignore (Page.encode bad)
          | Error msg -> Alcotest.fail msg)

let test_ref_ops () =
  let p = Page.empty in
  let p = Helpers.ok_str (Page.insert_ref p 0 (entry 10)) in
  let p = Helpers.ok_str (Page.insert_ref p 1 (entry 20)) in
  let p = Helpers.ok_str (Page.insert_ref p 1 (entry 15)) in
  Alcotest.(check (list int)) "insert order" [ 10; 15; 20 ]
    (Array.to_list (Array.map (fun e -> e.Page.block) p.Page.refs));
  let p = Helpers.ok_str (Page.remove_ref p 1) in
  Alcotest.(check (list int)) "after remove" [ 10; 20 ]
    (Array.to_list (Array.map (fun e -> e.Page.block) p.Page.refs));
  let p = Helpers.ok_str (Page.with_ref p 0 (entry 11)) in
  Alcotest.(check int) "with_ref" 11 p.Page.refs.(0).Page.block

let test_ref_ops_bounds () =
  (match Page.insert_ref Page.empty 1 (entry 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "insert past end accepted");
  (match Page.remove_ref Page.empty 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "remove on empty accepted");
  match Page.get_ref Page.empty 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "get on empty accepted"

let test_clear_child_flags () =
  let flags = Flags.record (Flags.record Flags.clear Flags.Read) Flags.Write in
  let p = Helpers.ok_str (Page.insert_ref Page.empty 0 (entry ~flags 10)) in
  let q = Page.copied_from p 7 in
  Alcotest.(check bool) "cleared" true (Flags.equal Flags.clear q.Page.refs.(0).Page.flags);
  Alcotest.(check int) "block kept" 10 q.Page.refs.(0).Page.block;
  Alcotest.(check (option int)) "based on its block" (Some 7) q.Page.header.Page.base_ref;
  Alcotest.(check bool) "original untouched" false
    (Flags.equal Flags.clear p.Page.refs.(0).Page.flags)

let test_functional_updates_do_not_alias () =
  let p = Helpers.ok_str (Page.insert_ref Page.empty 0 (entry 10)) in
  let q = Helpers.ok_str (Page.with_ref p 0 (entry 99)) in
  Alcotest.(check int) "original untouched" 10 p.Page.refs.(0).Page.block;
  Alcotest.(check int) "copy updated" 99 q.Page.refs.(0).Page.block

(* Property: arbitrary pages roundtrip through the codec. *)
let gen_flags =
  QCheck2.Gen.map
    (fun n -> match Flags.of_nibble (abs n mod 13) with Some f -> f | None -> Flags.clear)
    QCheck2.Gen.int

let gen_entry =
  QCheck2.Gen.map2
    (fun block flags -> { Page.block = abs block mod 100000; flags })
    QCheck2.Gen.int gen_flags

let gen_page =
  let open QCheck2.Gen in
  let* refs = array_size (int_range 0 20) gen_entry in
  let* data = string_size (int_range 0 200) in
  let* version = bool in
  if version then
    let* base = opt (int_range 0 1000) in
    let* commit = opt (int_range 0 1000) in
    let* top_lock = int_range 0 5 in
    let p =
      Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 5) ~base_ref:base
        ~parent_ref:None ~refs ~data:(Bytes.of_string data)
    in
    return
      (Page.with_header p { p.Page.header with Page.commit_ref = commit; Page.top_lock = top_lock })
  else return (Page.with_contents (Page.with_data Page.empty (Bytes.of_string data)) ~refs ~data:(Bytes.of_string data))

let page_equal a b =
  a.Page.header = b.Page.header
  && Array.length a.Page.refs = Array.length b.Page.refs
  && Array.for_all2 (fun x y -> x = y) a.Page.refs b.Page.refs
  && Bytes.equal a.Page.data b.Page.data

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"page codec roundtrip" ~count:300 gen_page (fun p ->
      match decode (Page.encode p) with Ok p' -> page_equal p p' | Error _ -> false)

let prop_encoded_size_consistent =
  QCheck2.Test.make ~name:"encoded_size equals encode length" ~count:100 gen_page (fun p ->
      Page.encoded_size p = Bytes.length (Page.encode p))

(* {2 A page's image on the stable pair}

   An image is the encoded head (header fields and reference table)
   followed by the page's data: the two add up to [encoded_size]. A
   store keeps the written bytes whole until the first decode splits
   them where the head ends; from then on every read answers the split
   image and every decode shares its data, uncopied. The stable pair's
   checksum covers head and data, so one flipped byte in either part, on
   both disks, fails the read rather than answering it. *)

let gen_sized_page =
  let open QCheck2.Gen in
  let* refs = array_size (int_range 0 20) gen_entry in
  let* data = map Bytes.of_string (string_size (int_range 0 4096)) in
  let* version = bool in
  return
    (if version then
       Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 5) ~base_ref:(Some 17)
         ~parent_ref:None ~refs ~data
     else Page.with_contents Page.empty ~refs ~data)

module Stable = Afs_stable.Stable_pair
module Disk = Afs_disk.Disk

(* Both disks' copies of block [b] replaced by [whole] with its byte at
   [i] flipped, split [~at] as a decoded image is: a sector keeps the
   pair's header beside the image, not in it. *)
let flip_on_both pair b whole i ~at =
  let flipped = Bytes.copy whole in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x5A));
  let image = Image.of_bytes flipped in
  Image.split image ~at;
  List.iter
    (fun id ->
      let disk = Stable.disk pair id in
      match Disk.read_sector disk b with
      | Ok s -> ignore (Disk.write_sector disk b { s with Disk.image })
      | Error e -> Alcotest.failf "disk %d: %a" id Disk.pp_error e)
    [ 0; 1 ]

let prop_stable_image =
  QCheck2.Test.make ~name:"an image splits once; a flipped byte fails" ~count:200
    QCheck2.Gen.(triple gen_sized_page bool (int_bound 10_000))
    (fun (p, in_head, pos) ->
      let whole = Page.encode p in
      let dsize = Page.dsize p in
      let head = Bytes.length whole - dsize in
      if Page.encoded_size p <> head + dsize then
        QCheck2.Test.fail_report "encoded_size is not head plus data";
      let pair = Stable.create ~blocks:4 ~block_size:8192 () in
      match Stable.allocate_write pair 0 whole with
      | Error e -> QCheck2.Test.fail_reportf "stable write: %a" Stable.pp_error e
      | Ok b ->
          let read () =
            match Stable.read pair 0 b with
            | Ok image -> image
            | Error e -> QCheck2.Test.fail_reportf "sound read: %a" Stable.pp_error e
          in
          let decoded image =
            match Page.decode ~memo:true image with
            | Ok q -> q
            | Error msg -> QCheck2.Test.fail_report msg
          in
          let image = read () in
          let q = decoded image in
          if not (page_equal q p) then QCheck2.Test.fail_report "decode (encode p) <> p";
          if Bytes.length image.Image.head <> head || not (Bytes.equal image.Image.data p.Page.data)
          then QCheck2.Test.fail_report "not split where the head ends";
          let again = read () in
          if not (again == image && (decoded again).Page.data == q.Page.data) then
            QCheck2.Test.fail_report "a second read copied the data";
          let at = if in_head || dsize = 0 then pos mod head else head + (pos mod dsize) in
          flip_on_both pair b whole at ~at:head;
          match Stable.read pair 0 b with Error _ -> true | Ok _ -> false)

(* A value of at least 2^40 for a reference count or a data length. *)
let gen_huge =
  QCheck2.Gen.(map2 (fun k low -> (1 lsl k) lor low) (int_range 40 61) (int_bound 1000))

(* [page]'s image damaged by [damage]: 0 leaves it whole, 1 flips the
   byte at [pos] by [xor], 2 truncates it at [pos], 3 and 4 rewrite its
   reference count or data length to [huge]. *)
let damaged page damage pos xor huge =
  let image = Bytes.copy (Page.encode page) in
  let pos = pos mod max 1 (Bytes.length image) in
  match damage with
  | 0 -> image
  | 1 ->
      Bytes.set image pos (Char.chr (Char.code (Bytes.get image pos) lxor xor));
      image
  | 2 -> Bytes.sub image 0 pos
  | 3 -> with_count page `Refs huge
  | _ -> with_count page `Data huge

(* Fuzz: decoding a corrupted valid image must fail cleanly or produce a
   structurally valid page — never raise. *)
let prop_decode_total_on_mutations =
  let open QCheck2.Gen in
  let gen =
    let* page = gen_page in
    let* damage = oneofl [ 1; 3; 4 ] in
    let* pos = int_range 0 10000 in
    let* xor = int_range 1 255 in
    let* huge = gen_huge in
    return (page, damage, pos, xor, huge)
  in
  QCheck2.Test.make ~name:"decode is total on corrupted images" ~count:500 gen
    (fun (page, damage, pos, xor, huge) ->
      match decode (damaged page damage pos xor huge) with
      | Ok p -> Array.for_all (fun (e : Page.ref_entry) -> Flags.is_legal e.Page.flags) p.Page.refs
      | Error _ -> true
      | exception Invalid_argument _ -> false
      | exception _ -> false)

(* Fuzz: decoding arbitrary byte strings never raises. *)
let prop_decode_total_on_garbage =
  QCheck2.Test.make ~name:"decode is total on garbage" ~count:500
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s ->
      match decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* The collector's in-place reads accept exactly the images [decode]
   accepts, and read the same commit reference and child blocks from
   them: checked on valid images, on images with one byte flipped, on
   truncated ones and on ones whose counts say 2^40 or more. *)
let prop_in_place_reads_agree_with_decode =
  let open QCheck2.Gen in
  let gen =
    let* page = gen_page in
    let* damage = int_range 0 4 in
    let* pos = int_range 0 10000 in
    let* xor = int_range 1 255 in
    let* huge = gen_huge in
    return (page, damage, pos, xor, huge)
  in
  QCheck2.Test.make ~name:"in-place image reads agree with decode" ~count:1000 gen
    (fun (page, damage, pos, xor, huge) ->
      let image = damaged page damage pos xor huge in
      let children = ref [] in
      let listed = iter_image_refs image (fun b -> children := b :: !children) in
      match (decode image, image_commit_ref image, listed) with
      | Ok p, Ok commit, Ok () ->
          let blocks = Array.map (fun (e : Page.ref_entry) -> e.Page.block) p.Page.refs in
          commit = p.Page.header.Page.commit_ref && List.rev !children = Array.to_list blocks
      | Error _, Error _, Error _ -> !children = []
      | _ -> false)

(* {2 Encode-once: the memo is invisible and always canonical} *)

let test_encode_counts_once () =
  let p = sample_version_page () in
  let e0 = Page.fresh_encodes () in
  let img1 = Page.encode p in
  let img2 = Page.encode p in
  Alcotest.(check int) "second encode is a memo hit" 1 (Page.fresh_encodes () - e0);
  Alcotest.(check bool) "memo hit returns the same image" true (img1 == img2);
  let e1 = Page.fresh_encodes () in
  let q = decode_ok ~memo:true img1 in
  ignore (Page.encode q);
  Alcotest.(check int) "decode ~memo seeds the memo" 0 (Page.fresh_encodes () - e1)

(* Random pages and random updater chains: after any sequence of
   functional updates, the memoized image must be byte-identical to a
   from-scratch serialisation of the same value (decode the image with no
   memo, re-encode fresh). An updater that changes the page must also have
   dropped the parent's memo rather than carried it across. *)
let prop_memo_canonical_after_updates =
  let open QCheck2 in
  let entry_gen =
    Gen.(
      map2
        (fun block w -> { Page.block; flags = (if w then Flags.record Flags.clear Flags.Write else Flags.clear) })
        (int_bound 100_000) bool)
  in
  let base_gen =
    Gen.(
      let* refs = array_size (int_bound 6) entry_gen in
      let* data = small_string ~gen:printable in
      let* version = bool in
      return
        (if version then
           Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 5) ~base_ref:(Some 17)
             ~parent_ref:None ~refs ~data:(Bytes.of_string data)
         else Page.with_contents Page.empty ~refs ~data:(Bytes.of_string data)))
  in
  let update_gen =
    Gen.(
      oneof
        [
          map (fun s p -> Page.with_data p (Bytes.of_string s)) (small_string ~gen:printable);
          map2 (fun i e p -> match Page.with_ref p i e with Ok p -> p | Error _ -> p)
            (int_bound 8) entry_gen;
          map2 (fun i e p -> match Page.insert_ref p i e with Ok p -> p | Error _ -> p)
            (int_bound 8) entry_gen;
          map (fun i p -> match Page.remove_ref p i with Ok p -> p | Error _ -> p) (int_bound 8);
          return (fun p -> Page.copied_from p 3);
          map2
            (fun i e p ->
              if i < Page.nrefs p then Page.set_ref p i e;
              p)
            (int_bound 8) entry_gen;
        ])
  in
  Test.make ~name:"memoized encode is canonical after every updater" ~count:300
    Gen.(pair base_gen (list_size (int_range 1 8) update_gen))
    (fun (base, updates) ->
      let p =
        List.fold_left
          (fun p update ->
            ignore (Page.encode p) (* memoize, so updaters must shed it *);
            let p' = update p in
            if p' != p && Page.memoized_image p' <> None then
              Test.fail_reportf "updater carried a stale memo across";
            p')
          base updates
      in
      let img = Page.encode p in
      (match Page.memoized_image p with
      | Some m when Image.to_bytes m == img -> ()
      | _ -> Test.fail_reportf "encode did not memoize its image");
      let fresh =
        match decode img with
        | Ok q when Page.equal q p -> Page.encode q
        | Ok _ -> Test.fail_reportf "memoized image holds another page"
        | Error msg -> Test.fail_reportf "memoized image does not decode: %s" msg
      in
      if not (Bytes.equal img fresh) then
        Test.fail_reportf "memoized image differs from a fresh serialisation";
      true)

let () =
  Alcotest.run "page"
    [
      ( "structure",
        [
          quick "empty page" test_empty_page;
          quick "version page fields" test_version_page_fields;
          quick "ref ops" test_ref_ops;
          quick "ref bounds" test_ref_ops_bounds;
          quick "clear child flags" test_clear_child_flags;
          quick "no aliasing" test_functional_updates_do_not_alias;
        ] );
      ( "codec",
        [
          quick "plain roundtrip" test_codec_roundtrip_plain;
          quick "version roundtrip" test_codec_roundtrip_version;
          quick "locks roundtrip" test_codec_roundtrip_locks;
          quick "rejects garbage" test_decode_rejects_garbage;
          quick "rejects truncation" test_decode_rejects_truncation;
          quick "rejects trailing bytes" test_decode_rejects_trailing;
          quick "rejects a huge count" test_decode_rejects_huge_count;
          quick "28-bit block numbers" test_block_number_28_bits;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_encoded_size_consistent;
          QCheck_alcotest.to_alcotest prop_decode_total_on_mutations;
          QCheck_alcotest.to_alcotest prop_decode_total_on_garbage;
          QCheck_alcotest.to_alcotest prop_in_place_reads_agree_with_decode;
          QCheck_alcotest.to_alcotest prop_stable_image;
        ] );
      ( "encode-once",
        [
          quick "fresh encode counted once" test_encode_counts_once;
          QCheck_alcotest.to_alcotest prop_memo_canonical_after_updates;
        ] );
    ]
