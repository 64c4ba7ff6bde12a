open Afs_disk

let quick = Helpers.quick
let check_image = Alcotest.(check string)

let fresh ?(media = Media.magnetic) ?(blocks = 64) ?(block_size = 1024) () =
  Disk.create ~media ~blocks ~block_size ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "disk error: %s" (Fmt.str "%a" Disk.pp_error e)

let expect_err name pred = function
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> Alcotest.(check bool) name true (pred e)

(* What [f] charged the disk's clock. *)
let charged d f =
  let before = Disk.busy_ms d in
  f ();
  Disk.busy_ms d -. before

(* {2 Media} *)

let test_media_ordering () =
  let b = 4096 in
  let e = Media.read_cost Media.electronic ~bytes:b in
  let m = Media.read_cost Media.magnetic ~bytes:b in
  let o = Media.read_cost Media.optical ~bytes:b in
  Alcotest.(check bool) "electronic < magnetic" true (e < m);
  Alcotest.(check bool) "magnetic < optical" true (m < o)

let test_media_write_once_flag () =
  Alcotest.(check bool) "optical write-once" true Media.optical.Media.write_once;
  Alcotest.(check bool) "magnetic rewritable" false Media.magnetic.Media.write_once

let test_media_cost_grows_with_bytes () =
  let small = Media.write_cost Media.magnetic ~bytes:512 in
  let large = Media.write_cost Media.magnetic ~bytes:32768 in
  Alcotest.(check bool) "linear growth" true (large > small)

(* {2 Basic I/O} *)

let test_write_read_roundtrip () =
  let d = fresh () in
  ignore (ok (Disk.write d 3 "hello"));
  let data = ok (Disk.read d 3) in
  check_image "roundtrip" "hello" data

let test_read_never_written () =
  let d = fresh () in
  expect_err "never written" (function Disk.Never_written 5 -> true | _ -> false)
    (Disk.read d 5)

let test_out_of_range () =
  let d = fresh ~blocks:8 () in
  expect_err "read oob" (function Disk.Out_of_range _ -> true | _ -> false) (Disk.read d 8);
  expect_err "write oob" (function Disk.Out_of_range _ -> true | _ -> false)
    (Disk.write d (-1) "x")

let test_write_too_large () =
  let d = fresh ~block_size:16 () in
  expect_err "too large" (function Disk.Too_large _ -> true | _ -> false)
    (Disk.write d 0 (String.make 17 'x'))

let test_overwrite_magnetic () =
  let d = fresh () in
  ignore (ok (Disk.write d 0 "one"));
  ignore (ok (Disk.write d 0 "two"));
  check_image "overwritten" "two" (ok (Disk.read d 0))

let test_write_once_enforced () =
  let d = fresh ~media:Media.optical () in
  ignore (ok (Disk.write d 0 "etched"));
  expect_err "overwrite refused" (function Disk.Write_once_violation 0 -> true | _ -> false)
    (Disk.write d 0 "nope");
  expect_err "erase refused" (function Disk.Write_once_violation 0 -> true | _ -> false)
    (Disk.erase d 0);
  check_image "original intact" "etched" (ok (Disk.read d 0))

let test_erase () =
  let d = fresh () in
  ignore (ok (Disk.write d 2 "x"));
  Alcotest.(check bool) "written" true (Disk.is_written d 2);
  ignore (ok (Disk.erase d 2));
  Alcotest.(check bool) "erased" false (Disk.is_written d 2)

(* Images are immutable strings, so a writer cannot change what it wrote
   and a reader cannot change what it read: the type checks that half.
   What remains is that a read returns the written image itself and that
   [corrupt] damages only its own block, not the image it replaces. *)
let test_stored_image_isolated () =
  let d = fresh () in
  (* A fresh string, not the literal the checks compare against. *)
  let image = Bytes.to_string (Bytes.of_string "mutate-me") in
  ignore (ok (Disk.write d 0 image));
  ignore (ok (Disk.write d 1 image));
  Alcotest.(check bool) "read returns the written image" true (ok (Disk.read d 0) == image);
  Alcotest.(check bool) "corrupted" true (Disk.corrupt d 0 ~xor_byte:'\x01');
  check_image "writer's image intact" "mutate-me" image;
  check_image "other block intact" "mutate-me" (ok (Disk.read d 1));
  Alcotest.(check bool) "damaged block differs" false (ok (Disk.read d 0) = image)

(* A sector's header sits beside its image: a read answers the record
   written, [read] the image's bytes, and sizes, byte counts and costs
   take both together, as they would one image of that length. An empty
   written sector is still written. *)
let test_sector_header_beside_data () =
  let d = fresh ~block_size:16 () in
  let sector = { Disk.header = "hdr"; image = Helpers.image "payload" } in
  let write_ms = charged d (fun () -> ok (Disk.write_sector d 0 sector)) in
  Alcotest.(check bool) "read_sector answers the record" true
    (ok (Disk.read_sector d 0) == sector);
  Alcotest.(check bool) "read answers its image's bytes" true
    (Bytes.unsafe_of_string (ok (Disk.read d 0)) == Helpers.bytes_of sector.Disk.image);
  let s = Disk.stats d in
  Alcotest.(check int) "bytes written, header and data" 10 s.Disk.bytes_written;
  Alcotest.(check int) "bytes read, header and data" 20 s.Disk.bytes_read;
  Alcotest.(check (float 0.0)) "costed as one 10-byte image"
    (Media.write_cost Media.magnetic ~bytes:10) write_ms;
  expect_err "header counts toward the size"
    (function Disk.Too_large { requested = 17; block_size = 16 } -> true | _ -> false)
    (Disk.write_sector d 1 { Disk.header = "h"; image = Helpers.image (String.make 16 'x') });
  Alcotest.(check bool) "header-less write" true (Result.is_ok (Disk.write d 1 ""));
  Alcotest.(check bool) "an empty sector is written" true (Disk.is_written d 1);
  Alcotest.(check string) "its header is empty" "" (ok (Disk.read_sector d 1)).Disk.header

(* The flipped byte is the middle one of header and data together: in
   the header when it is the longer part, else in the data. *)
let test_corrupt_middle_of_sector () =
  let d = fresh () in
  let damaged header data =
    ignore (ok (Disk.write_sector d 0 { Disk.header; image = Helpers.image data }));
    Alcotest.(check bool) "corrupted" true (Disk.corrupt d 0 ~xor_byte:'\x01');
    let s = ok (Disk.read_sector d 0) in
    (s.Disk.header, Helpers.str (Helpers.bytes_of s.Disk.image))
  in
  let header_and_data = Alcotest.(pair string string) in
  Alcotest.check header_and_data "in the header" ("01234467", "ab") (damaged "01234567" "ab");
  Alcotest.check header_and_data "in the data" ("01", "abceefgh") (damaged "01" "abcdefgh")

(* {2 Fault injection} *)

let test_offline () =
  let d = fresh () in
  ignore (ok (Disk.write d 1 "x"));
  Disk.set_offline d true;
  expect_err "read offline" (function Disk.Offline -> true | _ -> false) (Disk.read d 1);
  expect_err "write offline" (function Disk.Offline -> true | _ -> false)
    (Disk.write d 1 "y");
  Disk.set_offline d false;
  check_image "back online, data intact" "x" (ok (Disk.read d 1))

let test_corrupt () =
  let d = fresh () in
  ignore (ok (Disk.write d 4 "abcdef"));
  Alcotest.(check bool) "corrupted" true (Disk.corrupt d 4 ~xor_byte:'\x01');
  let data = ok (Disk.read d 4) in
  Alcotest.(check bool) "silently differs" false (data = "abcdef")

let test_corrupt_unwritten () =
  let d = fresh () in
  Alcotest.(check bool) "nothing to corrupt" false (Disk.corrupt d 0 ~xor_byte:'\x01')

let test_wipe () =
  let d = fresh () in
  ignore (ok (Disk.write d 0 "a"));
  ignore (ok (Disk.write d 1 "b"));
  Disk.wipe d;
  Alcotest.(check bool) "gone" false (Disk.is_written d 0);
  Alcotest.(check int) "in_use reset" 0 (Disk.stats d).Disk.blocks_in_use

(* {2 Accounting} *)

let test_stats_accumulate () =
  let d = fresh () in
  ignore (ok (Disk.write d 0 "0123456789"));
  ignore (ok (Disk.read d 0));
  ignore (ok (Disk.read d 0));
  let s = Disk.stats d in
  Alcotest.(check int) "writes" 1 s.Disk.writes;
  Alcotest.(check int) "reads" 2 s.Disk.reads;
  Alcotest.(check int) "bytes written" 10 s.Disk.bytes_written;
  Alcotest.(check int) "bytes read" 20 s.Disk.bytes_read;
  Alcotest.(check bool) "busy time" true (s.Disk.busy_ms > 0.0);
  Alcotest.(check int) "in use" 1 s.Disk.blocks_in_use;
  ignore (ok (Disk.read d 0));
  let s' = Disk.stats d in
  Alcotest.(check int) "one more read" 1 (s'.Disk.reads - s.Disk.reads);
  Alcotest.(check int) "its bytes" 10 (s'.Disk.bytes_read - s.Disk.bytes_read);
  Alcotest.(check (float 1e-9)) "its time" (Media.read_cost Media.magnetic ~bytes:10)
    (s'.Disk.busy_ms -. s.Disk.busy_ms)

(* Each operation's cost is the growth of the disk's clock: a write and
   a read charge their media cost, a read of a block never written its
   seek, and an erase or an out-of-range read nothing. *)
let test_cost_reported_per_op () =
  let d = fresh () in
  Alcotest.(check (float 1e-9)) "write" (Media.write_cost Media.magnetic ~bytes:1)
    (charged d (fun () -> ok (Disk.write d 0 "x")));
  Alcotest.(check (float 1e-9)) "read" (Media.read_cost Media.magnetic ~bytes:1)
    (charged d (fun () -> ignore (ok (Disk.read d 0))));
  Alcotest.(check (float 1e-9)) "read never written" (Media.read_cost Media.magnetic ~bytes:0)
    (charged d (fun () -> ignore (Disk.read d 1)));
  Alcotest.(check (float 0.0)) "erase" 0.0 (charged d (fun () -> ok (Disk.erase d 0)));
  Alcotest.(check (float 0.0)) "out of range" 0.0 (charged d (fun () -> ignore (Disk.read d 99)))

let test_create_rejects_bad_sizes () =
  Alcotest.check_raises "blocks" (Invalid_argument "Disk.create: blocks must be positive")
    (fun () -> ignore (Disk.create ~media:Media.magnetic ~blocks:0 ~block_size:1 ()));
  Alcotest.check_raises "size" (Invalid_argument "Disk.create: block_size must be positive")
    (fun () -> ignore (Disk.create ~media:Media.magnetic ~blocks:1 ~block_size:0 ()))

let () =
  Alcotest.run "disk"
    [
      ( "media",
        [
          quick "latency ordering" test_media_ordering;
          quick "write-once flag" test_media_write_once_flag;
          quick "cost grows with bytes" test_media_cost_grows_with_bytes;
        ] );
      ( "io",
        [
          quick "write/read roundtrip" test_write_read_roundtrip;
          quick "read never written" test_read_never_written;
          quick "out of range" test_out_of_range;
          quick "write too large" test_write_too_large;
          quick "overwrite on magnetic" test_overwrite_magnetic;
          quick "write-once enforced" test_write_once_enforced;
          quick "erase" test_erase;
          quick "stored images isolated" test_stored_image_isolated;
          quick "sector header beside data" test_sector_header_beside_data;
        ] );
      ( "faults",
        [
          quick "offline" test_offline;
          quick "corrupt" test_corrupt;
          quick "corrupt unwritten" test_corrupt_unwritten;
          quick "corrupt middle of sector" test_corrupt_middle_of_sector;
          quick "wipe" test_wipe;
        ] );
      ( "accounting",
        [
          quick "stats accumulate" test_stats_accumulate;
          quick "per-op cost" test_cost_reported_per_op;
          quick "create rejects bad sizes" test_create_rejects_bad_sizes;
        ] );
    ]
