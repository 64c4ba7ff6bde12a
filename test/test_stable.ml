open Afs_stable
module S = Stable_pair
module Disk = Afs_disk.Disk
module Image = Afs_util.Image

let quick = Helpers.quick
let bytes = Helpers.bytes

let fresh ?(blocks = 64) ?(block_size = 512) ?(seed = 1) () =
  S.create ~seed ~blocks ~block_size ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "stable error: %s" (Fmt.str "%a" S.pp_error e)

let expect name pred = function
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> Alcotest.(check bool) name true (pred e)

(* A read's image as the written bytes. *)
let read_bytes t i b = Result.map Helpers.bytes_of (S.read t i b)

let check_invariant t =
  match S.verify_companion_invariant t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* {2 Basic duplexed storage} *)

(* A read of a sound local copy checks its header against the payload
   where they lie and answers the writer's bytes themselves: it
   allocates only small answers, the serving check's, the disk's and its
   own, 10 words in all. *)
let test_read_allocates_payload_and_outcome () =
  let t = fresh ~block_size:2048 () in
  let payload = Bytes.make 1024 'p' in
  let b = ok (S.allocate_write t 0 payload) in
  let read () = ignore (Sys.opaque_identity (S.read t 0 b)) in
  read ();
  let words = Helpers.minor_words_of read in
  if words > 10. then
    Alcotest.failf "a 1 KiB read allocates %.0f words (want at most 10, no payload copy)" words;
  Alcotest.(check bool) "via 0, the written bytes" true ((ok (S.read t 0 b)).Image.head == payload);
  Alcotest.(check bool) "via 1, the written bytes" true ((ok (S.read t 1 b)).Image.head == payload)

let test_allocate_write_read () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "duplexed")) in
  Helpers.check_bytes "read via 0" "duplexed" (ok (read_bytes t 0 b));
  Helpers.check_bytes "read via 1" "duplexed" (ok (read_bytes t 1 b));
  check_invariant t

let test_both_disks_hold_copy () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "x")) in
  Alcotest.(check bool) "disk 0 has it" true (Disk.is_written (S.disk t 0) b);
  Alcotest.(check bool) "disk 1 has it" true (Disk.is_written (S.disk t 1) b)

let test_update_via_either_server () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  ignore (ok (S.write t 1 b (bytes "v2")));
  Helpers.check_bytes "updated" "v2" (ok (read_bytes t 0 b));
  check_invariant t

let test_free () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "gone soon")) in
  ignore (ok (S.free t 0 b));
  expect "read freed" (function S.Not_allocated _ -> true | _ -> false) (S.read t 0 b);
  expect "read freed via companion" (function S.Not_allocated _ -> true | _ -> false)
    (S.read t 1 b)

(* A reserved block never written holds nothing on either disk: freeing
   it drops the reservation, with no hop. *)
let test_free_tentative () =
  let t = fresh () in
  let b = ok (S.tentative_allocate t 0) in
  let before = S.busy_ms t in
  ok (S.free t 0 b);
  Alcotest.(check (float 0.0)) "no hop" before (S.busy_ms t);
  Alcotest.(check bool) "nothing on disk 0" false (Disk.is_written (S.disk t 0) b);
  Alcotest.(check bool) "nothing on disk 1" false (Disk.is_written (S.disk t 1) b);
  expect "no longer held" (function S.Not_allocated _ -> true | _ -> false)
    (S.write t 0 b (bytes "late"));
  (* A fresh reservation is allocated on both disks by its first write. *)
  let b2 = ok (S.tentative_allocate t 0) in
  ignore (ok (S.write_batch t 0 [ (b2, bytes "first write") ]));
  Helpers.check_bytes "read via 1" "first write" (ok (read_bytes t 1 b2));
  check_invariant t

let test_read_unallocated () =
  let t = fresh () in
  expect "unallocated" (function S.Not_allocated 3 -> true | _ -> false) (S.read t 0 3)

(* {2 Corruption repair} *)

let test_corruption_repaired_from_companion () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "precious")) in
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t 0) b ~xor_byte:'\xFF');
  Helpers.check_bytes "repaired read" "precious" (ok (read_bytes t 0 b));
  (* The local copy was repaired in passing. *)
  Helpers.check_bytes "second read clean" "precious" (ok (read_bytes t 0 b));
  check_invariant t

let test_corrupt_both_detected () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "doomed")) in
  ignore (Disk.corrupt (S.disk t 0) b ~xor_byte:'\xFF');
  ignore (Disk.corrupt (S.disk t 1) b ~xor_byte:'\xFF');
  expect "both corrupt" (function S.Corrupt_both _ -> true | _ -> false) (S.read t 0 b)

let disk_sector t i b =
  match Disk.read_sector (S.disk t i) b with
  | Ok sector -> sector
  | Error e -> Alcotest.failf "disk %d block %d: %a" i b Disk.pp_error e

(* The header's checksum covers the sequence number. With a one-byte
   payload, [Disk.corrupt]'s middle byte of header and data lies inside
   the header's 8-byte seq field: the damaged stale copy must fail its
   read, not win compare-notes as a newer copy and roll back the
   acknowledged "y". *)
let test_corrupt_seq_not_trusted () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "x")) in
  S.crash t 1;
  ignore (ok (S.write t 0 b (bytes "y")));
  let stale = disk_sector t 1 b in
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t 1) b ~xor_byte:'\xFF');
  let damaged = disk_sector t 1 b in
  Alcotest.(check bool) "the payload is untouched" true (damaged.Disk.image == stale.Disk.image);
  Alcotest.(check bool) "the seq field is hit" true
    (String.sub damaged.Disk.header 2 8 <> String.sub stale.Disk.header 2 8);
  ignore (ok (S.restart t 1));
  Helpers.check_bytes "read via 0" "y" (ok (read_bytes t 0 b));
  Helpers.check_bytes "read via 1" "y" (ok (read_bytes t 1 b));
  check_invariant t

(* With a 1 KiB payload the middle byte lies in the payload, beside an
   intact header: the CRC, which runs on from the header over the
   payload, must catch it, and the read repairs from the companion. *)
let test_payload_flip_caught () =
  let t = fresh ~block_size:2048 () in
  let payload = Bytes.make 1024 'q' in
  let b = ok (S.allocate_write t 0 payload) in
  let sound = disk_sector t 0 b in
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t 0) b ~xor_byte:'\x01');
  let damaged = disk_sector t 0 b in
  Alcotest.(check bool) "the header is untouched" true (damaged.Disk.header == sound.Disk.header);
  Alcotest.(check bool) "the payload differs" false
    (Image.equal damaged.Disk.image sound.Disk.image);
  Alcotest.(check bool) "the writer's bytes are untouched" true
    (Bytes.equal payload (Bytes.make 1024 'q'));
  Alcotest.(check bool) "the read answers the written bytes" true
    ((ok (S.read t 0 b)).Image.head == payload);
  Alcotest.(check bool) "repaired with the companion's sector" true
    (disk_sector t 0 b == disk_sector t 1 b);
  check_invariant t

let disk_image t i b =
  match Disk.read (S.disk t i) b with
  | Ok image -> image
  | Error e -> Alcotest.failf "disk %d block %d: %a" i b Disk.pp_error e

(* A copy to compare against: a shared image that were damaged in place
   would also change every alias of it. *)
let snapshot image = Bytes.to_string (Bytes.of_string image)

(* A copy to compare against, header and data: a shared sector that were
   damaged in place would also change every alias of it. *)
let snapshot_sector (s : Disk.sector) =
  (snapshot s.Disk.header, Bytes.to_string (Helpers.bytes_of s.Disk.image))

let contents (s : Disk.sector) = (s.Disk.header, Bytes.to_string (Helpers.bytes_of s.Disk.image))

(* Both legs of a stable write store one sealed sector, the same record
   on both disks. [Disk.corrupt] replaces the damaged block instead of
   mutating its strings: the other disk stays intact, and a read through
   the damaged side repairs it with the companion's sector itself. *)
let check_shared_image_repairs t b ~damaged ~expect:payload =
  let sector = disk_sector t (1 - damaged) b in
  let good = snapshot_sector sector in
  let header_and_data = Alcotest.(pair string string) in
  Alcotest.(check bool) "both disks hold one sector" true (disk_sector t damaged b == sector);
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t damaged) b ~xor_byte:'\x5A');
  Alcotest.check header_and_data "other disk untouched" good
    (contents (disk_sector t (1 - damaged) b));
  Alcotest.(check bool) "damaged disk differs" false (good = contents (disk_sector t damaged b));
  Helpers.check_bytes "read repairs" payload (ok (read_bytes t damaged b));
  Alcotest.(check bool) "repaired with the companion's sector" true
    (disk_sector t damaged b == disk_sector t (1 - damaged) b)

let test_write_legs_share_image () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  ignore (ok (S.write t 0 b (bytes "v2")));
  check_shared_image_repairs t b ~damaged:1 ~expect:"v2";
  ignore (ok (S.write t 1 b (bytes "v3")));
  check_shared_image_repairs t b ~damaged:1 ~expect:"v3";
  check_invariant t

let test_write_batch_legs_share_image () =
  let t = fresh () in
  let blocks = List.init 4 (fun i -> ok (S.allocate_write t 0 (bytes (Printf.sprintf "old-%d" i)))) in
  let payload i = Printf.sprintf "new-%d" i in
  ignore (ok (S.write_batch t 0 (List.mapi (fun i b -> (b, bytes (payload i))) blocks)));
  List.iteri
    (fun i b -> check_shared_image_repairs t b ~damaged:(i mod 2) ~expect:(payload i))
    blocks;
  check_invariant t

(* Corruption on one disk touches neither the companion's copy nor the
   payload the writer handed in; the read repairs from the companion. *)
let test_corrupt_leaves_companion_intact () =
  let t = fresh () in
  let payload = bytes "shared" in
  let b = ok (S.allocate_write t 0 payload) in
  let image = disk_image t 1 b in
  let good = snapshot image in
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t 0) b ~xor_byte:'\xFF');
  Alcotest.(check bool) "companion keeps its image" true (disk_image t 1 b == image);
  Alcotest.(check string) "companion's image unchanged" good image;
  Helpers.check_bytes "writer's payload unchanged" "shared" payload;
  Helpers.check_bytes "read repairs from the companion" "shared" (ok (read_bytes t 0 b));
  Alcotest.(check bool) "repaired with the companion's image" true (disk_image t 0 b == image);
  check_invariant t

(* {2 Allocate collisions} *)

let test_interleaved_allocate_collision () =
  (* Drive the protocol steps by hand: both servers tentatively choose the
     same block, then shadow-write; the companion detects the collision
     before any primary copy is damaged. *)
  let t = fresh ~blocks:1 () in
  let b0 = ok (S.tentative_allocate t 0) in
  let b1 = ok (S.tentative_allocate t 1) in
  Alcotest.(check int) "same block chosen" b0 b1;
  (* Server 0's shadow write arrives at server 1, which holds a tentative
     claim on the same block: collision. *)
  expect "collision detected" (function S.Collision _ -> true | _ -> false)
    (S.shadow_write t ~primary:0 b0 (bytes "from-0"));
  S.abort_tentative t 0 b0;
  (* Server 1 now completes unhindered. *)
  let seq = ok (S.shadow_write t ~primary:1 b1 (bytes "from-1")) in
  ignore (ok (S.local_write_seq t 1 b1 (bytes "from-1") seq));
  Helpers.check_bytes "winner's data" "from-1" (ok (read_bytes t 1 b1));
  check_invariant t

let test_allocate_write_retries_internally () =
  (* With a single-block address space and a pre-claimed tentative slot at
     the companion, allocate_write must retry and eventually give up. *)
  let t = fresh ~blocks:1 () in
  let b = ok (S.tentative_allocate t 1) in
  expect "exhausts retries" (function S.No_free_blocks -> true | _ -> false)
    (S.allocate_write t 0 (bytes "loser"));
  S.abort_tentative t 1 b;
  let b2 = ok (S.allocate_write t 0 (bytes "winner")) in
  Helpers.check_bytes "eventually lands" "winner" (ok (read_bytes t 0 b2))

(* A batch's fresh block that the companion holds tentatively collides
   on leg 1, before any copy of the batch is written. *)
let test_write_batch_fresh_collision () =
  let t = fresh ~blocks:2 () in
  let kept = ok (S.allocate_write t 0 (bytes "old")) in
  let b = ok (S.tentative_allocate t 0) in
  Alcotest.(check int) "the companion chooses the same block" b (ok (S.tentative_allocate t 1));
  expect "collision" (function S.Collision c -> c = b | _ -> false)
    (S.write_batch t 0 [ (kept, bytes "new"); (b, bytes "fresh") ]);
  Alcotest.(check bool) "no local copy" false (Disk.is_written (S.disk t 0) b);
  Alcotest.(check bool) "no companion copy" false (Disk.is_written (S.disk t 1) b);
  Helpers.check_bytes "allocated block untouched" "old" (ok (read_bytes t 0 kept));
  (* The loser drops its claim; the companion's own first write lands. *)
  S.abort_tentative t 0 b;
  ignore (ok (S.write t 1 b (bytes "companion's")));
  Helpers.check_bytes "winner's data" "companion's" (ok (read_bytes t 0 b));
  check_invariant t

(* {2 Crashes} *)

let test_write_with_companion_down () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  S.crash t 1;
  ignore (ok (S.write t 0 b (bytes "v2-solo")));
  Helpers.check_bytes "local serves" "v2-solo" (ok (read_bytes t 0 b));
  (* Companion comes back and compares notes. *)
  let repaired = ok (S.restart t 1) in
  Alcotest.(check bool) "repaired blocks" true (repaired >= 1);
  Helpers.check_bytes "companion caught up" "v2-solo" (ok (read_bytes t 1 b));
  check_invariant t

let test_crashed_server_refuses () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "x")) in
  S.crash t 0;
  expect "crashed refuses" (function S.Unavailable 0 -> true | _ -> false) (S.read t 0 b);
  Alcotest.(check (option int)) "other online" (Some 1) (S.some_online t)

let test_full_disk_loss_recovery () =
  let t = fresh () in
  let blocks = List.init 10 (fun i -> ok (S.allocate_write t 0 (bytes (Printf.sprintf "block-%d" i)))) in
  S.wipe_and_crash t 0;
  let repaired = ok (S.restart t 0) in
  Alcotest.(check int) "all blocks repaired" 10 repaired;
  List.iteri
    (fun i b ->
      Helpers.check_bytes (Printf.sprintf "block %d" i) (Printf.sprintf "block-%d" i)
        (ok (read_bytes t 0 b)))
    blocks;
  check_invariant t

let test_both_down_then_lone_restart () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "survivor")) in
  S.crash t 0;
  S.crash t 1;
  Alcotest.(check (option int)) "none online" None (S.some_online t);
  ignore (ok (S.restart t 0));
  Helpers.check_bytes "lone server serves own disk" "survivor" (ok (read_bytes t 0 b))

let test_crash_between_shadow_and_local () =
  (* The §4 ordering: companion first, then local. Crash the primary in
     between: the companion has the newer copy and recovery propagates. *)
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  let seq = ok (S.shadow_write t ~primary:0 b (bytes "v2")) in
  (* Primary dies before its local write. *)
  ignore seq;
  S.crash t 0;
  Helpers.check_bytes "companion already has v2" "v2" (ok (read_bytes t 1 b));
  let _ = ok (S.restart t 0) in
  Helpers.check_bytes "recovered primary has v2" "v2" (ok (read_bytes t 0 b));
  check_invariant t

let test_intention_list_discharged () =
  let t = fresh () in
  let b1 = ok (S.allocate_write t 0 (bytes "a1")) in
  S.crash t 1;
  ignore (ok (S.write t 0 b1 (bytes "a2")));
  let b2 = ok (S.allocate_write t 0 (bytes "fresh-during-outage")) in
  let repaired = ok (S.restart t 1) in
  Alcotest.(check bool) "two repairs" true (repaired >= 2);
  Helpers.check_bytes "update propagated" "a2" (ok (read_bytes t 1 b1));
  Helpers.check_bytes "new block propagated" "fresh-during-outage" (ok (read_bytes t 1 b2));
  check_invariant t

let test_seq_monotonic_across_restart () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  S.crash t 0;
  ignore (ok (S.write t 1 b (bytes "v2")));
  ignore (ok (S.restart t 0));
  ignore (ok (S.write t 0 b (bytes "v3")));
  Helpers.check_bytes "latest wins everywhere" "v3" (ok (read_bytes t 1 b));
  check_invariant t

(* A block written while the companion was down reaches it at restart,
   when the restarting side pushes its copy. The companion's seq counter
   must pass the pushed seq, or its next solo write of that block reuses
   the seq and compare-notes cannot tell the two copies apart. *)
let test_pushed_copy_advances_companion_seq () =
  let t = fresh () in
  S.crash t 1;
  let b = ok (S.allocate_write t 0 (bytes "a")) in
  S.crash t 0;
  ignore (ok (S.restart t 1));
  ignore (ok (S.restart t 0));
  S.crash t 0;
  ignore (ok (S.write t 1 b (bytes "new")));
  ignore (ok (S.restart t 0));
  Helpers.check_bytes "read via 0" "new" (ok (read_bytes t 0 b));
  Helpers.check_bytes "read via 1" "new" (ok (read_bytes t 1 b));
  check_invariant t

(* Compare-notes reads both copies of every block in the union, but
   compares only seqs and passes the winning sector on: a restart over
   [n] 1 KiB blocks copies no payload, so it allocates less than half a
   payload (130 words) per block. *)
let test_restart_copies_no_payload () =
  let n = 64 in
  let t = fresh ~blocks:256 ~block_size:2048 () in
  let fill i = Char.chr (65 + (i mod 26)) in
  let blocks = List.init n (fun i -> ok (S.allocate_write t 0 (Bytes.make 1024 (fill i)))) in
  S.crash t 1;
  let payload_words = float_of_int ((1024 / (Sys.word_size / 8)) + 2) in
  let words = Helpers.minor_words_of (fun () -> ignore (ok (S.restart t 1))) in
  if words > float_of_int n *. payload_words /. 2. then
    Alcotest.failf "a restart over %d 1 KiB blocks allocates %.0f words (%d payloads are %.0f)" n
      words n (float_of_int n *. payload_words);
  List.iteri
    (fun i b -> Helpers.check_bytes "read via 1" (String.make 1024 (fill i)) (ok (read_bytes t 1 b)))
    blocks;
  check_invariant t

(* The pair's clock is its disks' busy time plus the hops it models: a
   write pays two disk writes and one hop, a free one hop, and a restart
   its reads and repairs and one hop. *)
let test_cost_reported () =
  let t = fresh () in
  let disks () = Disk.busy_ms (S.disk t 0) +. Disk.busy_ms (S.disk t 1) in
  let hops () = S.busy_ms t -. disks () in
  let b = ok (S.allocate_write t 0 (bytes "paid for")) in
  Alcotest.(check bool) "disk time" true (disks () > 0.0);
  Alcotest.(check (float 1e-9)) "a write's hop" 2.0 (hops ());
  ok (S.free t 1 b);
  Alcotest.(check (float 1e-9)) "a free's hop" 4.0 (hops ());
  S.crash t 1;
  ignore (ok (S.allocate_write t 0 (bytes "alone")));
  Alcotest.(check (float 1e-9)) "no hop with the companion down" 4.0 (hops ());
  ignore (ok (S.restart t 1));
  Alcotest.(check (float 1e-9)) "a restart's hop" 6.0 (hops ())

(* A block freed while its companion is down stays freed: the restart
   drops the companion's stale copy instead of pushing it back, and the
   block is allocated again. *)
let test_free_during_outage () =
  let t = fresh ~blocks:8 () in
  let b = ok (S.allocate_write t 0 (bytes "stale")) in
  S.crash t 1;
  ok (S.free t 0 b);
  ignore (ok (S.restart t 1));
  let freed = function S.Not_allocated _ -> true | _ -> false in
  expect "freed via 0" freed (S.read t 0 b);
  expect "freed via 1" freed (S.read t 1 b);
  Alcotest.(check bool) "no copy left on disk 1" false (Disk.is_written (S.disk t 1) b);
  let again = List.init 8 (fun _ -> ok (S.allocate_write t 0 (bytes "fresh"))) in
  Alcotest.(check bool) "allocated again" true (List.mem b again);
  check_invariant t

let () =
  Alcotest.run "stable_pair"
    [
      ( "duplex",
        [
          quick "allocate/write/read" test_allocate_write_read;
          quick "read allocates payload and outcome" test_read_allocates_payload_and_outcome;
          quick "both disks hold copy" test_both_disks_hold_copy;
          quick "update via either server" test_update_via_either_server;
          quick "free" test_free;
          quick "free a tentative block" test_free_tentative;
          quick "read unallocated" test_read_unallocated;
        ] );
      ( "corruption",
        [
          quick "repair from companion" test_corruption_repaired_from_companion;
          quick "both corrupt detected" test_corrupt_both_detected;
          quick "corrupt seq not trusted" test_corrupt_seq_not_trusted;
          quick "write legs share one image" test_write_legs_share_image;
          quick "write_batch legs share one image" test_write_batch_legs_share_image;
          quick "corrupt leaves companion intact" test_corrupt_leaves_companion_intact;
          quick "payload flip caught by the CRC" test_payload_flip_caught;
        ] );
      ( "collisions",
        [
          quick "interleaved allocate collision" test_interleaved_allocate_collision;
          quick "allocate_write retries" test_allocate_write_retries_internally;
          quick "write_batch fresh collision" test_write_batch_fresh_collision;
        ] );
      ( "crashes",
        [
          quick "write with companion down" test_write_with_companion_down;
          quick "crashed server refuses" test_crashed_server_refuses;
          quick "full disk loss recovery" test_full_disk_loss_recovery;
          quick "both down, lone restart" test_both_down_then_lone_restart;
          quick "crash between shadow and local" test_crash_between_shadow_and_local;
          quick "intentions discharged" test_intention_list_discharged;
          quick "sequence monotonic" test_seq_monotonic_across_restart;
          quick "pushed copy advances companion seq" test_pushed_copy_advances_companion_seq;
          quick "cost reported" test_cost_reported;
          quick "restart copies no payload" test_restart_copies_no_payload;
          quick "free during outage stays freed" test_free_during_outage;
        ] );
    ]
