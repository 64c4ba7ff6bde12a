open Afs_block
module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module B = Block_server

let quick = Helpers.quick
let bytes = Helpers.bytes

let fresh ?(blocks = 64) () =
  let disk = Disk.create ~media:Media.electronic ~blocks ~block_size:1024 () in
  B.create ~disk ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "block server error: %s" (Fmt.str "%a" B.pp_error e)

let expect name pred = function
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> Alcotest.(check bool) name true (pred e)

let alice = 1
let bob = 2

let test_allocate_write_read () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.write s alice b (bytes "data")));
  Helpers.check_bytes "read back" "data" (Helpers.bytes_of (ok (B.read s alice b)))

let test_allocation_is_unique () =
  let s = fresh () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 32 do
    let b = ok (B.allocate s alice) in
    Alcotest.(check bool) "unique" false (Hashtbl.mem seen b);
    Hashtbl.replace seen b ()
  done

let test_exhaustion () =
  let s = fresh ~blocks:4 () in
  for _ = 1 to 4 do
    ignore (ok (B.allocate s alice))
  done;
  expect "exhausted" (function B.No_free_blocks -> true | _ -> false) (B.allocate s alice)

let test_deallocate_recycles () =
  let s = fresh ~blocks:2 () in
  let b0 = ok (B.allocate s alice) in
  let _b1 = ok (B.allocate s alice) in
  ignore (ok (B.deallocate s alice b0));
  let b2 = ok (B.allocate s alice) in
  Alcotest.(check int) "recycled" b0 b2

(* Write-once media cannot erase a freed block: its space is spent, and
   the server never hands it out again. *)
let test_deallocate_write_once_spent () =
  let disk = Disk.create ~media:Media.optical ~blocks:2 ~block_size:1024 () in
  let s = B.create ~disk () in
  let etch () =
    let b = ok (B.allocate s alice) in
    ok (B.write s alice b (bytes "etched"));
    ok (B.deallocate s alice b);
    b
  in
  let first = etch () in
  let second = etch () in
  Alcotest.(check (list int)) "two distinct blocks" [ 0; 1 ] (List.sort compare [ first; second ]);
  expect "no unetched block left" (function B.No_free_blocks -> true | _ -> false)
    (B.allocate s alice)

(* An offline disk cannot erase: the block stays allocated. *)
let test_deallocate_offline_frees_nothing () =
  let s = fresh ~blocks:1 () in
  let b = ok (B.allocate s alice) in
  ok (B.write s alice b (bytes "x"));
  Disk.set_offline (B.disk s) true;
  expect "offline" (function B.Disk_error Disk.Offline -> true | _ -> false)
    (B.deallocate s alice b);
  Disk.set_offline (B.disk s) false;
  Alcotest.(check (list int)) "still owned" [ b ] (B.owned_blocks s alice);
  ok (B.deallocate s alice b);
  Alcotest.(check int) "then recycled" b (ok (B.allocate s alice))

let test_protection () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.write s alice b (bytes "secret")));
  expect "read denied" (function B.Not_owner _ -> true | _ -> false) (B.read s bob b);
  expect "write denied" (function B.Not_owner _ -> true | _ -> false)
    (B.write s bob b (bytes "overwrite"));
  expect "free denied" (function B.Not_owner _ -> true | _ -> false) (B.deallocate s bob b)

let test_unallocated_access () =
  let s = fresh () in
  expect "read unallocated" (function B.Not_allocated 7 -> true | _ -> false)
    (B.read s alice 7)

let test_locking () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.lock s alice b));
  expect "holder" (function B.Locked { holder; _ } -> holder = alice | _ -> false)
    (B.unlock s bob b);
  (* Re-entrant for the same account. *)
  ignore (ok (B.lock s alice b));
  (* Lock excludes writes by others: the block is alice's anyway, but a
     second file server under the same account must be excluded. *)
  ignore (ok (B.unlock s alice b));
  expect "released" (function B.Not_locked _ -> true | _ -> false) (B.unlock s alice b)

let test_lock_blocks_other_account_unlock () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.lock s alice b));
  expect "foreign unlock" (function B.Locked _ -> true | _ -> false) (B.unlock s bob b);
  expect "unlock not locked" (function B.Not_locked _ -> true | _ -> false)
    (B.unlock s bob (ok (B.allocate s bob)))

let test_deallocate_clears_lock_state () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.lock s alice b));
  ignore (ok (B.deallocate s alice b));
  expect "lock gone" (function B.Not_locked _ -> true | _ -> false) (B.unlock s alice b)

let test_recovery_listing () =
  let s = fresh () in
  let a1 = ok (B.allocate s alice) in
  let _b1 = ok (B.allocate s bob) in
  let a2 = ok (B.allocate s alice) in
  Alcotest.(check (list int)) "alice's blocks" (List.sort compare [ a1; a2 ])
    (B.owned_blocks s alice);
  Alcotest.(check int) "total" 3 (B.allocated_blocks s)

let test_disk_error_surfaces () =
  let s = fresh () in
  let b = ok (B.allocate s alice) in
  ignore (ok (B.write s alice b (bytes "x")));
  Disk.set_offline (B.disk s) true;
  expect "disk offline" (function B.Disk_error Disk.Offline -> true | _ -> false)
    (B.read s alice b)

(* The server's clock is its disk's plus 0.1 ms per request, failed
   ones included. *)
let test_cost_includes_disk_time () =
  let disk = Disk.create ~media:Media.magnetic ~blocks:8 ~block_size:1024 () in
  let s = B.create ~disk () in
  let charged f =
    let before = B.busy_ms s in
    f ();
    B.busy_ms s -. before
  in
  let b = ok (B.allocate s alice) in
  Alcotest.(check (float 1e-9)) "allocate: overhead only" 0.1
    (charged (fun () -> ignore (B.allocate s alice)));
  Alcotest.(check (float 1e-9)) "write: disk time and overhead"
    (Media.write_cost Media.magnetic ~bytes:7 +. 0.1)
    (charged (fun () -> ok (B.write s alice b (bytes "payload"))));
  Alcotest.(check (float 1e-9)) "a denied read: overhead only" 0.1
    (charged (fun () -> ignore (B.read s bob b)));
  Alcotest.(check (float 1e-9)) "the clock is the disk's plus the overhead"
    (Disk.busy_ms disk +. 0.4) (B.busy_ms s)

let () =
  Alcotest.run "block_server"
    [
      ( "allocation",
        [
          quick "allocate/write/read" test_allocate_write_read;
          quick "unique allocation" test_allocation_is_unique;
          quick "exhaustion" test_exhaustion;
          quick "deallocate recycles" test_deallocate_recycles;
          quick "write-once space is spent" test_deallocate_write_once_spent;
          quick "offline free frees nothing" test_deallocate_offline_frees_nothing;
        ] );
      ( "protection",
        [
          quick "cross-account denied" test_protection;
          quick "unallocated access" test_unallocated_access;
        ] );
      ( "locking",
        [
          quick "lock/unlock" test_locking;
          quick "foreign unlock denied" test_lock_blocks_other_account_unlock;
          quick "deallocate clears lock" test_deallocate_clears_lock_state;
        ] );
      ( "recovery",
        [
          quick "owned_blocks listing" test_recovery_listing;
          quick "disk errors surface" test_disk_error_surfaces;
          quick "cost includes disk" test_cost_includes_disk_time;
        ] );
    ]
