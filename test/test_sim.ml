open Afs_sim

let quick = Helpers.quick

(* {2 Engine} *)

let test_event_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 5.0 (fun () -> log := 5 :: !log);
  Engine.at e 1.0 (fun () -> log := 1 :: !log);
  Engine.at e 3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log)

let test_fifo_at_equal_times () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.at e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.at e 7.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "clock at event time" true (!seen = 7.5);
  Alcotest.(check bool) "clock stays" true (Engine.now e = 7.5)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 1.0 (fun () ->
      log := "a" :: !log;
      Engine.at e 1.0 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check bool) "time 2.0" true (Engine.now e = 2.0)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.at e 1.0 (fun () -> fired := 1 :: !fired);
  Engine.at e 10.0 (fun () -> fired := 10 :: !fired);
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check bool) "clock at limit" true (Engine.now e = 5.0);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "rest fired" [ 10; 1 ] !fired

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.at: negative delay") (fun () ->
      Engine.at e (-1.0) ignore)

let test_many_events_heap () =
  let e = Engine.create () in
  let rng = Afs_util.Xrng.create 1 in
  let last = ref (-1.0) in
  let monotone = ref true in
  for _ = 1 to 2000 do
    Engine.at e (Afs_util.Xrng.float rng 1000.0) (fun () ->
        if Engine.now e < !last then monotone := false;
        last := Engine.now e)
  done;
  Engine.run e;
  Alcotest.(check bool) "heap keeps time order" true !monotone;
  Alcotest.(check int) "all executed" 2000 (Engine.events_executed e)

(* The drain loop must not allocate per event beyond a small constant:
   [Engine.run] used to build a [Some]/tuple per pop, which at millions
   of events per bench run was measurable GC traffic. Thunks are
   pre-scheduled (their allocation happens before the measurement), and
   the shared callback closes over nothing fresh. *)
let test_drain_allocation_bounded () =
  let engine = Engine.create () in
  let n = 50_000 in
  let hits = ref 0 in
  let tick () = incr hits in
  for i = 0 to n - 1 do
    Engine.at engine (float_of_int (i mod 97)) tick
  done;
  let before = Gc.minor_words () in
  Engine.run engine;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all events ran" n !hits;
  let per_event = words /. float_of_int n in
  if per_event > 4.0 then
    Alcotest.failf "drain loop allocates %.1f words/event (want O(1), < 4)" per_event

(* {2 Proc} *)

let test_delay_advances_time () =
  let e = Engine.create () in
  let finished_at = ref 0.0 in
  let _ =
    Proc.spawn e (fun () ->
        Proc.delay 3.0;
        Proc.delay 4.0;
        finished_at := Engine.now e)
  in
  Engine.run e;
  Alcotest.(check bool) "7.0" true (!finished_at = 7.0)

let test_two_procs_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let mk name d =
    ignore
      (Proc.spawn ~name e (fun () ->
           for i = 1 to 3 do
             Proc.delay d;
             log := (name, i, Engine.now e) :: !log
           done))
  in
  mk "fast" 1.0;
  mk "slow" 2.5;
  Engine.run e;
  let order = List.rev_map (fun (n, i, _) -> (n, i)) !log in
  Alcotest.(check (list (pair string int)))
    "interleaving"
    [ ("fast", 1); ("fast", 2); ("slow", 1); ("fast", 3); ("slow", 2); ("slow", 3) ]
    order

let test_blocking_outside_process_rejected () =
  Alcotest.check_raises "outside"
    (Invalid_argument "Proc: blocking operation outside a process")
    (fun () -> Proc.delay 1.0)

let test_kill_before_start () =
  let e = Engine.create () in
  let ran = ref false in
  let h = Proc.spawn e (fun () -> ran := true) in
  Proc.kill h;
  Engine.run e;
  Alcotest.(check bool) "never ran" false !ran

let test_kill_while_parked () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let reached = ref false in
  let h =
    Proc.spawn e (fun () ->
        ignore (Ivar.read iv);
        reached := true)
  in
  Engine.at e 1.0 (fun () -> Proc.kill h);
  Engine.at e 2.0 (fun () -> Ivar.fill iv ());
  Engine.run e;
  Alcotest.(check bool) "continuation discarded" false !reached;
  Alcotest.(check bool) "not alive" false (Proc.alive h)

let test_joinable () =
  let e = Engine.create () in
  let done_count = ref 0 in
  let spawn_joined, join_all = Proc.joinable e in
  for i = 1 to 5 do
    ignore
      (spawn_joined (fun () ->
           Proc.delay (float_of_int i);
           incr done_count))
  done;
  let joined_at = ref (-1.0) in
  let _ =
    Proc.spawn e (fun () ->
        join_all ();
        joined_at := Engine.now e)
  in
  Engine.run e;
  Alcotest.(check int) "all done" 5 !done_count;
  Alcotest.(check bool) "join waited for slowest" true (!joined_at = 5.0)

(* {2 Ivar} *)

let test_ivar_fill_then_read () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 42;
  let got = ref 0 in
  let _ = Proc.spawn e (fun () -> got := Ivar.read iv) in
  Engine.run e;
  Alcotest.(check int) "immediate" 42 !got

let test_ivar_read_blocks () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got_at = ref (-1.0) in
  let _ =
    Proc.spawn e (fun () ->
        let v = Ivar.read iv in
        got_at := Engine.now e;
        Alcotest.(check int) "value" 7 v)
  in
  Engine.at e 3.0 (fun () -> Ivar.fill iv 7);
  Engine.run e;
  Alcotest.(check bool) "woke at fill" true (!got_at = 3.0)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    ignore (Proc.spawn e (fun () -> sum := !sum + Ivar.read iv))
  done;
  Engine.at e 1.0 (fun () -> Ivar.fill iv 5);
  Engine.run e;
  Alcotest.(check int) "all woken" 15 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill false" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv 3);
  Alcotest.(check (option int)) "first value kept" (Some 1) (Ivar.peek iv)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          quick "event ordering" test_event_ordering;
          quick "fifo at equal times" test_fifo_at_equal_times;
          quick "clock advances" test_clock_advances;
          quick "nested scheduling" test_nested_scheduling;
          quick "run until" test_run_until;
          quick "negative delay rejected" test_negative_delay_rejected;
          quick "heap stress" test_many_events_heap;
          quick "drain loop allocates O(1) per event" test_drain_allocation_bounded;
        ] );
      ( "proc",
        [
          quick "delay advances time" test_delay_advances_time;
          quick "interleaving" test_two_procs_interleave;
          quick "blocking outside process" test_blocking_outside_process_rejected;
          quick "kill before start" test_kill_before_start;
          quick "kill while parked" test_kill_while_parked;
          quick "joinable" test_joinable;
        ] );
      ( "ivar",
        [
          quick "fill then read" test_ivar_fill_then_read;
          quick "read blocks" test_ivar_read_blocks;
          quick "multiple readers" test_ivar_multiple_readers;
          quick "double fill" test_ivar_double_fill;
        ] );
    ]
