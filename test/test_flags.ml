open Afs_core

let quick = Helpers.quick

let flag_testable = Alcotest.testable Flags.pp Flags.equal

let test_clear_is_legal () =
  Alcotest.(check bool) "legal" true (Flags.is_legal Flags.clear);
  Alcotest.(check int) "nibble 0" 0 (Flags.to_nibble Flags.clear)

let test_exactly_13_states () =
  Alcotest.(check int) "13 legal combinations" 13 (List.length Flags.all);
  let nibbles = List.map Flags.to_nibble Flags.all in
  Alcotest.(check (list int)) "nibbles 0..12" (List.init 13 Fun.id) nibbles

let test_all_states_legal () =
  List.iter (fun f -> Alcotest.(check bool) "legal" true (Flags.is_legal f)) Flags.all

let test_nibble_bijection () =
  List.iter
    (fun f ->
      match Flags.of_nibble (Flags.to_nibble f) with
      | Some f' -> Alcotest.check flag_testable "roundtrip" f f'
      | None -> Alcotest.fail "decode failed")
    Flags.all

let test_nibble_range () =
  Alcotest.(check (option flag_testable)) "13 invalid" None (Flags.of_nibble 13);
  Alcotest.(check (option flag_testable)) "15 invalid" None (Flags.of_nibble 15);
  Alcotest.(check (option flag_testable)) "negative invalid" None (Flags.of_nibble (-1))

let test_make_enforces_invariants () =
  Alcotest.check_raises "r without c" (Invalid_argument "Flags.make: illegal combination")
    (fun () -> ignore (Flags.make ~r:true ~copied:false ()));
  Alcotest.check_raises "m without s" (Invalid_argument "Flags.make: illegal combination")
    (fun () -> ignore (Flags.make ~m:true ~copied:true ()))

let test_record_read () =
  let f = Flags.record Flags.clear Flags.Read in
  Alcotest.(check bool) "c set" true f.Flags.c;
  Alcotest.(check bool) "r set" true f.Flags.r;
  Alcotest.(check bool) "w clear" false f.Flags.w

let test_record_write () =
  let f = Flags.record Flags.clear Flags.Write in
  Alcotest.(check bool) "c" true f.Flags.c;
  Alcotest.(check bool) "w" true f.Flags.w;
  Alcotest.(check bool) "r independent" false f.Flags.r

let test_record_search_modify () =
  let s = Flags.record Flags.clear Flags.Search in
  Alcotest.(check bool) "s" true s.Flags.s;
  Alcotest.(check bool) "m clear" false s.Flags.m;
  let m = Flags.record Flags.clear Flags.Modify in
  Alcotest.(check bool) "m" true m.Flags.m;
  Alcotest.(check bool) "m implies s" true m.Flags.s

let test_record_accumulates () =
  let f = Flags.record (Flags.record Flags.clear Flags.Read) Flags.Write in
  Alcotest.(check bool) "r kept" true f.Flags.r;
  Alcotest.(check bool) "w added" true f.Flags.w

let test_record_preserves_legality () =
  List.iter
    (fun f ->
      List.iter
        (fun a -> Alcotest.(check bool) "legal after record" true
            (Flags.is_legal (Flags.record f a)))
        [ Flags.Read; Flags.Write; Flags.Search; Flags.Modify ])
    Flags.all

let test_union () =
  let r = Flags.record Flags.clear Flags.Read in
  let w = Flags.record Flags.clear Flags.Write in
  let u = Flags.union r w in
  Alcotest.(check bool) "r" true u.Flags.r;
  Alcotest.(check bool) "w" true u.Flags.w;
  Alcotest.check flag_testable "union with clear" r (Flags.union r Flags.clear)

let test_union_closed () =
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.(check bool) "legal union" true (Flags.is_legal (Flags.union a b)))
        Flags.all)
    Flags.all

(* Property: encode/decode over the nibble space is exactly the legal set. *)
let prop_nibble_coverage =
  QCheck2.Test.make ~name:"of_nibble defined exactly on 0..12" ~count:100
    (QCheck2.Gen.int_range (-10) 30)
    (fun n ->
      match Flags.of_nibble n with
      | Some f -> n >= 0 && n <= 12 && Flags.to_nibble f = n
      | None -> n < 0 || n > 12)

let prop_union_idempotent =
  let gen = QCheck2.Gen.map (fun n ->
      match Flags.of_nibble (abs n mod 13) with Some f -> f | None -> Flags.clear)
      QCheck2.Gen.int
  in
  QCheck2.Test.make ~name:"union idempotent and commutative" ~count:200
    (QCheck2.Gen.pair gen gen)
    (fun (a, b) ->
      Flags.equal (Flags.union a b) (Flags.union b a)
      && Flags.equal (Flags.union a a) a)

(* {2 Interning}

   Every constructor answers one of the 13 states allocated at start-up,
   so recording an access allocates nothing and equal flags are the same
   value. *)

let states = Array.of_list Flags.all
let accesses = [| Flags.Read; Flags.Write; Flags.Search; Flags.Modify |]

(* [make]'s arguments for each state, built before any measurement. *)
let make_args =
  Array.map
    (fun (f : Flags.t) -> (Some f.Flags.r, Some f.Flags.w, Some f.Flags.s, Some f.Flags.m, f.Flags.c))
    states

(* Loops, not iterators: a closure over the outer state would allocate. *)
let record_all () =
  for i = 0 to Array.length states - 1 do
    for j = 0 to Array.length accesses - 1 do
      ignore (Sys.opaque_identity (Flags.record states.(i) accesses.(j)))
    done
  done

let union_all () =
  for i = 0 to Array.length states - 1 do
    for j = 0 to Array.length states - 1 do
      ignore (Sys.opaque_identity (Flags.union states.(i) states.(j)))
    done
  done

let make_all () =
  for i = 0 to Array.length make_args - 1 do
    let r, w, s, m, copied = make_args.(i) in
    ignore (Sys.opaque_identity (Flags.make ?r ?w ?s ?m ~copied ()))
  done

let of_nibble_all () =
  for n = -1 to 13 do
    ignore (Sys.opaque_identity (Flags.of_nibble n))
  done

let test_constructors_allocate_nothing () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.)) (name ^ " allocates no words") 0. (Helpers.minor_words_of f))
    [
      ("record", record_all);
      ("union", union_all);
      ("make", make_all);
      ("of_nibble", of_nibble_all);
    ]

(* The interned state with [f]'s encoding. *)
let interned f = states.(Flags.to_nibble f)

let test_equal_flags_are_one_value () =
  let same what f = Alcotest.(check bool) what true (f == interned f) in
  Array.iter
    (fun (f : Flags.t) ->
      same "state" f;
      (match Flags.of_nibble (Flags.to_nibble f) with
      | Some g -> same "of_nibble" g
      | None -> Alcotest.fail "of_nibble");
      same "make" (Flags.make ~r:f.Flags.r ~w:f.Flags.w ~s:f.Flags.s ~m:f.Flags.m ~copied:f.Flags.c ());
      Array.iter
        (fun a ->
          let g = Flags.record f a in
          same "record" g;
          (* Exactly the access's flags are added, and nothing else. *)
          Alcotest.(check bool) "record adds exactly the access" true
            (g.Flags.c
            && g.Flags.r = (f.Flags.r || a = Flags.Read)
            && g.Flags.w = (f.Flags.w || a = Flags.Write)
            && g.Flags.s = (f.Flags.s || a = Flags.Search || a = Flags.Modify)
            && g.Flags.m = (f.Flags.m || a = Flags.Modify));
          if Flags.to_nibble g = Flags.to_nibble f then same "no-op record answers its input" f)
        accesses;
      Array.iter
        (fun (g : Flags.t) ->
          let u = Flags.union f g in
          same "union" u;
          Alcotest.(check bool) "union is the flagwise or" true
            (u.Flags.c = (f.Flags.c || g.Flags.c)
            && u.Flags.r = (f.Flags.r || g.Flags.r)
            && u.Flags.w = (f.Flags.w || g.Flags.w)
            && u.Flags.s = (f.Flags.s || g.Flags.s)
            && u.Flags.m = (f.Flags.m || g.Flags.m)))
        states)
    states

let () =
  Alcotest.run "flags"
    [
      ( "states",
        [
          quick "clear is legal" test_clear_is_legal;
          quick "exactly 13 states" test_exactly_13_states;
          quick "all states legal" test_all_states_legal;
          quick "nibble bijection" test_nibble_bijection;
          quick "nibble range" test_nibble_range;
          quick "make enforces invariants" test_make_enforces_invariants;
        ] );
      ( "record",
        [
          quick "read" test_record_read;
          quick "write" test_record_write;
          quick "search/modify" test_record_search_modify;
          quick "accumulates" test_record_accumulates;
          quick "preserves legality" test_record_preserves_legality;
        ] );
      ( "union",
        [
          quick "basic" test_union;
          quick "closed over legal states" test_union_closed;
        ] );
      ( "interning",
        [
          quick "constructors allocate nothing" test_constructors_allocate_nothing;
          quick "equal flags are one value" test_equal_flags_are_one_value;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_nibble_coverage;
          QCheck_alcotest.to_alcotest prop_union_idempotent;
        ] );
    ]
