(* Read for references only: its use of [test_only] is counted, not
   checked. *)

let () = assert (Fixture_lib.U1_api.test_only 2 = 4)
