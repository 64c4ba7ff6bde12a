(* U1 fixture: an interface with one export of each kind. *)

val used : int -> int
(* Referenced from u1_user.ml, through a module alias. *)

val test_only : int -> int
(* Referenced only from the reference tree (u1/test). *)

val unused : int -> int
(* Referenced by nobody but its own implementation: a U1 error. *)

module Nested : sig
  val deep : int -> int
  (* Referenced from u1_user.ml under a local open. *)

  val orphan : int -> int
  (* Inside a nested signature and referenced by nobody: a U1 error. *)
end
