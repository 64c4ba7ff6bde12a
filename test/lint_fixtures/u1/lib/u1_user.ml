(* Uses U1_api only through an alias and a local open. *)

module A = U1_api

let run x = A.used x + U1_api.(Nested.deep x)
