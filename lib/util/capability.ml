type rights = int

let rights_all = 0xFF
let rights_none = 0
let right_read = 0x01
let right_write = 0x02
let right_commit = 0x04
let right_destroy = 0x08
let right_admin = 0x10

let rights_subset a b = a land lnot b = 0
let rights_to_int r = r
let rights_of_int i = i land 0xFF

let pp_rights ppf r =
  let names =
    [ (right_read, "r"); (right_write, "w"); (right_commit, "c");
      (right_destroy, "d"); (right_admin, "a") ]
  in
  let shown =
    List.filter_map (fun (bit, name) -> if r land bit <> 0 then Some name else None) names
  in
  Fmt.pf ppf "%s" (if shown = [] then "-" else String.concat "" shown)

type port = int

let port_of_int i = i land 0xFFFFFFFFFFFF
let port_to_int p = p
let pp_port ppf p = Fmt.pf ppf "port:%06x" p

type t = { port : port; obj : int; rights : rights; check : int }

type secret = int64

let secret_of_seed seed =
  (* One splitmix64 step so that nearby seeds give unrelated secrets. *)
  let rng = Xrng.create seed in
  Xrng.bits64 rng

(* FNV-1a over the fields mixed with the secret; 32-bit truncated. A real
   system would use a cryptographic MAC, but the concurrency-control logic
   only needs unforgeability against honest-but-curious test clients. *)
(* One FNV-1a step per byte of [v], least-significant first, unrolled.
   Unrolling alone does not stop the boxing: a call returns its [Int64]
   boxed. Inlined into [check_field], every intermediate stays unboxed,
   so [validate] and [mint] allocate nothing but [mint]'s record. *)
let[@inline] feed h v =
  let prime = 0x100000001b3L in
  let h = Int64.mul (Int64.logxor h (Int64.logand v 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 8) 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 16) 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 24) 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 32) 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 40) 0xFFL)) prime in
  let h = Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical v 48) 0xFFL)) prime in
  Int64.mul (Int64.logxor h (Int64.shift_right_logical v 56)) prime

let check_field secret ~port ~obj ~rights =
  let h = feed 0xcbf29ce484222325L secret in
  let h = feed h (Int64.of_int port) in
  let h = feed h (Int64.of_int obj) in
  let h = feed h (Int64.of_int rights) in
  Int64.to_int (Int64.logand h 0x7FFFFFFFL)

let mint secret ~port ~obj ~rights =
  { port; obj; rights; check = check_field secret ~port ~obj ~rights }

let validate secret cap =
  cap.check = check_field secret ~port:cap.port ~obj:cap.obj ~rights:cap.rights

let restrict secret cap subset =
  if not (validate secret cap) then Error "invalid capability"
  else if not (rights_subset subset cap.rights) then Error "rights amplification refused"
  else Ok (mint secret ~port:cap.port ~obj:cap.obj ~rights:subset)

let equal a b =
  a.port = b.port && a.obj = b.obj && a.rights = b.rights && a.check = b.check

let compare = Stdlib.compare

let pp ppf cap =
  Fmt.pf ppf "{%a obj:%d %a}" pp_port cap.port cap.obj pp_rights cap.rights
