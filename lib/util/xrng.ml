type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 output function. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Xrng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

(* Fill [b] with printable bytes: per byte, exactly the draw
   [Char.chr (32 + int t 95)] makes, so the stream (and every draw after
   it) is bit-identical to the per-byte path. The splitmix chain is
   inlined so the whole loop body is local [Int64] arithmetic the
   compiler keeps unboxed — the generic path allocates three boxed
   [Int64]s per byte, which at a kilobyte per transaction was the
   workload generator's entire cost. State advances by [gamma] per draw,
   so draw [i] mixes [s0 + gamma * (i + 1)] directly. *)
let fill_printable t b =
  let len = Bytes.length b in
  let s0 = t.state in
  for i = 0 to len - 1 do
    let z = Int64.add s0 (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let v = Int64.to_int (Int64.rem (Int64.shift_right_logical z 1) 95L) in
    Bytes.unsafe_set b i (Char.unsafe_chr (32 + v))
  done;
  t.state <- Int64.add s0 (Int64.mul golden_gamma (Int64.of_int len))

let int_in t lo hi =
  if hi < lo then invalid_arg "Xrng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (u /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t mean =
  let u = ref (float t 1.0) in
  if !u <= 0.0 then u := epsilon_float;
  -.mean *. log !u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Xrng.pick: empty array";
  a.(int t (Array.length a))
