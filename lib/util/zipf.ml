(* Inverse-CDF sampling over a precomputed cumulative table. The table costs
   O(n) space, which is fine for the workload sizes used here (<= 1e6) and
   makes [sample] an O(log n) binary search with exact probabilities. *)

type t = { n : int; cumulative : float array }

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 then invalid_arg "Zipf.create: theta must be >= 0";
  let weights = Array.init n (fun k -> 1.0 /. ((float_of_int (k + 1)) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (weights.(k) /. total);
    cumulative.(k) <- !acc
  done;
  cumulative.(n - 1) <- 1.0;
  { n; cumulative }

(* Smallest k with cumulative.(k) >= u. Iterative on purpose: the inner
   recursive function this used to be captured [u] and [t] in a closure
   allocated per sample, which the workload generators pay per page draw
   on million-transaction runs. Same comparisons, same result, same rng
   consumption — the draw stream is bit-compatible. *)
let sample t rng =
  let u = Xrng.float rng 1.0 in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let probability t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if k = 0 then t.cumulative.(0) else t.cumulative.(k) -. t.cumulative.(k - 1)
