module Summary = struct
  type t = { mutable count : int; mutable mean : float }

  let create () = { count = 0; mean = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count)

  let mean t = if t.count = 0 then 0.0 else t.mean
end

module Histogram = struct
  (* Buckets at powers of [growth]; bucket of x is floor(log_growth x). *)

  let growth = 1.09
  let log_growth = log growth
  let offset = 512 (* allow values down to growth^-512 *)
  let nbuckets = 1024

  type t = {
    buckets : int array;
    mutable count : int;
    (* Exact extremes, so p=0 and p=1 answer with observed values rather
       than bucket bounds (which overestimate by up to one bucket width). *)
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; vmin = infinity; vmax = neg_infinity }

  let bucket_of x =
    if x <= 0.0 then 0
    else
      let b = offset + int_of_float (Float.floor (log x /. log_growth)) in
      Stdlib.min (nbuckets - 1) (Stdlib.max 0 b)

  let upper_bound b = growth ** float_of_int (b - offset + 1)

  let add t x =
    let b = bucket_of x in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    if x < t.vmin then t.vmin <- x;
    if x > t.vmax then t.vmax <- x

  let count t = t.count

  let percentile t p =
    if Float.is_nan p || p < 0.0 || p > 1.0 then invalid_arg "Histogram.percentile";
    if t.count = 0 then 0.0
    else if p = 0.0 then t.vmin
    else if p = 1.0 then t.vmax
    else
      let target = int_of_float (Float.ceil (p *. float_of_int t.count)) in
      let target = Stdlib.max 1 target in
      let rec scan b seen =
        if b >= nbuckets then upper_bound (nbuckets - 1)
        else
          let seen = seen + t.buckets.(b) in
          if seen >= target then upper_bound b else scan (b + 1) seen
      in
      scan 0 0

  let merge a b =
    let merged = create () in
    for i = 0 to nbuckets - 1 do
      merged.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
    done;
    merged.count <- a.count + b.count;
    merged.vmin <- Float.min a.vmin b.vmin;
    merged.vmax <- Float.max a.vmax b.vmax;
    merged
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  (* The counter cell itself, for hot paths that bump the same counter
     millions of times: resolve the string key once, then increment the
     ref directly. Force lazily at the first bump so a counter that is
     never touched stays absent from [to_list], exactly as with [incr].
     [Hashtbl.find] rather than [find_opt]: a hit allocates nothing. *)
  let handle t name =
    match Hashtbl.find t name with
    | r -> r
    | exception Not_found ->
        let r = ref 0 in
        Hashtbl.add t name r;
        r

  let incr ?(by = 1) t name =
    let r = handle t name in
    r := !r + by

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
