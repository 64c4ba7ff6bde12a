(** Zipf-distributed sampling over [0, n).

    Used by workload generators to model skewed access to files and pages
    ("hot" airline routes, popular accounts). A [theta] of 0 is uniform;
    larger values are more skewed (0.8-1.2 are typical database-benchmark
    settings). *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] prepares a sampler over ranks [0, n). Raises
    [Invalid_argument] if [n <= 0] or [theta < 0]. *)

val sample : t -> Xrng.t -> int
(** Draw a rank; rank 0 is the most popular. *)

val probability : t -> int -> float
(** [probability t k] is the probability mass of rank [k]. *)
