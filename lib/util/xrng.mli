(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    simulations, workloads and property tests are reproducible from a seed.
    The generator is splitmix64 (Steele, Lea & Flood 2014): tiny state, good
    statistical quality, and cheap [split] for giving independent streams to
    concurrent simulated processes. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val fill_printable : t -> bytes -> unit
(** Fill the buffer with printable ASCII (space to [~]), consuming one
    draw per byte — stream-identical to [Char.chr (32 + int t 95)] per
    byte, but without the generic path's three boxed [Int64] allocations
    each. For bulk payload generation on workload hot paths. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential inter-arrival time with the
    given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. Raises [Invalid_argument] on empty arrays. *)
