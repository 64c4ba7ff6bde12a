(** Online statistics and fixed-resolution histograms for the experiment
    harness: throughput, latency percentiles, abort counters. *)

module Summary : sig
  (** Streaming mean (Welford's update). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
end

module Histogram : sig
  (** Log-bucketed histogram over positive values; resolution ~9% per
      bucket, good enough for latency percentiles across nine decades. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t 0.99] is an upper bound on the p99 value; 0 when
      empty. [p] must be in [0, 1] (NaN is rejected); the endpoints are
      exact: [percentile t 0.0] and [percentile t 1.0] return the
      smallest and largest value ever added. *)

  val merge : t -> t -> t
  (** [merge a b] equals the histogram of both input streams combined:
      per-bucket counts add, extremes take the min/max. Neither input is
      modified. *)
end

module Counter : sig
  (** Named event counters, e.g. commits/aborts/retries per experiment. *)

  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit

  val handle : t -> string -> int ref
  (** The counter's cell, registering it at 0 if absent: resolve the
      string key once and increment the ref directly on hot paths. Wrap
      in [lazy] to keep never-touched counters out of {!to_list}. *)

  val get : t -> string -> int
  val to_list : t -> (string * int) list
  (** Sorted by name. *)
end

val ratio : int -> int -> float
(** [ratio num den] is [num/den] as a float, 0 when [den] is 0. *)
