(** Storage media models (paper §4, §5, Figure 2).

    The paper stores the top of the system tree on fast magnetic or
    "electronic" (RAM) disks and the lower, colder parts on large optical
    write-once media. The concurrency-control logic never depends on the
    medium; only cost and the write-once restriction differ. Latency
    figures are mid-1980s hardware, in milliseconds — absolute values are
    unimportant, the ordering electronic < magnetic < optical is what the
    experiments exercise. *)

type kind = Electronic | Magnetic | Optical

type t = {
  kind : kind;
  seek_ms : float;  (** Fixed per-operation positioning cost. *)
  transfer_ms_per_kb : float;  (** Linear transfer cost. *)
  write_once : bool;  (** True for optical: a written block is immutable. *)
}

val electronic : t
val magnetic : t
val optical : t

val read_cost : t -> bytes:int -> float
(** Simulated milliseconds to read [bytes] from this medium. *)

val write_cost : t -> bytes:int -> float

val kind_name : kind -> string
(** Lowercase media name, the [media] label in disk trace events. *)
