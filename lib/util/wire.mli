(** Little-endian byte readers and writers for on-disk page images and RPC
    message bodies. Decoding failures raise {!Decode_error} rather than
    returning partial garbage: a corrupted block must be detected, because
    the stable-storage layer (§4) falls back to the companion server on
    corruption. *)

exception Decode_error of string

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; compact for small reference counts and sizes. *)

  val sized_bytes : t -> bytes -> unit
  (** Varint length prefix followed by the bytes. *)

  val string : t -> string -> unit
  (** Same framing as [sized_bytes]. *)

  val contents : t -> bytes
end

(** {2 Exact-size encoding} For fixed-layout images whose size is known
    before writing: allocate once, fill in place. *)

val varint_size : int -> int
(** Bytes {!Writer.varint} emits for this value. *)

val set_varint : bytes -> int -> int -> int
(** [set_varint b pos v] writes [v] as {!Writer.varint} would, starting
    at [pos], and returns the position after it. *)

module Reader : sig
  type t

  val of_bytes : bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val varint : t -> int
  val sized_bytes : t -> bytes
  val string : t -> string
  val expect_end : t -> unit
  (** Raises {!Decode_error} if any input remains. *)
end

val crc32 : bytes -> int
(** CRC-32 (IEEE polynomial) used as the page-image integrity check.
    Computed eight bytes per step (slicing-by-8); bit-identical to the
    classic byte-at-a-time loop. *)

val crc32_continue : int -> bytes -> int -> int -> int
(** [crc32_continue crc b pos len] continues [crc], the CRC-32 of some
    earlier bytes, over [len] bytes of [b] from [pos]: the CRC-32 of the
    earlier bytes followed by these, as though they were one buffer. The
    CRC of no bytes is [0]. Raises [Invalid_argument] on a range outside
    [b]. *)

val crc32_sub : bytes -> int -> int -> int
(** [crc32_sub b pos len] is [crc32 (Bytes.sub b pos len)] without the
    copy: [crc32_continue 0 b pos len]. *)
