(** A simulated raw disk: a numbered array of fixed-size blocks.

    Provides exactly what §4 requires of the medium under a block server:
    atomic whole-block writes acknowledged after they are durable, plus the
    failure modes the paper's recovery machinery must survive — the device
    going offline (a crash) and occasional silent corruption, which the
    stable-storage layer detects by checksum and repairs from the companion
    disk.

    Operations are synchronous and answer plain results. Each read and
    write adds its {!Media} cost to the disk's one clock, {!busy_ms}; the
    RPC layer charges a request the clock's growth as service time. *)

type t

type error =
  | Offline  (** Device crashed / unreachable. *)
  | Out_of_range of int
  | Never_written of int  (** Read of a block with no data. *)
  | Write_once_violation of int  (** Overwrite attempt on optical media. *)
  | Too_large of { requested : int; block_size : int }

val pp_error : error Fmt.t

val create :
  ?trace:Afs_trace.Trace.t -> media:Media.t -> blocks:int -> block_size:int -> unit -> t
(** Raises [Invalid_argument] on non-positive sizes. Successful reads and
    writes emit [disk.read]/[disk.write] trace events carrying the media
    kind, block number and simulated cost. *)

val block_count : t -> int
val block_size : t -> int

(** {2 Sectors}

    A block holds a sector: a small header beside an image
    ({!Afs_util.Image}: the written bytes, which a page store's first
    decode splits into the page's head and data). The layer above owns
    the header's format. The stable pair keeps a write's sequence number
    and checksum there, next to the image rather than wrapped around it.
    A block server writes an empty header. Nobody changes a sector's
    bytes once written: a write keeps the caller's record and a read
    answers it, without a copy, so one sector may sit on several blocks
    or disks at once, and a split of its image shows wherever it sits. A
    read or write charges {!Media} cost, counts bytes and traces [bytes]
    for the header and image together: the same count the header and
    payload would have in one wrapped image. *)

type sector = { header : string; image : Afs_util.Image.t }

val read_sector : t -> int -> (sector, error) result
(** The stored sector itself. *)

val write_sector : t -> int -> sector -> (unit, error) result
(** Whole-block atomic write of the header and image, which must fit the
    block size together; keeps the caller's record. Fails with
    [Write_once_violation] when overwriting on write-once media. *)

val read : t -> int -> (string, error) result
(** The stored sector's image as one string (its exact written length):
    the written bytes themselves while the image is whole, a joined copy
    once it is split. *)

val write : t -> int -> string -> (unit, error) result
(** [write t b data] writes a whole image of [data] with an empty
    header. *)

val erase : t -> int -> (unit, error) result
(** Return a block to the never-written state. Fails on write-once media
    with [Write_once_violation]. *)

val is_written : t -> int -> bool
(** False for out-of-range blocks. Ignores the offline flag: used by
    recovery scans. *)

(** {2 Fault injection} *)

val set_offline : t -> bool -> unit

val corrupt : t -> int -> xor_byte:char -> bool
(** Replace a written block's sector, silently, with a copy that has one
    byte XORed: the middle byte of the header and image taken together.
    Returns false if the block holds no bytes. Models media decay;
    checksums upstream must catch it. Other holders of the old sector (a
    companion disk, the writer) keep it intact. *)

val wipe : t -> unit
(** Lose all contents (head crash). The device stays online. *)

(** {2 Accounting} *)

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ms : float;
  blocks_in_use : int;
}

val stats : t -> stats

val busy_ms : t -> float
(** The disk's clock: the simulated milliseconds of every read and write
    so far, [(stats t).busy_ms] without building the record. The RPC
    layer reads it around every request. *)
