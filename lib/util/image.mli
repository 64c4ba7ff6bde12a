(** A stored block image: the bytes one write handed over, which the
    first reader that knows where a page's encoded head ends splits, once,
    into that head and the page's own data.

    A store keeps one image per block and answers it to every reader. An
    image starts out whole: [head] is the written bytes and [data] is
    empty. {!split} copies the two parts out of the written bytes and
    keeps them instead, so every later reader shares the data rather than
    copying it again. Splitting changes how the bytes are held, never what
    they are: [head] followed by [data] always reads as the written bytes.
    Nobody else changes an image (the ownership rule of
    [Afs_core.Store]). *)

type t = private { mutable head : bytes; mutable data : bytes }

val of_bytes : bytes -> t
(** A whole image of the written bytes, which it keeps uncopied. *)

val length : t -> int
(** The written bytes' length. *)

val is_whole : t -> bool
(** Not split yet: [data] is empty and [head] holds every written byte. *)

val split : t -> at:int -> unit
(** [split t ~at] makes a whole image's first [at] bytes its [head] and the
    rest its [data], both copied once. Does nothing when [at] is the
    image's length or the image is already split. Raises
    [Invalid_argument] when [at] is out of range. *)

val to_bytes : t -> bytes
(** The written bytes: [head] itself while whole, else a fresh copy of
    head and data joined. *)

val equal : t -> t -> bool
(** The same written bytes, however each image is held: compared
    physically first, then byte by byte, without allocating. *)
