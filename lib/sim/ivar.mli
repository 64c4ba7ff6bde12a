(** Write-once synchronisation variables ("ivars").

    The RPC layer pairs each outstanding request with an ivar carrying the
    reply; the client process blocks on {!read} until the server (or the
    crash injector) fills it. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Determine the ivar and wake all readers. Raises [Invalid_argument] if
    already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns false instead of raising when already full. *)

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Block the calling process until the ivar is filled; immediate if it
    already is. Must run inside a {!Proc} process. *)
