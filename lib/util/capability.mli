(** Amoeba-style capabilities (Mullender & Tanenbaum 1985b).

    A capability names an object managed by some service and carries the
    rights its holder may exercise. It is protected by a check field: a
    one-way function of the object number, the rights and a secret known
    only to the managing server. Clients can pass capabilities around and
    restrict rights, but cannot forge or amplify them.

    The file service hands out two kinds: file capabilities and version
    capabilities (paper §5). This module is agnostic to the kind; services
    layer their own meaning on [obj]. *)

type rights
(** A set of access rights, at most 8 distinct bits. *)

val rights_all : rights
val rights_none : rights

val right_read : rights
val right_write : rights
val right_commit : rights
val right_destroy : rights
val right_admin : rights

val rights_subset : rights -> rights -> bool
(** [rights_subset a b] is true when every right in [a] is also in [b]. *)

val rights_to_int : rights -> int
val rights_of_int : int -> rights

type port = private int
(** A 48-bit service port, the Amoeba addressing unit. Ports also serve as
    lock identities in the file service (§5.3). *)

val port_of_int : int -> port
val port_to_int : port -> int

type t = { port : port; obj : int; rights : rights; check : int }
(** The capability proper. [check] is opaque to clients. *)

type secret
(** Server-side secret used to mint and validate check fields. *)

val secret_of_seed : int -> secret

val mint : secret -> port:port -> obj:int -> rights:rights -> t
(** Server-side: create a valid capability. *)

val validate : secret -> t -> bool
(** Server-side: true iff the check field matches the object and rights. *)

val restrict : secret -> t -> rights -> (t, string) result
(** [restrict secret cap subset] returns a capability for fewer rights.
    In full Amoeba a commutative one-way function lets anyone restrict;
    here restriction is performed by the owning server, which validates
    [cap] first and refuses right amplification. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
