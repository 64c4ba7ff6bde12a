(** Page path names (paper §5).

    Pages within a file are referred to by pathnames: the root page has the
    empty pathname, and a child's pathname is its parent's pathname extended
    with the child's index in the parent's reference table. Pathnames are
    visible to clients, giving them explicit control over file shape. *)

type t
(** A pathname: a sequence of non-negative reference indices, root-first. *)

val root : t
(** The empty pathname of the root (version) page. *)

val of_list : int list -> t
(** Raises [Invalid_argument] on negative indices. *)

val to_list : t -> int list

val child : t -> int -> t
(** [child p i] extends [p] with index [i]. Raises on negative [i]. *)

val parent : t -> t option
(** [parent p] drops the last index; [None] for the root. *)

val last : t -> int option
(** The final index; [None] for the root. *)

val depth : t -> int

val is_prefix : t -> t -> bool
(** [is_prefix a b] is true when page [a] lies on the path from the root to
    page [b] (inclusive: every path prefixes itself). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

val to_string : t -> string
(** Dotted rendering, ["/"] for the root, e.g. ["/2.0.5"]. *)

val of_string : string -> (t, string) result
(** Inverse of [to_string]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
