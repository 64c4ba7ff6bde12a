(** The C/R/W/S/M page-reference flags (paper §5.1, Figure 3).

    Each entry in a page's reference table carries five flags describing
    how the {e referred-to} page has been accessed in this version:

    - [C] — the page was copied and is no longer shared with the version
      this one was based on;
    - [R] — the page's data was read;
    - [W] — the page's data was written;
    - [S] — the page's references were consulted (searched);
    - [M] — the page's references were modified (insert/remove page).

    Invariants (enforced by this module): a page cannot be accessed in any
    way without first being copied, so each of [R], [W], [S], [M] implies
    [C]; and references cannot be modified without being consulted, so [M]
    implies [S]. That leaves exactly 13 legal combinations, which fit in
    four bits — Amoeba packs a reference into 28 bits of block number plus
    these four bits.

    The 13 states are allocated once, when the module initialises:
    {!clear}, {!make}, {!record}, {!union} and {!of_nibble} answer one of
    them and allocate nothing, so recording an access on the page-access
    path costs no allocation, and equal flags are the same value. *)

type t = private { c : bool; r : bool; w : bool; s : bool; m : bool }

val clear : t
(** All flags off: the page is still shared with the base version. *)

val make : ?r:bool -> ?w:bool -> ?s:bool -> ?m:bool -> copied:bool -> unit -> t
(** Raises [Invalid_argument] if the requested combination violates the
    invariants (e.g. [r] without [copied], or [m] without [s]). *)

type access = Read | Write | Search | Modify

val record : t -> access -> t
(** [record t a] returns [t] with the flags implied by access [a] added;
    sets [C] (and [S] for [Modify]) as needed. An access that adds no flag
    answers [t] itself. *)

val is_legal : t -> bool

val all : t list
(** The 13 legal flag states, in encoding order. *)

val to_nibble : t -> int
(** Injective encoding into [0, 12]. *)

val of_nibble : int -> t option
(** Inverse of {!to_nibble}; [None] for values outside [0, 12]. *)

val legal_nibble : int -> bool
(** [legal_nibble n] iff [of_nibble n <> None]. *)

val union : t -> t -> t
(** Least upper bound of two access records (used when folding subtree
    summaries). *)

val equal : t -> t -> bool
(** Physical equality, which is exact because every state is interned. *)

val pp : t Fmt.t
