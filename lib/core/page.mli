(** Pages: the unit the file service stores and the shape of Figure 3.

    A page has a header area (maintained by servers, invisible to clients)
    and the page proper: a reference table of child pages — each entry a
    28-bit block number plus the four-bit C/R/W/S/M encoding — and a
    variable-size client data area. Version pages (the roots of version
    trees) additionally carry the file and version capabilities, the
    commit reference, the top and inner lock fields and the parent
    reference. All pages carry a base reference, the block they were
    copied from.

    One engineering addition to Figure 3: the version page records the
    root page's own access flags ([root_flags]). The paper keeps them "in
    the managing server" but also notes (§5.4) that the flags must be
    present in the files themselves for crash recovery; persisting them in
    the version page satisfies both.

    Pages are immutable values, but for one rule: a page its dirty cache
    entry owns (written by a server and not yet made durable: on the
    access path, a fresh private page of an uncommitted version) may have
    its reference table updated in place ({!set_ref}). Every other update
    returns a new page. The server decides which block holds a page. *)

type ref_entry = { block : int; flags : Flags.t }

type header = {
  file_cap : Afs_util.Capability.t option;  (** Version pages only. *)
  version_cap : Afs_util.Capability.t option;  (** Version pages only. *)
  commit_ref : int option;
      (** Version pages: block of the successor committed version; [None]
          means this is the current version. *)
  top_lock : int;  (** 0 when clear, else the holding update's port. *)
  inner_lock : int;
  parent_ref : int option;
      (** Version pages: block of the enclosing super-file's version page. *)
  base_ref : int option;
      (** Block this page was copied from. For an uncommitted version's
          copy, the page at the same path in the version's current base:
          a merge that rebases the version rewrites it ({!Serialise}). *)
  root_flags : Flags.t;  (** Access flags of the root page itself. *)
}

type t = private {
  header : header;
  refs : ref_entry array;
  data : bytes;
  mutable enc : Afs_util.Image.t option;
      (** Memoized wire image ("encode-once"): filled lazily by {!encode},
          seeded by {!decode ~memo:true} with the decoded image itself,
          reset to [None] by every functional update. A cache, never part
          of the page's value — compare pages with {!equal}, which
          ignores it. *)
}

val max_block_number : int
(** 2^28 - 2; the all-ones 28-bit pattern encodes "nil". *)

val empty : t
(** A non-version page with no refs and no data. *)

val make_version_page :
  file_cap:Afs_util.Capability.t ->
  version_cap:Afs_util.Capability.t ->
  base_ref:int option ->
  parent_ref:int option ->
  refs:ref_entry array ->
  data:bytes ->
  t

val is_version_page : t -> bool
val nrefs : t -> int
val dsize : t -> int

val equal : t -> t -> bool
(** Structural equality of header, reference table and data; the image
    memo is ignored (it is a cache, not part of the value). *)

val get_ref : t -> int -> (ref_entry, string) result

(** {2 Functional updates} *)

val with_data : t -> bytes -> t
val with_header : t -> header -> t

val with_contents : t -> refs:ref_entry array -> data:bytes -> t
(** Replace both the reference table and the data (the merge pass uses
    this to build combined pages). *)

val with_ref : t -> int -> ref_entry -> (t, string) result
(** Replace the entry at an existing index. *)

val insert_ref : t -> int -> ref_entry -> (t, string) result
(** Insert at index [0..nrefs]; later entries shift right. *)

val remove_ref : t -> int -> (t, string) result

val cleared_refs : ref_entry array -> ref_entry array
(** A fresh table of the same entries with every flag reset to
    {!Flags.clear}; an entry already clear is shared, not rebuilt. *)

val copied_from : t -> int -> t
(** [copied_from page block] is [page], read from [block], as first copied
    into a new version: flags {!cleared_refs} and base reference [block]. *)

val set_ref : t -> int -> ref_entry -> unit
(** Replaces an entry in place, dropping the memo: only for a page its dirty
    cache entry owns ({!Pagestore.set_ref}). Raises [Invalid_argument] out of range. *)

(** {2 Wire format}

    A page's image is its encoded head (header fields and reference
    table) followed by its data. Stores keep an image as an
    {!Afs_util.Image}, whole as written; the first {!decode} splits it
    where the head ends, copying the data out once, and every later
    decode of that image shares the data. *)

val encoded_size : t -> int
(** Exact length of {!encode}'s output, computed arithmetically — no
    serialisation, no allocation. *)

val encode : t -> bytes
(** The page's wire image, serialised at most once per page lifetime and
    memoized. The returned bytes are shared with the memo (and with every
    other caller): treat them as immutable. A page decoded from a split
    image answers that image's head and data joined, a copy but no
    serialisation. *)

val fresh_encodes : unit -> int
(** Fresh serialisations performed since program start (memo hits do not
    count). Monotone; tests and benches difference it around a region to
    assert the encode-once discipline. *)

val memoized_image : t -> Afs_util.Image.t option
(** The memoized wire image, if this page has been serialised (or was
    decoded with [~memo:true]). Never serialises. Shared with the memo:
    treat as immutable. Cache revalidation compares it against a freshly
    read store image (often the memo itself) to skip re-decoding. *)

val decode : ?memo:bool -> Afs_util.Image.t -> (t, string) result
(** The page the image holds, whose [data] is the image's data: a whole
    image is split first ({!Afs_util.Image.split}), copying the data out
    once, and a split one is shared uncopied. Rejects, with an [Error]
    that reads ["page decode: ..."], bad magic, format version or kind,
    illegal flag nibbles, truncation, trailing bytes, a split image whose
    head does not end with the reference table, and reference counts or
    data lengths the image cannot hold — the whole image is checked
    before anything is allocated or split. With [memo] (default off), the
    input image seeds the decoded page's encode memo: sound only for
    images produced by {!encode} (the decoder also accepts padded
    varints, which would break byte-identity) whose bytes nobody will
    change — true of every image read back from this system's stores,
    under {!Store}'s ownership rule. *)

(** {2 Reading an image in place}

    What the garbage collector needs from a stored page — its commit
    reference and its children's block numbers — read straight from the
    image's header and reference table. Both run the very check {!decode}
    runs, so they accept exactly the images it accepts, but build no page,
    never split the image and never copy the data area. *)

val image_commit_ref : Afs_util.Image.t -> (int option, string) result

val iter_image_refs : Afs_util.Image.t -> (int -> unit) -> (unit, string) result
(** Calls the function on each reference's block number, in table order,
    once the whole image has been checked: a rejected image yields no
    calls. *)
