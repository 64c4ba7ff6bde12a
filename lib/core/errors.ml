type t =
  | Conflict
  | Invalid_capability
  | No_such_file of int
  | No_such_version of int
  | Version_not_mutable
  | Bad_path of Afs_util.Pagepath.t
  | Bad_index of { path : Afs_util.Pagepath.t; index : int; nrefs : int }
  | Page_too_large of { bytes : int; limit : int }
  | Message_too_large of { bytes : int; limit : int }
  | Locked_out of { port : int }
  | Not_superfile
  | Moved of Afs_util.Capability.t
  | Txn_in_doubt of Afs_util.Capability.t
  | Store_failure of string

let pp ppf = function
  | Conflict -> Fmt.string ppf "serialisability conflict; redo the update"
  | Invalid_capability -> Fmt.string ppf "invalid capability"
  | No_such_file obj -> Fmt.pf ppf "no such file (object %d)" obj
  | No_such_version obj -> Fmt.pf ppf "no such version (object %d)" obj
  | Version_not_mutable -> Fmt.string ppf "version is committed or aborted"
  | Bad_path p -> Fmt.pf ppf "no page at path %a" Afs_util.Pagepath.pp p
  | Bad_index { path; index; nrefs } ->
      Fmt.pf ppf "index %d out of range (nrefs=%d) at %a" index nrefs Afs_util.Pagepath.pp
        path
  | Page_too_large { bytes; limit } -> Fmt.pf ppf "page of %d bytes exceeds %d" bytes limit
  | Message_too_large { bytes; limit } ->
      Fmt.pf ppf "message of %d bytes exceeds %d" bytes limit
  | Locked_out { port } -> Fmt.pf ppf "locked by update holding port %d" port
  | Not_superfile -> Fmt.string ppf "file is not a super-file"
  | Moved cap -> Fmt.pf ppf "file migrated to %a" Afs_util.Capability.pp cap
  | Txn_in_doubt record ->
      Fmt.pf ppf "in cross-shard transaction; record %a" Afs_util.Capability.pp record
  | Store_failure msg -> Fmt.pf ppf "store failure: %s" msg

let to_string = Fmt.str "%a" pp

type 'a r = ('a, t) result

let ( let* ) = Result.bind
