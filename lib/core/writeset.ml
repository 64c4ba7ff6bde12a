module Pagepath = Afs_util.Pagepath

(* The concurrency-control administration of one version, read from its
   page tree: every copied path mapped to the C/R/W/S/M flags its parent
   reference holds. Canonical representation: Pagepath.Map, whose
   lexicographic order places a page immediately before its descendants,
   so subtree queries are range scans and derived lists come out sorted
   root-first. *)

type t = Flags.t Pagepath.Map.t

let empty = Pagepath.Map.empty
let add t p f = Pagepath.Map.add p f t

let flags_at t path =
  match Pagepath.Map.find_opt path t with Some f -> f | None -> Flags.clear

let paths t = List.map fst (Pagepath.Map.bindings t)

let written_paths t =
  Pagepath.Map.fold
    (fun p (f : Flags.t) acc -> if f.Flags.w || f.Flags.m then p :: acc else acc)
    t []
  |> List.rev

(* True when [p] lies at or below one of [roots]. *)
let rec under roots p =
  match roots with [] -> false | r :: rest -> Pagepath.is_prefix r p || under rest p

(* The read shadows: every topmost copied path (the root aside) with no W
   or M at or below it. Descendants sort immediately after their
   ancestor, so one ascending pass finds them, skipping the inside of the
   last one found; the written paths are few. *)
let read_only t =
  let written_or_root p (f : Flags.t) =
    f.Flags.w || f.Flags.m || Pagepath.equal p Pagepath.root
  in
  (* The common case, e.g. a file's first pages: everything below the
     root was written, so there is nothing to look for. *)
  if Pagepath.Map.for_all written_or_root t then []
  else begin
    let written = written_paths t in
    let rec has_written_below p = function
      | [] -> false
      | w :: rest -> Pagepath.is_prefix p w || has_written_below p rest
    in
    let shadows =
      Pagepath.Map.fold
        (fun p _ acc ->
          match acc with
          | r :: _ when Pagepath.is_prefix r p -> acc
          | _ ->
              if Pagepath.equal p Pagepath.root || has_written_below p written then acc
              else p :: acc)
        t []
    in
    List.rev shadows
  end

let without t roots = Pagepath.Map.filter (fun p _ -> not (under roots p)) t

(* {2 The serialisability pre-test}

   Exactly the conflict conditions of the Serialise tree walk, evaluated
   over the two flag maps with no page reads. A path can conflict only
   where both versions copied it (clear flags conflict with nothing), so
   iterating the candidate's map and probing the committed one covers
   every case; for the candidate's M pages the walk rejects any page the
   committed update copied below, which here is a single ordered-map
   neighbour probe (descendants sort immediately after their ancestor). *)

let conflict ~candidate ~committed =
  let exception Found of Pagepath.t * string in
  let check p (fb : Flags.t) =
    let fc = flags_at committed p in
    if fc.Flags.w && fb.Flags.r then
      raise (Found (p, "data written by committed, read by candidate"));
    if fc.Flags.m && fb.Flags.s then
      raise (Found (p, "references modified by committed, searched by candidate"));
    if fb.Flags.m then
      match
        Pagepath.Map.find_first_opt (fun q -> Pagepath.compare q p > 0) committed
      with
      | Some (q, _) when Pagepath.is_prefix p q ->
          raise
            (Found (q, "candidate restructured references over pages the committed update accessed"))
      | _ -> ()
  in
  match Pagepath.Map.iter check candidate with
  | () -> None
  | exception Found (p, reason) -> Some (p, reason)

(* Per-path least upper bound. Every conflict condition above is monotone
   in the committed flags, so [conflict ~candidate ~committed:(union a b)]
   answers [Some] exactly when it would against [a] or against [b] — which
   lets a group-commit batch pre-test a member against all already-admitted
   write sets in one pass instead of one per winner. *)
let union = Pagepath.Map.union (fun _ a b -> Some (Flags.union a b))
