(* Fixture: the collector's shape (listed in hashtbl_strict_units). Block
   servers reuse freed block numbers, so the order a sweep frees in
   decides future allocations: an unordered sweep over a mark table fires
   even though nothing here mentions Wire/Serialise/Engine, while a sweep
   over the sorted block listing stays silent. *)

let sweep_unordered marked free = Hashtbl.iter (fun b live -> if not live then free b) marked

let sweep_sorted allocated is_marked free =
  List.iter (fun b -> if not (is_marked b) then free b) (List.sort Int.compare allocated)
