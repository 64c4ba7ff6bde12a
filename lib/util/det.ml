let sorted_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

(* Block numbers come from allocation frontiers, so a key set is usually
   dense: one byte per possible key, then a descending scan, costs a
   fraction of a comparison sort and allocates only the result. The
   traversals only find the maximum and fill the map, so their order
   cannot show. *)
let sorted_int_keys t =
  let hi = ref (-1) and negative = ref false in
  Hashtbl.iter (fun k _ -> if k < 0 then negative := true else if k > !hi then hi := k) t;
  if (not !negative) && !hi < (32 * Hashtbl.length t) + 64 then begin
    let seen = Bytes.make (!hi + 1) '\000' in
    Hashtbl.iter (fun k _ -> Bytes.set seen k '\001') t;
    let rec collect k acc =
      if k < 0 then acc else collect (k - 1) (if Bytes.get seen k <> '\000' then k :: acc else acc)
    in
    collect !hi []
  end
  else List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let iter_sorted f t =
  List.iter
    (fun k -> match Hashtbl.find_opt t k with Some v -> f k v | None -> ())
    (sorted_keys t)

let fold_sorted f t init =
  List.fold_left
    (fun acc k -> match Hashtbl.find_opt t k with Some v -> f k v acc | None -> acc)
    init (sorted_keys t)
