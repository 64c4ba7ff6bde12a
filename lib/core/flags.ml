type t = { c : bool; r : bool; w : bool; s : bool; m : bool }

let clear = { c = false; r = false; w = false; s = false; m = false }

let is_legal t =
  let implies a b = (not a) || b in
  implies t.r t.c && implies t.w t.c && implies t.s t.c && implies t.m t.c
  && implies t.m t.s

let make ?(r = false) ?(w = false) ?(s = false) ?(m = false) ~copied () =
  let t = { c = copied; r; w; s; m } in
  if not (is_legal t) then invalid_arg "Flags.make: illegal combination";
  t

type access = Read | Write | Search | Modify

let record t = function
  | Read -> { t with c = true; r = true }
  | Write -> { t with c = true; w = true }
  | Search -> { t with c = true; s = true }
  | Modify -> { t with c = true; s = true; m = true }

(* Encoding: 0 is the all-clear state; otherwise C is set and we number the
   remaining (R, W, (S,M)) choices with (S,M) in {00, 10, 11}. *)

let sm_code t = if t.m then 2 else if t.s then 1 else 0

let to_nibble t =
  if not t.c then 0
  else
    let r = if t.r then 1 else 0 in
    let w = if t.w then 1 else 0 in
    1 + (((r * 2) + w) * 3) + sm_code t

let of_nibble = function
  | 0 -> Some clear
  | n when n >= 1 && n <= 12 ->
      let code = n - 1 in
      let sm = code mod 3 in
      let rw = code / 3 in
      let w = rw land 1 = 1 in
      let r = rw land 2 = 2 in
      Some { c = true; r; w; s = sm >= 1; m = sm = 2 }
  | _ -> None

let legal_nibble n = n >= 0 && n <= 12

let all = List.filter_map of_nibble (List.init 13 Fun.id)

let union a b =
  let t =
    {
      c = a.c || b.c;
      r = a.r || b.r;
      w = a.w || b.w;
      s = a.s || b.s;
      m = a.m || b.m;
    }
  in
  assert (is_legal t);
  t

let equal = ( = )

let pp ppf t =
  let bit flag ch = if flag then ch else '-' in
  Fmt.pf ppf "%c%c%c%c%c" (bit t.c 'C') (bit t.r 'R') (bit t.w 'W') (bit t.s 'S')
    (bit t.m 'M')
