type t = { c : bool; r : bool; w : bool; s : bool; m : bool }

let legal ~c ~r ~w ~s ~m =
  let implies a b = (not a) || b in
  implies r c && implies w c && implies s c && implies m c && implies m s

let is_legal t = legal ~c:t.c ~r:t.r ~w:t.w ~s:t.s ~m:t.m

(* Encoding: 0 is the all-clear state; otherwise C is set and we number the
   remaining (R, W, (S,M)) choices with (S,M) in {00, 10, 11}. *)

let sm_of ~s ~m = if m then 2 else if s then 1 else 0
let sm_code t = sm_of ~s:t.s ~m:t.m
let copied_code ~r ~w ~sm = 1 + ((((if r then 2 else 0) + if w then 1 else 0) * 3) + sm)

let to_nibble t = if not t.c then 0 else copied_code ~r:t.r ~w:t.w ~sm:(sm_code t)

(* The 13 legal states, allocated once and indexed by nibble: every
   constructor below answers one of them, so none allocates and equal
   flags are the same value. *)
let states =
  Array.init 13 (fun n ->
      if n = 0 then { c = false; r = false; w = false; s = false; m = false }
      else
        let code = n - 1 in
        let sm = code mod 3 and rw = code / 3 in
        { c = true; r = rw land 2 = 2; w = rw land 1 = 1; s = sm >= 1; m = sm = 2 })

(* [of_nibble]'s answers, so that it allocates no option either. *)
let some_states = Array.map Option.some states

let clear = states.(0)
let copied ~r ~w ~sm = states.(copied_code ~r ~w ~sm)

let make ?(r = false) ?(w = false) ?(s = false) ?(m = false) ~copied:c () =
  if not (legal ~c ~r ~w ~s ~m) then invalid_arg "Flags.make: illegal combination";
  if c then copied ~r ~w ~sm:(sm_of ~s ~m) else clear

type access = Read | Write | Search | Modify

let record t = function
  | Read -> copied ~r:true ~w:t.w ~sm:(sm_code t)
  | Write -> copied ~r:t.r ~w:true ~sm:(sm_code t)
  | Search -> copied ~r:t.r ~w:t.w ~sm:(Int.max 1 (sm_code t))
  | Modify -> copied ~r:t.r ~w:t.w ~sm:2

let legal_nibble n = n >= 0 && n <= 12
let of_nibble n = if legal_nibble n then some_states.(n) else None
let all = Array.to_list states

(* The union of two legal states is legal: each implication holds in
   whichever argument set the implying flag. *)
let union a b =
  if not (a.c || b.c) then clear
  else copied ~r:(a.r || b.r) ~w:(a.w || b.w) ~sm:(Int.max (sm_code a) (sm_code b))

let equal = ( == )

let pp ppf t =
  let bit flag ch = if flag then ch else '-' in
  Fmt.pf ppf "%c%c%c%c%c" (bit t.c 'C') (bit t.r 'R') (bit t.w 'W') (bit t.s 'S')
    (bit t.m 'M')
