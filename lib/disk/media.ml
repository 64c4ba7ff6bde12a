type kind = Electronic | Magnetic | Optical

type t = {
  kind : kind;
  seek_ms : float;
  transfer_ms_per_kb : float;
  write_once : bool;
}

let electronic = { kind = Electronic; seek_ms = 0.02; transfer_ms_per_kb = 0.001; write_once = false }
let magnetic = { kind = Magnetic; seek_ms = 28.0; transfer_ms_per_kb = 0.8; write_once = false }
let optical = { kind = Optical; seek_ms = 150.0; transfer_ms_per_kb = 2.0; write_once = true }

let read_cost t ~bytes = t.seek_ms +. (t.transfer_ms_per_kb *. (float_of_int bytes /. 1024.0))

(* Optical writes verify after writing, roughly doubling transfer time. *)
let write_cost t ~bytes =
  let base = t.seek_ms +. (t.transfer_ms_per_kb *. (float_of_int bytes /. 1024.0)) in
  if t.write_once then base *. 2.0 else base

let kind_name = function
  | Electronic -> "electronic"
  | Magnetic -> "magnetic"
  | Optical -> "optical"

