type t = { mutable head : bytes; mutable data : bytes }

let of_bytes b = { head = b; data = Bytes.empty }
let length t = Bytes.length t.head + Bytes.length t.data
let is_whole t = Bytes.length t.data = 0

let split t ~at =
  let n = Bytes.length t.head in
  if at < 0 || at > n then invalid_arg "Image.split: out of range";
  if is_whole t && at < n then begin
    let whole = t.head in
    t.data <- Bytes.sub whole at (n - at);
    t.head <- Bytes.sub whole 0 at
  end

let to_bytes t = if is_whole t then t.head else Bytes.cat t.head t.data

(* Byte [i] of head followed by data. *)
let get t i =
  let h = Bytes.length t.head in
  if i < h then Bytes.unsafe_get t.head i else Bytes.unsafe_get t.data (i - h)

let rec same_from a b i n = i >= n || (get a i = get b i && same_from a b (i + 1) n)

let equal a b =
  a == b
  || (a.head == b.head && a.data == b.data)
  || length a = length b
     &&
     if Bytes.length a.head = Bytes.length b.head then
       Bytes.equal a.head b.head && Bytes.equal a.data b.data
     else same_from a b 0 (length a)
