module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath

type t = {
  record : Capability.t;
  seq : int;
  old_root : bytes;
  writes : (Pagepath.t * bytes) list;
}

let prefix = "afs-txn!"

(* {2 Decimal fields, parsed in place}

   Both decoders read their input where it lies: no per-field
   substring, no [int_of_string]. *)

exception Bad

(* Parse the decimal run at [!pos] — a leading '-' only where [signed],
   then at least one digit, no overflow — leaving [!pos] on the first
   byte after it. Digits accumulate below zero, so [min_int] parses. *)
let parse_dec ?(signed = false) data pos =
  let n = Bytes.length data in
  let neg = signed && !pos < n && Char.equal (Bytes.get data !pos) '-' in
  if neg then incr pos;
  let start = !pos in
  let rec go v =
    if !pos < n && Bytes.get data !pos >= '0' && Bytes.get data !pos <= '9' then begin
      let d = Char.code (Bytes.get data !pos) - 48 in
      if v < (min_int + d) / 10 then raise Bad;
      incr pos;
      go ((v * 10) - d)
    end
    else v
  in
  let v = go 0 in
  if !pos = start || ((not neg) && v = min_int) then raise Bad;
  if neg then v else -v

(* Consume the byte [c] at [!pos]. *)
let expect data pos c =
  if !pos < Bytes.length data && Char.equal (Bytes.get data !pos) c then incr pos
  else raise Bad

let has_prefix data p =
  let plen = String.length p in
  Bytes.length data >= plen
  &&
  let rec same i = i = plen || (Char.equal (Bytes.get data i) p.[i] && same (i + 1)) in
  same 0

(* {2 Markers}

   Follows Forward's printable codec idiom, but the payloads (old root
   data, staged writes) are arbitrary bytes, so every byte field is
   length-prefixed instead of delimiter-split. Layout after the prefix:

     port:obj:rights:check:seq:|old|:old<nwrites>:{path:|w|:w}*

   where |x| is a decimal byte count followed by ':' and exactly that
   many raw bytes, and a path is Pagepath's dotted rendering ("/" for
   the root, "/2.0.5" below it). *)

let encode m =
  let r = m.record in
  let buf = Buffer.create (96 + Bytes.length m.old_root) in
  let field n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ':'
  in
  let blob data =
    field (Bytes.length data);
    Buffer.add_bytes buf data
  in
  Buffer.add_string buf prefix;
  field (Capability.port_to_int r.Capability.port);
  field r.Capability.obj;
  field (Capability.rights_to_int r.Capability.rights);
  field r.Capability.check;
  field m.seq;
  blob m.old_root;
  field (List.length m.writes);
  List.iter
    (fun (path, data) ->
      Buffer.add_string buf (Pagepath.to_string path);
      Buffer.add_char buf ':';
      blob data)
    m.writes;
  Buffer.to_bytes buf

let decode data =
  let n = Bytes.length data in
  if n <= String.length prefix || not (has_prefix data prefix) then None
  else
    let pos = ref (String.length prefix) in
    let field ?signed () =
      let v = parse_dec ?signed data pos in
      expect data pos ':';
      v
    in
    let taken k =
      if k > n - !pos then raise Bad
      else begin
        let b = Bytes.sub data !pos k in
        pos := !pos + k;
        b
      end
    in
    (* Inverse of [put_path]: '/', then either ':' at once (the root) or
       indices separated by '.' up to the ':'. *)
    let path () =
      expect data pos '/';
      let rec indices acc =
        let acc = parse_dec data pos :: acc in
        if !pos < n && Char.equal (Bytes.get data !pos) '.' then begin
          incr pos;
          indices acc
        end
        else begin
          expect data pos ':';
          Pagepath.of_list (List.rev acc)
        end
      in
      if !pos < n && Char.equal (Bytes.get data !pos) ':' then begin
        incr pos;
        Pagepath.root
      end
      else indices []
    in
    try
      let port = field () in
      let obj = field () in
      let rights = field () in
      let check = field ~signed:true () in
      let seq = field () in
      let old_root = taken (field ()) in
      let nwrites = field () in
      let rec read_writes i acc =
        if i = nwrites then List.rev acc
        else
          let path = path () in
          let data = taken (field ()) in
          read_writes (i + 1) ((path, data) :: acc)
      in
      let writes = read_writes 0 [] in
      if !pos <> n then None
      else
        Some
          {
            record =
              {
                Capability.port = Capability.port_of_int port;
                obj;
                rights = Capability.rights_of_int rights;
                check;
              };
            seq;
            old_root;
            writes;
          }
    with Bad -> None

let is_marker data = Option.is_some (decode data)
let record_of data = Option.map (fun m -> m.record) (decode data)

(* {2 Coordinator record outcomes}

   A record's whole root data is the outcome of the newest transaction
   decided on it — [txn:<seq>:c] or [txn:<seq>:a] — so a decision is an
   ordinary optimistic commit replacing one outcome with a later one.
   Seqs only grow on a record, so no value ever recurs. *)

let outcome_prefix = "txn:"

let encode_outcome ~seq ~committed =
  Bytes.of_string (outcome_prefix ^ string_of_int seq ^ if committed then ":c" else ":a")

let decode_outcome data =
  let n = Bytes.length data in
  if not (has_prefix data outcome_prefix) then None
  else
    let pos = ref (String.length outcome_prefix) in
    match
      let seq = parse_dec data pos in
      expect data pos ':';
      if !pos + 1 <> n then raise Bad;
      match Bytes.get data !pos with
      | 'c' -> (seq, true)
      | 'a' -> (seq, false)
      | _ -> raise Bad
    with
    | outcome -> Some outcome
    | exception Bad -> None
