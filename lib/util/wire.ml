exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

module Writer = struct
  type t = { buf : Buffer.t }

  let create ?(capacity = 256) () = { buf = Buffer.create capacity }

  let u8 t v = Buffer.add_char t.buf (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    for shift = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
    done

  let rec varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative"
    else if v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7F));
      varint t (v lsr 7)
    end

  let bytes t b = Buffer.add_bytes t.buf b

  let sized_bytes t b =
    varint t (Bytes.length b);
    bytes t b

  let string t s =
    varint t (String.length s);
    Buffer.add_string t.buf s

  let contents t = Buffer.to_bytes t.buf
end

let varint_size v =
  if v < 0 then invalid_arg "Wire.varint_size: negative";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let rec set_varint b pos v =
  if v < 0 then invalid_arg "Wire.set_varint: negative"
  else if v < 0x80 then begin
    Bytes.set_uint8 b pos v;
    pos + 1
  end
  else begin
    Bytes.set_uint8 b pos (0x80 lor (v land 0x7F));
    set_varint b (pos + 1) (v lsr 7)
  end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }
  let remaining t = Bytes.length t.data - t.pos

  let u8 t =
    if remaining t < 1 then fail "u8: truncated at %d" t.pos;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  (* Word-width fields load in one unaligned access ([get_int32_le] is a
     compiler primitive); the page codec reads tens of these per page on
     the cache-miss path. *)
  let u32 t =
    if remaining t < 4 then fail "u32: truncated at %d" t.pos;
    let v = Int32.to_int (Bytes.get_int32_le t.data t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let u64 t =
    if remaining t < 8 then fail "u64: truncated at %d" t.pos;
    let v = Bytes.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let varint t =
    let rec go shift acc =
      if shift > 56 then fail "varint: too long at %d" t.pos;
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bytes t n =
    if n < 0 || remaining t < n then fail "bytes: truncated (%d wanted at %d)" n t.pos;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let sized_bytes t =
    let n = varint t in
    bytes t n

  let string t = Bytes.to_string (sized_bytes t)

  let expect_end t = if remaining t <> 0 then fail "trailing garbage: %d bytes" (remaining t)
end

(* Slicing-by-8 (Kounavis & Berry): table [k] (entries [256k .. 256k+255])
   advances the CRC of a byte by [k] further zero bytes, so one 8-byte
   word folds in with eight independent lookups instead of eight
   dependent byte steps. Table 0 is the classic byte-at-a-time table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let u32_le b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let crc32_continue crc b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Wire.crc32_continue";
  let t = crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let lo = u32_le b !i lxor !c and hi = u32_le b (!i + 4) in
    c :=
      t.(1792 + (lo land 0xFF))
      lxor t.(1536 + ((lo lsr 8) land 0xFF))
      lxor t.(1280 + ((lo lsr 16) land 0xFF))
      lxor t.(1024 + (lo lsr 24))
      lxor t.(768 + (hi land 0xFF))
      lxor t.(512 + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_sub b pos len = crc32_continue 0 b pos len
let crc32 b = crc32_continue 0 b 0 (Bytes.length b)
