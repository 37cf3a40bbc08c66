module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let byte t b = Buffer.add_char t (Char.chr (b land 0xff))

  (* Writes the int's bit pattern as an unsigned base-128 quantity;
     works for any int including those whose top bit is set (the
     zig-zag image of min_int). *)
  let raw_base128 t v =
    let rec go v =
      if v >= 0 && v < 0x80 then byte t v
      else begin
        byte t (0x80 lor (v land 0x7f));
        go (v lsr 7)
      end
    in
    go v

  let uvarint t v =
    assert (v >= 0);
    raw_base128 t v

  let varint t v =
    (* zig-zag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
    let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    raw_base128 t z

  let int64 t v =
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

  let string t s =
    uvarint t (String.length s);
    Buffer.add_string t s

  let bool t b = byte t (if b then 1 else 0)

  let float t f = int64 t (Int64.bits_of_float f)

  let list t write_elem items =
    uvarint t (List.length items);
    List.iter write_elem items

  let array t write_elem items =
    uvarint t (Array.length items);
    Array.iter write_elem items

  let length t = Buffer.length t

  let contents t = Buffer.contents t
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Corrupt of string

  let corrupt msg = raise (Corrupt msg)

  let of_string data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then corrupt "unexpected end of input";
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  let uvarint t =
    let rec go shift acc =
      if shift > Sys.int_size then corrupt "varint too long";
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let varint t =
    let z = uvarint t in
    (z lsr 1) lxor (- (z land 1))

  let int64 t =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    !v

  let string t =
    let len = uvarint t in
    (* A garbage varint can overflow into a negative length. *)
    if len < 0 || len > String.length t.data - t.pos then
      corrupt "string overruns input";
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | _ -> corrupt "invalid bool"

  let float t = Int64.float_of_bits (int64 t)

  (* Every element consumes at least one byte, so a length prefix
     larger than the remaining input is corruption — check before
     allocating, lest a garbage prefix demand a huge array. *)
  let seq_length t =
    let len = uvarint t in
    if len < 0 || len > String.length t.data - t.pos then
      corrupt "sequence length overruns input";
    len

  let list t read_elem =
    let len = seq_length t in
    List.init len (fun _ -> read_elem t)

  let array t read_elem =
    let len = seq_length t in
    Array.init len (fun _ -> read_elem t)

  let at_end t = t.pos = String.length t.data
end
