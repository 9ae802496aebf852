(* Length-prefixed, checksummed, versioned, tagged frames and the typed
   payload codecs they carry: see frame.mli for the layout and the
   rules. *)

type tag = Request | Reply | Record | Entry | Bracket | Clause | Event | Result

let magic = 0x4D535355 (* "MSSU" *)
let version = 2
let header_bytes = 29
let max_payload = 1 lsl 28

(* Header offsets; the digest covers everything from [tag_at] on. *)
let digest_at = 8
let tag_at = 24
let length_at = 25

exception Malformed of string
exception Version_mismatch of int

let malformed msg = raise (Malformed msg)

(* Explicit numbers: reordering the constructors changes nothing on
   the wire. *)
let tags = [ (Request, 1); (Reply, 2); (Record, 3); (Entry, 4); (Bracket, 5); (Clause, 6); (Event, 7); (Result, 8) ]

let tag_of_byte n =
  match List.find_opt (fun (_, b) -> b = n) tags with Some (t, _) -> t | None -> malformed "unknown frame tag"

(* ---------------- payloads ---------------- *)

type src = { b : Bytes.t; mutable pos : int; lim : int }
type 'a codec = { write : Buffer.t -> 'a -> unit; read : src -> 'a }

let left s = s.lim - s.pos

(* The offset of the next [n] bytes, which the cursor moves past. *)
let take s n =
  if n > left s then malformed "payload too short";
  s.pos <- s.pos + n;
  s.pos - n

let byte s = Bytes.get_uint8 s.b (take s 1)

(* LEB128 over the 63 bits of an OCaml int: nine bytes at most. *)
let rec put_varint b n =
  if n land lnot 0x7f = 0 then Buffer.add_uint8 b n
  else begin
    Buffer.add_uint8 b (n land 0x7f lor 0x80);
    put_varint b (n lsr 7)
  end

let rec get_varint s acc shift =
  let c = byte s in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc
  else if shift >= 56 then malformed "varint too long"
  else get_varint s acc (shift + 7)

let nat =
  {
    write = (fun b n -> if n < 0 then invalid_arg "Frame.nat" else put_varint b n);
    read = (fun s -> match get_varint s 0 0 with n when n < 0 -> malformed "negative" | n -> n);
  }

let int =
  {
    write = (fun b n -> put_varint b ((n lsl 1) lxor (n asr 62)));
    read = (fun s -> let z = get_varint s 0 0 in (z lsr 1) lxor -(z land 1));
  }

let bool =
  {
    write = (fun b v -> Buffer.add_uint8 b (Bool.to_int v));
    read = (fun s -> match byte s with 0 -> false | 1 -> true | _ -> malformed "bad boolean");
  }

let float =
  {
    write = (fun b x -> Buffer.add_int64_le b (Int64.bits_of_float x));
    read = (fun s -> Int64.float_of_bits (Bytes.get_int64_le s.b (take s 8)));
  }

let string =
  {
    write = (fun b v -> nat.write b (String.length v); Buffer.add_string b v);
    read = (fun s -> let n = nat.read s in Bytes.sub_string s.b (take s n) n);
  }

(* Packed eight to a byte. *)
let bits =
  {
    write =
      (fun b m ->
        let n = Array.length m in
        nat.write b n;
        for byte = 0 to ((n + 7) lsr 3) - 1 do
          let acc = ref 0 in
          for i = 8 * byte to min (n - 1) ((8 * byte) + 7) do
            if m.(i) then acc := !acc lor (1 lsl (i land 7))
          done;
          Buffer.add_uint8 b !acc
        done);
    read =
      (fun s ->
        let n = nat.read s in
        let base = take s ((n + 7) lsr 3) in
        Array.init n (fun i -> Bytes.get_uint8 s.b (base + (i lsr 3)) land (1 lsl (i land 7)) <> 0));
  }

let map into out c = { write = (fun b v -> c.write b (into v)); read = (fun s -> out (c.read s)) }

let option c =
  {
    write = (fun b -> function None -> bool.write b false | Some v -> bool.write b true; c.write b v);
    read = (fun s -> if bool.read s then Some (c.read s) else None);
  }

(* Items take a byte at least, so a count past the bytes left is refused
   before anything is allocated for it. *)
let array c =
  {
    write = (fun b a -> nat.write b (Array.length a); Array.iter (c.write b) a);
    read =
      (fun s ->
        let n = nat.read s in
        if n > left s then malformed "count past the end of the payload";
        Array.init n (fun _ -> c.read s));
  }

let list c = map Array.of_list Array.to_list (array c)

let pair ca cb =
  {
    write = (fun b (x, y) -> ca.write b x; cb.write b y);
    read = (fun s -> let x = ca.read s in (x, cb.read s));
  }

let result ca cb =
  {
    write = (fun b -> function Ok v -> bool.write b true; ca.write b v | Error e -> bool.write b false; cb.write b e);
    read = (fun s -> if bool.read s then Ok (ca.read s) else Error (cb.read s));
  }

let named to_string of_string =
  map to_string
    (fun name -> match of_string name with Some v -> v | None -> malformed ("unknown name " ^ String.escaped name))
    string

(* ---------------- frames ---------------- *)

type t = { tag : tag; payload : src }

let encode tag c v =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.make header_bytes '\000');
  c.write buf v;
  let f = Buffer.to_bytes buf in
  let n = Bytes.length f - header_bytes in
  if n > max_payload then invalid_arg "Frame.encode: payload too large";
  Bytes.set_int32_be f 0 (Int32.of_int magic);
  Bytes.set_int32_be f 4 (Int32.of_int version);
  Bytes.set_uint8 f tag_at (List.assoc tag tags);
  Bytes.set_int32_be f length_at (Int32.of_int n);
  Bytes.blit_string (Digest.subbytes f tag_at (n + 5)) 0 f digest_at 16;
  f

let decode tag c f =
  if f.tag <> tag then malformed "unexpected frame tag";
  let v = c.read f.payload in
  if left f.payload <> 0 then malformed "bytes left after the payload";
  v

let word b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF

(* The frame at [pos] among the [len] bytes of [b], checked as far as
   the bytes go: magic and version as soon as they are in, the rest
   once the header is, the digest once the payload is. *)
let parse_bytes b pos len =
  if len >= 4 && word b pos <> magic then malformed "bad magic";
  if len >= 8 && word b (pos + 4) <> version then raise (Version_mismatch (word b (pos + 4)));
  if len < header_bytes then None
  else begin
    let tag = tag_of_byte (Bytes.get_uint8 b (pos + tag_at)) and n = word b (pos + length_at) in
    if n > max_payload then malformed "frame too long";
    if len < header_bytes + n then None
    else if Digest.subbytes b (pos + tag_at) (n + 5) <> Bytes.sub_string b (pos + digest_at) 16 then
      malformed "bad digest"
    else
      let start = pos + header_bytes in
      Some ({ tag; payload = { b; pos = start; lim = start + n } }, header_bytes + n)
  end

let parse s pos =
  Option.map (fun (f, size) -> (f, pos + size))
    (parse_bytes (Bytes.unsafe_of_string s) pos (String.length s - pos))

let write fd b =
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let input fd =
  (* [false] on EOF before the frame's first byte. *)
  let rec fill b off n =
    n = 0
    ||
    match Unix.read fd b off n with
    | 0 -> if off = 0 then false else malformed "truncated frame"
    | k -> fill b (off + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill b off n
  in
  let head = Bytes.create header_bytes in
  if not (fill head 0 header_bytes) then None
  else begin
    ignore (parse_bytes head 0 header_bytes : _ option);
    let b = Bytes.extend head 0 (word head length_at) in
    ignore (fill b header_bytes (Bytes.length b - header_bytes) : bool);
    Option.map fst (parse_bytes b 0 (Bytes.length b))
  end

type reader = { mutable buf : Bytes.t; mutable start : int; mutable stop : int; mutable bad : bool }

let reader () = { buf = Bytes.create 4096; start = 0; stop = 0; bad = false }
let pending r = r.stop - r.start

(* Room for 4096 more bytes: the live bytes move to the front of the
   buffer, or of one twice the size they need. *)
let reserve r =
  if Bytes.length r.buf - r.stop < 4096 then begin
    let live = pending r in
    let b = if live + 4096 <= Bytes.length r.buf then r.buf else Bytes.create (2 * (live + 4096)) in
    Bytes.blit r.buf r.start b 0 live;
    r.buf <- b;
    r.start <- 0;
    r.stop <- live
  end

let rec drain r fd f =
  reserve r;
  match Unix.read fd r.buf r.stop (Bytes.length r.buf - r.stop) with
  | 0 -> false
  | n ->
      r.stop <- (if r.bad then r.start else r.stop + n);
      let rec frames () =
        match parse_bytes r.buf r.start (pending r) with
        | Some (frame, size) ->
            r.start <- r.start + size;
            f frame;
            frames ()
        | None -> ()
        | exception e ->
            r.bad <- true;
            r.stop <- r.start;
            raise e
      in
      frames ();
      drain r fd f
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain r fd f

let read_file tag c path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | s ->
      let rec go pos =
        match parse s pos with
        | Some (f, next) -> ( match decode tag c f with v -> v :: go next | exception Malformed _ -> [])
        | None | (exception (Malformed _ | Version_mismatch _)) -> []
      in
      go 0

let write_file path frames =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* fsync before rename: a crash between the two exposes the old file
     or the whole new one, never a renamed truncation. *)
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () ->
      List.iter (write fd) frames;
      Unix.fsync fd);
  Sys.rename tmp path
