(* Append-only fsync'd journal: see journal.mli for the format. *)

module P = Protocol

type record =
  | Admitted of {
      id : int;
      wcnf : P.wire_wcnf;
      options : P.options;
      submitted : float;
    }
  | Completed of { id : int }

type t = { fd : Unix.file_descr; mutable dead : bool }

let magic = 0x4D53554A (* "MSUJ" *)
let version = 1
let header_len = 8
let frame_head = 4 + 16 (* length word + MD5 of the payload *)

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let header () =
  let b = Bytes.create header_len in
  Bytes.set_int32_be b 0 (Int32.of_int magic);
  Bytes.set_int32_be b 4 (Int32.of_int version);
  b

let frame (r : record) =
  let payload = Marshal.to_bytes r [] in
  let n = Bytes.length payload in
  let b = Bytes.create (frame_head + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string (Digest.bytes payload) 0 b 4 16;
  Bytes.blit payload 0 b frame_head n;
  b

let append t r =
  if not t.dead then
    try
      write_all t.fd (frame r);
      Unix.fsync t.fd
    with Unix.Unix_error _ -> t.dead <- true

let close t =
  t.dead <- true;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd

let replay path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> []
  | fd ->
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally @@ fun () ->
      let read_exactly n =
        let b = Bytes.create n in
        let rec go off =
          if off = n then Some b
          else
            match Unix.read fd b off (n - off) with
            | 0 -> None
            | k -> go (off + k)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        in
        go 0
      in
      match read_exactly header_len with
      | None -> []
      | Some hdr
        when Int32.to_int (Bytes.get_int32_be hdr 0) <> magic
             || Int32.to_int (Bytes.get_int32_be hdr 4) <> version ->
          []
      | Some _ ->
          (* Stop at the first frame that is short, over-long, or fails
             its digest: everything after a torn tail is untrusted. *)
          let acc = ref [] in
          let rec loop () =
            match read_exactly frame_head with
            | None -> ()
            | Some fh ->
                let n = Int32.to_int (Bytes.get_int32_be fh 0) in
                if n < 0 || n > P.max_frame then ()
                else (
                  match read_exactly n with
                  | None -> ()
                  | Some payload ->
                      if Bytes.sub_string fh 4 16 <> Digest.bytes payload then
                        ()
                      else (
                        (match (Marshal.from_bytes payload 0 : record) with
                        | r -> acc := r :: !acc
                        | exception _ -> ());
                        loop ()))
          in
          loop ();
          List.rev !acc

let pending records =
  let completed = Hashtbl.create 16 in
  List.iter
    (function
      | Completed { id } -> Hashtbl.replace completed id () | Admitted _ -> ())
    records;
  List.filter
    (function
      | Admitted { id; _ } -> not (Hashtbl.mem completed id)
      | Completed _ -> false)
    records

let restart path ~keep =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     write_all fd (header ());
     List.iter (fun r -> write_all fd (frame r)) keep;
     Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.close fd;
  Sys.rename tmp path;
  { fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644; dead = false }
