(* Append-only fsync'd journal: see journal.mli for the format. *)

module P = Protocol
module Frame = Msu_frame.Frame

type record =
  | Admitted of {
      id : int;
      wcnf : P.wire_wcnf;
      options : P.options;
      submitted : float;
    }
  | Completed of { id : int }

type t = { fd : Unix.file_descr; mutable dead : bool }

(* A record is its job id and, for an admission, the job. *)
let codec =
  Frame.map
    (function
      | Admitted { id; wcnf; options; submitted } -> (id, Some (wcnf, (options, submitted)))
      | Completed { id } -> (id, None))
    (function
      | id, Some (wcnf, (options, submitted)) -> Admitted { id; wcnf; options; submitted }
      | id, None -> Completed { id })
    Frame.(pair nat (option (pair P.wcnf_codec (pair P.options_codec float))))

let frame r = Frame.encode Frame.Record codec r

let append t r =
  if not t.dead then
    try
      Frame.write t.fd (frame r);
      Unix.fsync t.fd
    with Unix.Unix_error _ -> t.dead <- true

let close t =
  t.dead <- true;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd
let replay path = Frame.read_file Frame.Record codec path

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
  Frame.write_file path (List.map frame keep);
  { fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644; dead = false }
