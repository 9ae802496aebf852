type kind =
  | Corrupt_model_bit
  | Flip_sat_answer
  | Drop_core_clause
  | Crash_mid_solve
  | Kill_mid_solve
  | Torn_checkpoint
  | Kill_after_result

let names =
  [
    (Corrupt_model_bit, "corrupt_model_bit");
    (Flip_sat_answer, "flip_sat_answer");
    (Drop_core_clause, "drop_core_clause");
    (Crash_mid_solve, "crash_mid_solve");
    (Kill_mid_solve, "kill_mid_solve");
    (Torn_checkpoint, "torn_checkpoint");
    (Kill_after_result, "kill_after_result");
  ]

let to_string k = List.assoc k names
let of_string s = List.find_map (fun (k, n) -> if n = s then Some k else None) names
let registry : (kind, unit) Hashtbl.t = Hashtbl.create 4
let arm k = Hashtbl.replace registry k ()
let disarm k = Hashtbl.remove registry k
let disarm_all () = Hashtbl.reset registry
let armed k = Hashtbl.mem registry k

let consume k =
  let a = armed k in
  if a then disarm k;
  a
