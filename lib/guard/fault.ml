type kind =
  | Corrupt_model_bit
  | Flip_sat_answer
  | Drop_core_clause
  | Crash_mid_solve
  | Kill_mid_solve
  | Torn_checkpoint
  | Torn_publish
  | Kill_after_result

let registry : (kind, unit) Hashtbl.t = Hashtbl.create 4
let arm k = Hashtbl.replace registry k ()
let disarm k = Hashtbl.remove registry k
let disarm_all () = Hashtbl.reset registry
let armed k = Hashtbl.mem registry k

let consume k =
  let a = armed k in
  if a then disarm k;
  a
