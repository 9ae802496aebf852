module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Sink = Msu_cnf.Sink
module Vec = Msu_cnf.Vec

type options = { exactly_one : Msu_cnf.Sink.t -> Msu_cnf.Lit.t array -> unit }

(* Fu & Malik rewrites a soft clause every time a core touches it (one
   more blocking variable).  With activation literals that rewrite is:
   retire the clause's current selector and re-add the extended clause
   under a fresh one.  The exactly-one constraints are permanent, so
   they go in as ordinary clauses.  The soft clauses load in one
   [Solver.add_softs] batch, each under its own retirable selector.
   Cores come from the failed assumptions (every soft clause's selector
   is always assumed). *)
let run_incremental opts (config : Types.config) w t0 =
  let tally = Common.tally config in
  let s = Solver.create ~track_proof:false () in
  Solver.on_event s (Common.event config);
  Common.attach_tracer config s;
  Common.attach_share config s;
  Common.setup_inprocess config s;
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause ~shareable:true s c) w;
  let n_soft = Wcnf.num_soft w in
  let base = Common.load_rewritable_softs s w in
  let sel = Array.init n_soft (fun i -> Lit.pos (base + i)) in
  let blocks = Array.make n_soft [] in
  (* The soft clause each live selector guards, indexed by variable. *)
  let soft_of_var = Vec.create ~dummy:(-1) in
  Array.iteri (fun i l -> Common.set_owner soft_of_var l i) sel;
  let sink =
    Sink.
      {
        fresh_var = Common.frozen_var s;
        emit =
          (fun c ->
            Common.Tally.encoded tally 1;
            Solver.add_clause s c);
      }
  in
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  let cost = ref 0 in
  let bounds () = finish (Types.Bounds { lb = !cost; ub = None }) None in
  let rec loop () =
    if Common.over_deadline config then bounds ()
    else begin
      Common.Tally.sat_call tally;
      let assumptions = Array.init n_soft (fun i -> Lit.neg sel.(i)) in
      match
        Common.sat_call_span config s (fun () ->
            Solver.solve ~assumptions ~deadline:config.deadline ?guard:config.guard s)
      with
      | Solver.Unknown -> bounds ()
      | Solver.Sat ->
          Common.trace config (fun () -> Printf.sprintf "SAT: optimum %d" !cost);
          finish (Types.Optimum !cost) (Some (Solver.model s))
      | Solver.Unsat -> (
          let core =
            Common.span config "core_extract" (fun () -> Solver.conflict_assumptions s)
          in
          let softs = List.filter_map (Common.owner soft_of_var) core in
          match softs with
          | [] -> finish Types.Hard_unsat None
          | _ ->
              Common.Tally.core ~size:(List.length softs)
                ~fresh_blocking:(List.length softs) tally;
              let new_bs =
                List.map
                  (fun i ->
                    let b = Lit.pos (Common.frozen_var s ()) in
                    blocks.(i) <- b :: blocks.(i);
                    Common.Tally.blocking_var tally;
                    (* Rewrite soft clause i: retire the old selector,
                       re-add with the extra blocking literal under a
                       fresh one. *)
                    Solver.retire_selector s sel.(i);
                    Common.set_owner soft_of_var sel.(i) (-1);
                    let l = Lit.pos (Solver.new_var s) in
                    sel.(i) <- l;
                    Common.set_owner soft_of_var l i;
                    Solver.add_clause ~selector:l s
                      (Array.append (Wcnf.soft w i) (Array.of_list blocks.(i)));
                    b)
                  softs
              in
              Common.card_event config ~arity:(List.length new_bs) ~bound:1;
              opts.exactly_one sink (Array.of_list new_bs);
              Common.maybe_inprocess config s;
              incr cost;
              Common.note_lb config !cost;
              Common.trace config (fun () ->
                  Printf.sprintf "UNSAT: core of %d soft clauses, cost now %d"
                    (List.length softs) !cost);
              loop ())
    end
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> bounds ()

let run opts (config : Types.config) w =
  Common.require_unit_weights w;
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  run_incremental opts config w t0
