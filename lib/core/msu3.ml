module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Card = Msu_card.Card
module Itotalizer = Msu_card.Itotalizer
module Sink = Msu_cnf.Sink

(* Every soft clause goes in under a selector; assuming the selector's
   negation enforces the clause, so a core is read off the failed
   assumptions instead of the resolution trace.  Relaxing a clause is
   just dropping its assumption: the selector then plays the
   blocking-variable role, and an incremental totalizer counts the
   relaxed selectors, growing leaves and bound as cores arrive.  Learnt
   clauses survive every iteration. *)
let solve_incremental (config : Types.config) w t0 =
  let tally = Common.tally config in
  let s = Solver.create ~track_proof:false () in
  Solver.on_event s (Common.event config);
  Common.attach_tracer config s;
  Common.attach_share config s;
  Common.setup_inprocess config s;
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause ~shareable:true s c) w;
  let n_soft = Wcnf.num_soft w in
  let base = Solver.add_softs s n_soft (Wcnf.soft w) in
  let sel i = Lit.pos (base + i) in
  let relaxed = Array.make (max n_soft 1) false in
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
  let sink =
    match config.Types.guard with None -> sink | Some g -> Card.guarded_sink g sink
  in
  let tot = Itotalizer.create sink [||] in
  let lambda = ref 0 in
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  let bounds () = finish (Types.Bounds { lb = !lambda; ub = None }) None in
  (* A peer (portfolio worker / resumed checkpoint) already holds a
     model at cost <= lambda: our lower bound meets it, so the gap is
     closed — stop and let the parent merge the two halves. *)
  let peer_closed () =
    match config.Types.guard with
    | Some g -> (
        match Msu_guard.Guard.external_ub g with
        | Some u -> !lambda >= u
        | None -> false)
    | None -> false
  in
  let rec loop () =
    if Common.over_deadline config || peer_closed () then bounds ()
    else begin
      Common.Tally.sat_call tally;
      let bound = Itotalizer.at_most sink tot !lambda in
      let assumptions =
        let acc = ref (match bound with None -> [] | Some l -> [ l ]) in
        for i = n_soft - 1 downto 0 do
          if not relaxed.(i) then acc := Lit.neg (sel i) :: !acc
        done;
        Array.of_list !acc
      in
      match
        Common.sat_call_span config s (fun () ->
            Solver.solve ~assumptions ~deadline:config.deadline ?guard:config.guard s)
      with
      | Solver.Unknown -> bounds ()
      | Solver.Sat ->
          Common.trace config (fun () -> Printf.sprintf "SAT: optimum %d" !lambda);
          finish (Types.Optimum !lambda) (Some (Solver.model s))
      | Solver.Unsat ->
          let core =
            Common.span config "core_extract" (fun () -> Solver.conflict_assumptions s)
          in
          let softs =
            List.filter_map (Common.soft_index ~base ~n_soft) core
          in
          (* An empty failed-assumption set means the refutation needed
             no soft clause at all (relaxed ones satisfy through their
             free selectors): the hard clauses are contradictory. *)
          if core = [] then finish Types.Hard_unsat None
          else begin
            let new_leaves =
              List.filter_map
                (fun i ->
                  if relaxed.(i) then None
                  else begin
                    relaxed.(i) <- true;
                    Common.Tally.blocking_var tally;
                    Some (sel i)
                  end)
                softs
            in
            if softs <> [] then
              Common.Tally.core ~size:(List.length softs)
                ~fresh_blocking:(List.length new_leaves) tally;
            Common.span config "totalizer_extend" (fun () ->
                Itotalizer.extend sink tot (Array.of_list new_leaves));
            Common.maybe_inprocess config s;
            Common.card_event config ~arity:(List.length new_leaves) ~bound:(!lambda + 1);
            incr lambda;
            Common.note_lb config !lambda;
            Common.trace config (fun () ->
                Printf.sprintf "UNSAT: %d newly relaxed, lambda now %d"
                  (List.length new_leaves) !lambda);
            loop ()
          end
    end
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> bounds ()

let solve ?(config = Types.default_config) w =
  Common.require_unit_weights w;
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  solve_incremental config w t0
