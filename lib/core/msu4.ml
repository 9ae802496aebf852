module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Card = Msu_card.Card
module Itotalizer = Msu_card.Itotalizer
module Sink = Msu_cnf.Sink

(* Soft clauses enter under selectors, so a core is the subset of failed
   assumptions instead of a resolution trace, and relaxing a clause is
   dropping its assumption — the selector doubles as the paper's
   blocking variable.  The at-most bound over the blocking variables
   (line 30: strictly fewer than the best cost) is an incremental
   totalizer assumption, so tightening it after a better model emits
   only the missing rows; the optional at-least-one constraint over a
   new core's blocking variables (line 19) is a plain clause. *)
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
  let ub = ref max_int in
  let best_model = ref None in
  (* Warm resume: a re-verified checkpointed incumbent becomes our own
     model (not merely an external bound), so line 30 starts tight and
     the ub can be reported as ours. *)
  (match Common.resume_incumbent config w with
  | Some (cost, model) ->
      ub := cost;
      best_model := Some model
  | None -> ());
  let unsat_iters = ref 0 in
  let lower_bound () = if !ub = max_int then !unsat_iters else min !unsat_iters !ub in
  (* Effective pruning bound: the tighter of our best model and any
     bound a portfolio peer proved (installed into the shared guard by
     the bound-sharing ticker).  Both are valid upper bounds on the
     optimum, so the line-30 constraint stays sound with either; but a
     peer's bound is never reported as our own ub — we hold no model
     for it, only the conclusions it lets us prove. *)
  let effective_ub () =
    match config.Types.guard with
    | Some g -> (
        match Msu_guard.Guard.external_ub g with
        | Some e -> min !ub e
        | None -> !ub)
    | None -> !ub
  in
  let finish outcome =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome !best_model
  in
  let bounds_outcome () =
    Types.Bounds
      { lb = lower_bound (); ub = (if !ub = max_int then None else Some !ub) }
  in
  (* A peer's bound closed the remaining gap: we proved cost >= lb but
     hold no model for lb, so report bounds and let the portfolio
     parent pair our lower bound with the peer's model. *)
  let gap_closed_by_peer lb =
    Common.note_lb config lb;
    Types.Bounds
      { lb = max lb (lower_bound ());
        ub = (if !ub = max_int then None else Some !ub) }
  in
  let last_card = ref None in
  let rec loop () =
    if Common.over_deadline config then finish (bounds_outcome ())
    else begin
      let limit = effective_ub () in
      if limit < !ub && limit <= !unsat_iters then
        (* Our own lower bound already meets the peer's upper bound. *)
        finish (gap_closed_by_peer limit)
      else begin
        Common.Tally.sat_call tally;
        (* Line 30: require strictly fewer blocking variables than the
           best model (ours or a peer's) needed. *)
        let bound =
          if limit = max_int then None
          else begin
            if Some (limit - 1) <> !last_card then begin
              last_card := Some (limit - 1);
              Common.card_event config ~arity:(Itotalizer.size tot) ~bound:(limit - 1)
            end;
            Itotalizer.at_most sink tot (limit - 1)
          end
        in
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
        | Solver.Unknown -> finish (bounds_outcome ())
        | Solver.Sat ->
            let model = Solver.model s in
            let cost =
              match Wcnf.cost_of_model w model with
              | Some c -> c
              | None -> assert false (* the solver holds the hard clauses *)
            in
            Common.trace config (fun () ->
                Printf.sprintf "SAT: cost %d (ub %s, lb %d)" cost
                  (if !ub = max_int then "-" else string_of_int !ub)
                  (lower_bound ()));
            if cost < !ub then begin
              ub := cost;
              best_model := Some model;
              Common.note_ub config cost (Some model)
            end;
            if !ub = 0 || !unsat_iters >= !ub then finish (Types.Optimum !ub)
            else loop ()
        | Solver.Unsat -> (
            let core =
              Common.span config "core_extract" (fun () ->
                  Solver.conflict_assumptions s)
            in
            let softs =
              List.filter_map (Common.soft_index ~base ~n_soft) core
            in
            match softs with
            | [] ->
                (* The core has no unrelaxed soft clause: the bound cannot
                   improve (lines 21-22), or the hard clauses are refuted. *)
                if limit = max_int then finish Types.Hard_unsat
                else if limit = !ub then finish (Types.Optimum !ub)
                else finish (gap_closed_by_peer limit)
            | _ ->
                Common.Tally.core ~size:(List.length softs)
                  ~fresh_blocking:(List.length softs) tally;
                incr unsat_iters;
                Common.note_lb config (lower_bound ());
                let new_bs =
                  List.map
                    (fun i ->
                      relaxed.(i) <- true;
                      Common.Tally.blocking_var tally;
                      sel i)
                    softs
                in
                Common.span config "totalizer_extend" (fun () ->
                    Itotalizer.extend sink tot (Array.of_list new_bs));
                Common.maybe_inprocess config s;
                Common.trace config (fun () ->
                    Printf.sprintf "UNSAT: core with %d initial clauses (U=%d)"
                      (List.length softs) !unsat_iters);
                if config.core_geq1 then sink.Sink.emit (Array.of_list new_bs);
                if !ub <> max_int && !unsat_iters >= !ub then
                  finish (Types.Optimum !ub)
                else if limit < !ub && !unsat_iters >= limit then
                  finish (gap_closed_by_peer limit)
                else loop ())
      end
    end
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> finish (bounds_outcome ())

let solve ?(config = Types.default_config) w =
  Common.require_unit_weights w;
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  solve_incremental config w t0
