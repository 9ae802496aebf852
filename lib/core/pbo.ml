module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Card = Msu_card.Card
module Itotalizer = Msu_card.Itotalizer
module Gte = Msu_card.Gte
module Sink = Msu_cnf.Sink

let tally_sink tally s =
  Sink.
    {
      fresh_var = Common.frozen_var s;
      emit =
        (fun c ->
          Common.Tally.encoded tally 1;
          Solver.add_clause s c);
    }

(* Build the relaxed formula: every soft clause gets its blocking
   variable.  Returns the solver and the weighted blocking literals. *)
let build_relaxed config tally w =
  let s = Solver.create ~track_proof:false () in
  Solver.on_event s (Common.event config);
  Common.attach_tracer config s;
  Common.attach_share config s;
  Common.setup_inprocess config s;
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause ~shareable:true s c) w;
  let n_soft = Wcnf.num_soft w in
  let base = Solver.add_softs s n_soft (Wcnf.soft w) in
  let blocks =
    Array.init n_soft (fun i ->
        Common.Tally.blocking_var tally;
        (Lit.pos (base + i), Wcnf.weight w i))
  in
  (s, blocks)

(* Linear search: "objective < cost" becomes assumptions over one
   reusable counter instead of permanently emitted clauses, so each
   improved model adds only the counter rows the new bound needs and
   the final Unsat answer still proves optimality (the bound assumption
   is the only thing refuted).  Unit weights use the incremental
   totalizer; general weights the generalized totalizer, built lazily
   and capped at the first model's cost. *)
let linear config tally w t0 =
  let s, blocks = build_relaxed config tally w in
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  let sink = tally_sink tally s in
  let sink =
    match config.Types.guard with None -> sink | Some g -> Card.guarded_sink g sink
  in
  let unit_weights = Array.for_all (fun (_, wt) -> wt = 1) blocks in
  let itot = ref None in
  let gte = ref None in
  let assume_below cost =
    (* cost >= 1: the cost-0 model already ended the search. *)
    Common.card_event config ~arity:(Array.length blocks) ~bound:(cost - 1);
    if unit_weights then begin
      let t =
        match !itot with
        | Some t -> t
        | None ->
            let t = Itotalizer.create sink (Array.map fst blocks) in
            itot := Some t;
            t
      in
      match Itotalizer.at_most sink t (cost - 1) with None -> [] | Some l -> [ l ]
    end
    else begin
      let g =
        match !gte with
        | Some g -> g
        | None ->
            let g = Gte.build ?guard:config.Types.guard sink ~cap:(max cost 1) blocks in
            gte := Some g;
            g
      in
      Gte.at_most_assumptions g (cost - 1)
    end
  in
  let best = ref None in
  (* Warm resume: a re-verified incumbent becomes the starting point, so
     the first SAT call already assumes "objective < checkpointed cost"
     — and an immediate Unsat proves that cost optimal in one call. *)
  (match Common.resume_incumbent config w with
  | Some (cost, model) when cost > 0 ->
      (* cost 0 would have ended the previous solve; assume_below needs >= 1 *)
      best := Some (cost, model)
  | _ -> ());
  let rec loop () =
    if Common.over_deadline config then bounds ()
    else begin
      Common.Tally.sat_call tally;
      let assumptions =
        match !best with
        | None -> [||]
        | Some (cost, _) -> Array.of_list (assume_below cost)
      in
      match
        Common.sat_call_span config s (fun () ->
            Solver.solve ~assumptions ~deadline:config.Types.deadline
              ?guard:config.Types.guard s)
      with
      | Solver.Unknown -> bounds ()
      | Solver.Unsat -> (
          match !best with
          | None -> finish Types.Hard_unsat None
          | Some (cost, model) -> finish (Types.Optimum cost) (Some model))
      | Solver.Sat ->
          let model = Solver.model s in
          let cost =
            match Wcnf.cost_of_model w model with Some c -> c | None -> assert false
          in
          Common.trace config (fun () -> Printf.sprintf "SAT: cost %d" cost);
          best := Some (cost, model);
          Common.note_ub config cost (Some model);
          if cost = 0 then finish (Types.Optimum 0) (Some model)
          else begin
            Common.maybe_inprocess config s;
            loop ()
          end
    end
  and bounds () =
    match !best with
    | None -> finish (Types.Bounds { lb = 0; ub = None }) None
    | Some (cost, model) ->
        finish (Types.Bounds { lb = 0; ub = Some cost }) (Some model)
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> bounds ()

let binary config tally w t0 =
  let s, blocks = build_relaxed config tally w in
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  (* One counter reused across probes; bounds become assumptions.  The
     counter is built lazily, capped at the first model's cost, since no
     probe ever exceeds it. *)
  let counter = ref None in
  let lo = ref 0 in
  let best = ref None in
  (* Warm resume: both halves of the checkpointed bracket narrow the
     binary search — the certified lb raises [lo], the re-verified
     incumbent caps [hi].  A collapsed bracket finishes immediately. *)
  (match Common.resume_incumbent config w with
  | Some (cost, model) when cost > 0 -> best := Some (cost, model)
  | _ -> ());
  (match config.Types.resume with
  | Some ck -> lo := max !lo ck.Msu_guard.Checkpoint.lb
  | None -> ());
  let solve_with_bound k =
    let deadline = config.Types.deadline in
    Common.Tally.sat_call tally;
    let assumptions =
      match k with
      | None -> [||]
      | Some k ->
          let gte =
            match !counter with
            | Some g -> g
            | None ->
                let cap =
                  match !best with Some (c, _) -> max c 1 | None -> assert false
                in
                let g =
                  Gte.build ?guard:config.Types.guard (tally_sink tally s) ~cap blocks
                in
                counter := Some g;
                g
          in
          Array.of_list (Gte.at_most_assumptions gte k)
    in
    Common.sat_call_span config s (fun () ->
        Solver.solve ~assumptions ~deadline ?guard:config.Types.guard s)
  in
  let rec loop () =
    let hi = match !best with Some (c, _) -> c | None -> max_int in
    if !lo >= hi then
      match !best with
      | Some (c, m) -> finish (Types.Optimum c) (Some m)
      | None -> assert false
    else if Common.over_deadline config then bounds ()
    else begin
      let probe = if hi = max_int then None else Some ((!lo + hi) / 2) in
      match solve_with_bound probe with
      | Solver.Unknown -> bounds ()
      | Solver.Sat ->
          let model = Solver.model s in
          let cost =
            match Wcnf.cost_of_model w model with Some c -> c | None -> assert false
          in
          Common.trace config (fun () ->
              Printf.sprintf "SAT at bound %s: cost %d"
                (match probe with Some p -> string_of_int p | None -> "-")
                cost);
          (match !best with
          | Some (c, _) when c <= cost -> ()
          | _ ->
              best := Some (cost, model);
              Common.note_ub config cost (Some model));
          loop ()
      | Solver.Unsat -> (
          match probe with
          | None -> finish Types.Hard_unsat None
          | Some p ->
              Common.trace config (fun () -> Printf.sprintf "UNSAT at bound %d" p);
              lo := p + 1;
              Common.note_lb config !lo;
              loop ())
    end
  and bounds () =
    match !best with
    | None -> finish (Types.Bounds { lb = !lo; ub = None }) None
    | Some (c, m) -> finish (Types.Bounds { lb = !lo; ub = Some c }) (Some m)
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> bounds ()

let solve ?(config = Types.default_config) ?(search = `Linear) w =
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  let tally = Common.tally config in
  match search with
  | `Linear -> linear config tally w t0
  | `Binary -> binary config tally w t0
