module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Formula = Msu_cnf.Formula
module Sink = Msu_cnf.Sink
module Solver = Msu_sat.Solver
module Drup = Msu_sat.Drup
module Card = Msu_card.Card
module Gte = Msu_card.Gte
module Fault = Msu_guard.Fault

type report = {
  passed : string list;
  unproved : (string * string) list;
  failures : string list;
}

let ok r = r.failures = []

let pp ppf r =
  List.iter (fun c -> Format.fprintf ppf "pass: %s@." c) r.passed;
  List.iter (fun (c, why) -> Format.fprintf ppf "UNPROVED: %s (%s)@." c why) r.unproved;
  List.iter (fun c -> Format.fprintf ppf "FAIL: %s@." c) r.failures

(* Fault hook: simulate a solver that lost part of its refutation by
   dropping the final DRUP event (the derived empty clause) before the
   proof is replayed. *)
let maybe_truncate log =
  if Fault.consume Fault.Drop_core_clause then begin
    let events = Drup.events log in
    let truncated = Drup.create () in
    let n = List.length events in
    List.iteri
      (fun i ev ->
        if i < n - 1 then
          match ev with
          | Drup.Add c -> Drup.log_add truncated c
          | Drup.Delete c -> Drup.log_delete truncated c)
      events;
    truncated
  end
  else log

(* A solver whose inputs are mirrored into a formula, so that a DRUP
   log captured from the solver can be replayed independently against
   exactly what the solver was given. *)
let mirrored_solver () =
  let f = Formula.create () in
  let s = Solver.create ~track_proof:false () in
  let log = Drup.create () in
  Solver.set_drup s log;
  let add c =
    ignore (Formula.add_clause f c);
    Solver.add_clause s c
  in
  let sink =
    Sink.
      {
        fresh_var =
          (fun () ->
            let v = Solver.new_var s in
            Formula.ensure_vars f (v + 1);
            v);
        emit = add;
      }
  in
  (f, s, log, add, sink)

(* Does refuting [s] (already loaded, mirrored in [f]) check out as a
   machine-verified UNSAT?  [`Unsat true] means the solver said UNSAT
   and the DRUP replay confirmed the refutation. *)
let refute ~max_conflicts (f, s, log) =
  match Solver.solve ~conflict_budget:max_conflicts s with
  | Solver.Sat -> `Sat (Solver.model s)
  | Solver.Unknown -> `Unknown
  | Solver.Unsat -> `Unsat (Drup.check ~require_empty:true f (maybe_truncate log))

(* Load the "cost <= bound" relaxation: hard clauses, soft clauses with
   fresh blocking variables, and the weighted bound over the blockers. *)
let load_bounded w bound encoding =
  let f, s, log, add, sink = mirrored_solver () in
  let n0 = Wcnf.num_vars w in
  Solver.ensure_vars s n0;
  Formula.ensure_vars f n0;
  Wcnf.iter_hard (fun _ c -> add c) w;
  let blocks = ref [] in
  Wcnf.iter_soft
    (fun _ c weight ->
      let b = Lit.pos (sink.Sink.fresh_var ()) in
      add (Array.append c [| b |]);
      blocks := (b, weight) :: !blocks)
    w;
  let blocks = Array.of_list (List.rev !blocks) in
  if Array.for_all (fun (_, wt) -> wt = 1) blocks then
    Card.at_most sink encoding (Array.map fst blocks) bound
  else Gte.at_most sink blocks bound;
  (f, s, log)

let load_hard w =
  let f, s, log, add, _ = mirrored_solver () in
  let n0 = Wcnf.num_vars w in
  Solver.ensure_vars s n0;
  Formula.ensure_vars f n0;
  Wcnf.iter_hard (fun _ c -> add c) w;
  (f, s, log)

let check_model_cost w claim model =
  match Wcnf.cost_of_model w model with
  | Some c when c = claim -> Ok ()
  | Some c -> Error (Printf.sprintf "model costs %d, result claims %d" c claim)
  | None -> Error "model violates a hard clause"

(* The cheap subset of [certify] a cache hit can afford: re-cost the
   model against the requesting instance, no solver probes.  Sufficient
   for served cache entries because fingerprint equality already means
   the instances share one cost function — the re-cost catches a stale,
   corrupted, or colliding entry. *)
let recost w (r : Types.result) =
  let passed = ref [] and failures = ref [] in
  let record name result =
    match result with
    | Ok () -> passed := name :: !passed
    | Error msg -> failures := Printf.sprintf "%s: %s" name msg :: !failures
  in
  (match (r.Types.outcome, r.Types.model) with
  | Types.Optimum claim, Some m -> record "model-cost" (check_model_cost w claim m)
  | Types.Optimum _, None -> record "model-cost" (Error "optimum claimed without a model")
  | (Types.Bounds { ub = Some u; _ } | Types.Crashed { ub = Some u; _ }), Some m ->
      record "model-cost" (check_model_cost w u m)
  | (Types.Bounds _ | Types.Crashed _ | Types.Hard_unsat), _ -> ());
  { passed = List.rev !passed; unproved = []; failures = List.rev !failures }

let certify ?(encoding = Msu_card.Card.Sortnet) ?(brute_limit = 16)
    ?(max_conflicts = 200_000) ?(spans = Msu_obs.Obs.Span.disabled) w
    (r : Types.result) =
  Msu_obs.Obs.Span.wrap spans "certify" @@ fun () ->
  let passed = ref [] and unproved = ref [] and failures = ref [] in
  let record name result =
    match result with
    | Ok () -> passed := name :: !passed
    | Error msg -> failures := Printf.sprintf "%s: %s" name msg :: !failures
  in
  let unprove name why = unproved := (name, why) :: !unproved in
  let check_model_cost claim model = check_model_cost w claim model in
  (match (r.Types.outcome, r.Types.model) with
  | Types.Optimum claim, model -> (
      (match model with
      | Some m -> record "model-cost" (check_model_cost claim m)
      | None -> record "model-cost" (Error "optimum claimed without a model"));
      (* Optimality: "cost <= claim - 1" must be refutable, and the
         refutation must replay under the independent RUP checker. *)
      (if claim = 0 then
         (* Nothing below cost 0; the model check above is the proof. *)
         passed := "optimality" :: !passed
       else
         match refute ~max_conflicts (load_bounded w (claim - 1) encoding) with
         | `Sat m -> (
             match Wcnf.cost_of_model w m with
             | Some c when c < claim ->
                 record "optimality"
                   (Error (Printf.sprintf "found a model of cost %d" c))
             | _ ->
                 (* The probe's model says nothing below the claim after
                    all (blocking variables absorb the softs); treat as
                    inconclusive rather than guessing. *)
                 unprove "optimality" "inconclusive probe")
         | `Unknown -> unprove "optimality" "probe budget out"
         | `Unsat true -> passed := "optimality (DRUP-checked)" :: !passed
         | `Unsat false ->
             record "optimality" (Error "refutation failed the DRUP replay"));
      (* Independent enumeration on small instances. *)
      if Wcnf.num_vars w <= brute_limit then
        match Wcnf.brute_force_min_cost w with
        | Some opt when opt = claim -> passed := "brute-cross-check" :: !passed
        | Some opt ->
            record "brute-cross-check"
              (Error (Printf.sprintf "enumeration finds optimum %d" opt))
        | None ->
            record "brute-cross-check"
              (Error "enumeration finds the hard clauses unsatisfiable"))
  | Types.Hard_unsat, _ -> (
      match refute ~max_conflicts (load_hard w) with
      | `Sat _ -> record "hard-unsat" (Error "hard clauses are satisfiable")
      | `Unknown -> unprove "hard-unsat" "probe budget out"
      | `Unsat true -> passed := "hard-unsat (DRUP-checked)" :: !passed
      | `Unsat false ->
          record "hard-unsat" (Error "refutation failed the DRUP replay"))
  | Types.Bounds { lb; ub }, model | Types.Crashed { lb; ub; _ }, model -> (
      (match ub with
      | Some u when lb > u ->
          record "bounds-order" (Error (Printf.sprintf "lb %d > ub %d" lb u))
      | _ -> passed := "bounds-order" :: !passed);
      match (model, ub) with
      | Some m, Some u -> record "model-cost" (check_model_cost u m)
      | Some _, None ->
          record "model-cost" (Error "model reported without an upper bound")
      | None, _ -> ()));
  { passed = List.rev !passed; unproved = List.rev !unproved; failures = List.rev !failures }
