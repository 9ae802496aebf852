type outcome =
  | Optimum of int
  | Bounds of { lb : int; ub : int option }
  | Hard_unsat
  | Crashed of { reason : string; lb : int; ub : int option }

type stats = {
  sat_calls : int;
  cores : int;
  blocking_vars : int;
  encoding_clauses : int;
}

type result = {
  outcome : outcome;
  model : bool array option;
  stats : stats;
  elapsed : float;
}

type share = {
  sh_export : lbd:int -> Msu_cnf.Lit.t array -> unit;
  sh_drain : unit -> Msu_cnf.Lit.t array list;
}

type config = {
  deadline : float;
  max_conflicts : int option;
  max_propagations : int option;
  max_memory_words : int option;
  encoding : Msu_card.Card.encoding;
  core_geq1 : bool;
  inprocess : bool;
      (* opt-in: let the persistent solver run inprocessing passes (BVE,
         subsumption, probing) at restart boundaries and after core
         rounds; freezing protects selectors and encoding variables.  Off
         by default: on the paper's suites the passes cost more wall time
         than they save (results/BENCH_inprocess.json) *)
  sink : Msu_obs.Obs.sink;
  solve_id : int;
  guard : Msu_guard.Guard.t option;
  progress : Msu_guard.Guard.Progress.cell option;
  resume : Msu_guard.Checkpoint.t option;
      (* warm-resume checkpoint from a previous (crashed) attempt: the
         bracket is installed as external bounds and the incumbent model
         re-verified and seeded before the algorithm starts *)
  share : share option;
      (* portfolio clause-sharing endpoints; algorithms wire them into
         their solvers via Common.attach_share *)
  spans : Msu_obs.Obs.Span.t;
      (* phase tracer; Span.disabled (the default) keeps every
         instrumentation point a near-free branch *)
}

let default_config =
  {
    deadline = infinity;
    max_conflicts = None;
    max_propagations = None;
    max_memory_words = None;
    encoding = Msu_card.Card.Sortnet;
    core_geq1 = true;
    inprocess = false;
    sink = Msu_obs.Obs.null;
    solve_id = 0;
    guard = None;
    progress = None;
    resume = None;
    share = None;
    spans = Msu_obs.Obs.Span.disabled;
  }

let empty_stats =
  {
    sat_calls = 0;
    cores = 0;
    blocking_vars = 0;
    encoding_clauses = 0;
  }

let merge_stats a b =
  {
    sat_calls = a.sat_calls + b.sat_calls;
    cores = a.cores + b.cores;
    blocking_vars = a.blocking_vars + b.blocking_vars;
    encoding_clauses = a.encoding_clauses + b.encoding_clauses;
  }

let outcome_bounds = function
  | Optimum c -> (c, Some c)
  | Bounds { lb; ub } | Crashed { lb; ub; _ } -> (lb, ub)
  | Hard_unsat -> (0, None)

(* ----- frame codecs, shared by service replies and worker results -----

   An outcome travels as its name and its bracket, which the bracket
   codec refuses when negative or crossed. *)

module Frame = Msu_frame.Frame

let outcome_codec =
  Frame.map
    (function
      | Optimum c -> ("optimum", (c, Some c))
      | Bounds { lb; ub } -> ("bounds", (lb, ub))
      | Hard_unsat -> ("hard_unsat", (0, None))
      | Crashed { reason; lb; ub } -> ("crashed:" ^ reason, (lb, ub)))
    (function
      | "optimum", (c, _) -> Optimum c
      | "bounds", (lb, ub) -> Bounds { lb; ub }
      | "hard_unsat", _ -> Hard_unsat
      | s, (lb, ub) when String.starts_with ~prefix:"crashed:" s ->
          Crashed { reason = String.sub s 8 (String.length s - 8); lb; ub }
      | _ -> Frame.malformed "unknown outcome")
    (Frame.pair Frame.string Msu_guard.Checkpoint.bracket)

let result_codec =
  let open Frame in
  map
    (fun r ->
      let s = r.stats in
      ((r.outcome, r.model), (((s.sat_calls, s.cores), (s.blocking_vars, s.encoding_clauses)), r.elapsed)))
    (fun ((outcome, model), (((sat_calls, cores), (blocking_vars, encoding_clauses)), elapsed)) ->
      { outcome; model; stats = { sat_calls; cores; blocking_vars; encoding_clauses }; elapsed })
    (pair (pair outcome_codec (option bits)) (pair (pair (pair nat nat) (pair nat nat)) float))

let max_satisfied w r =
  match r.outcome with
  | Optimum cost -> Some (Msu_cnf.Wcnf.total_soft_weight w - cost)
  | Bounds _ | Hard_unsat | Crashed _ -> None

let verify_model w r =
  match (r.model, r.outcome) with
  | None, _ -> true
  | Some model, Optimum cost -> Msu_cnf.Wcnf.cost_of_model w model = Some cost
  | Some model, (Bounds { ub = Some ub; _ } | Crashed { ub = Some ub; _ }) ->
      Msu_cnf.Wcnf.cost_of_model w model = Some ub
  | Some _, (Bounds { ub = None; _ } | Crashed { ub = None; _ } | Hard_unsat) -> false

let pp_outcome ppf = function
  | Optimum c -> Format.fprintf ppf "optimum %d" c
  | Bounds { lb; ub = Some ub } -> Format.fprintf ppf "bounds [%d, %d]" lb ub
  | Bounds { lb; ub = None } -> Format.fprintf ppf "bounds [%d, ?]" lb
  | Hard_unsat -> Format.pp_print_string ppf "hard clauses unsatisfiable"
  | Crashed { reason; lb; ub = Some ub } ->
      Format.fprintf ppf "crashed (%s) at bounds [%d, %d]" reason lb ub
  | Crashed { reason; lb; ub = None } ->
      Format.fprintf ppf "crashed (%s) at bounds [%d, ?]" reason lb

let pp_result ppf r =
  Format.fprintf ppf "%a (%.3fs, %d SAT calls, %d cores, %d blocking vars)" pp_outcome
    r.outcome r.elapsed r.stats.sat_calls r.stats.cores r.stats.blocking_vars
