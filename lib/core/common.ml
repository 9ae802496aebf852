module Guard = Msu_guard.Guard
module Fault = Msu_guard.Fault
module Obs = Msu_obs.Obs

let require_unit_weights w =
  let ok = ref true in
  Msu_cnf.Wcnf.iter_soft (fun _ _ weight -> if weight <> 1 then ok := false) w;
  if not !ok then
    invalid_arg "this MaxSAT algorithm handles unit soft weights only (use stratification)"

let over_deadline (cfg : Types.config) =
  match cfg.guard with
  | Some g -> Guard.poll g <> None
  | None -> cfg.deadline < infinity && Unix.gettimeofday () > cfg.deadline

let make_guard (cfg : Types.config) =
  Guard.create ~deadline:cfg.deadline
    ?max_conflicts:cfg.max_conflicts
    ?max_propagations:cfg.max_propagations
    ?max_memory_words:cfg.max_memory_words ()

let guard (cfg : Types.config) =
  match cfg.guard with Some g -> g | None -> make_guard cfg

let with_guard (cfg : Types.config) =
  let cfg =
    match cfg.guard with
    | Some _ -> cfg
    | None -> { cfg with guard = Some (make_guard cfg) }
  in
  (* A progress cell always rides along: it is both the crash-salvage
     channel and the monotonicity filter for Lb/Ub events. *)
  match cfg.progress with
  | Some _ -> cfg
  | None -> { cfg with progress = Some (Guard.Progress.create ()) }

let event (cfg : Types.config) kind = Obs.emit cfg.sink ~id:cfg.solve_id kind
let trace (cfg : Types.config) msg = Obs.note cfg.sink ~id:cfg.solve_id msg

(* Every improved bound forces a guard tick so the checkpoint writer /
   portfolio broadcaster flushes it immediately — a worker killed right
   after proving a bound must not lose it to the sampled cadence. *)
let force_tick (cfg : Types.config) =
  match cfg.guard with Some g -> Guard.tick g | None -> ()

(* Bound publication routes through the progress cell so the emitted
   Lb/Ub events are strictly improving — the timeline-monotonicity
   guarantee lives here, not in each algorithm. *)
let publish_lb (cfg : Types.config) lb =
  match cfg.progress with
  | Some cell ->
      if lb > Guard.Progress.lb cell then begin
        Guard.Progress.note_lb cell lb;
        event cfg (Obs.Event.Lb lb);
        force_tick cfg
      end
  | None -> event cfg (Obs.Event.Lb lb)

let publish_ub (cfg : Types.config) ub model =
  match cfg.progress with
  | Some cell ->
      let improved =
        match Guard.Progress.ub cell with None -> true | Some u -> ub < u
      in
      Guard.Progress.note_ub cell ub model;
      if improved then begin
        event cfg (Obs.Event.Ub ub);
        force_tick cfg
      end
  | None -> event cfg (Obs.Event.Ub ub)

let note_lb = publish_lb

let note_ub (cfg : Types.config) ub model =
  publish_ub cfg ub model;
  (* Fault hooks: a crash right after the first published bound
     exercises the supervisor's partial-result salvage; a raw SIGKILL
     (no flush, no unwind) exercises the checkpoint pipe — the forced
     tick above already streamed the bound out. *)
  if Fault.consume Fault.Crash_mid_solve then raise Stack_overflow;
  if Fault.consume Fault.Kill_mid_solve then
    Unix.kill (Unix.getpid ()) Sys.sigkill

(* Wire a solver into the portfolio's clause-sharing endpoints.  Only
   meaningful on solvers whose hard clauses were added with
   [~shareable:true]; a no-op for standalone solves (share = None). *)
let attach_share (cfg : Types.config) s =
  match cfg.share with
  | None -> ()
  | Some sh ->
      Msu_sat.Solver.on_export s sh.Types.sh_export;
      Msu_sat.Solver.set_importer s sh.Types.sh_drain

(* Phase-tracer plumbing.  [attach_tracer] hands the config's tracer to
   a solver so its internal phases (reduce_db, restart boundaries,
   inprocess passes, the propagate/analyze aggregates) nest under the
   algorithm's spans.  [span] wraps one algorithm phase;
   [sat_call_span] additionally annotates the span with the call's
   (conflicts, propagations) delta read from the solver's counters. *)
let attach_tracer (cfg : Types.config) s =
  Msu_sat.Solver.set_tracer s cfg.Types.spans

let span (cfg : Types.config) phase f = Obs.Span.wrap cfg.Types.spans phase f

let sat_call_span (cfg : Types.config) s f =
  Obs.Span.wrap_counted cfg.Types.spans "sat_call"
    ~counters:(fun () ->
      let st = Msu_sat.Solver.stats s in
      (st.Msu_sat.Solver.conflicts, st.Msu_sat.Solver.propagations))
    f

(* Wire a persistent solver for inprocessing: enable the automatic
   restart-boundary pass per [config.inprocess], and wrap its fresh-var
   source so every encoding variable (totalizer internals and outputs,
   exactly-one auxiliaries) is frozen on creation — none of them may be
   eliminated or probed, since the algorithm can re-reference or assume
   any of them in a later round. *)
let setup_inprocess (cfg : Types.config) s =
  Msu_sat.Solver.set_inprocess s cfg.Types.inprocess

(* The soft clause whose selector an assumption negates, for solvers
   loaded by [Solver.add_softs]: selector [i] is variable [base + i]. *)
let soft_index ~base ~n_soft a =
  let i = Msu_cnf.Lit.var a - base in
  if i >= 0 && i < n_soft then Some i else None

(* A rewrite re-adds a soft clause with its original literals, so they
   are effectively external: letting inprocessing eliminate one just
   forces a resurrection (and a re-elimination) on the next rewrite. *)
let load_rewritable_softs s w =
  Msu_cnf.Wcnf.iter_soft
    (fun _ c _ -> Array.iter (fun l -> Msu_sat.Solver.freeze s (Msu_cnf.Lit.var l)) c)
    w;
  Msu_sat.Solver.add_softs s (Msu_cnf.Wcnf.num_soft w) (Msu_cnf.Wcnf.soft w)

let set_owner owners sel i =
  let v = Msu_cnf.Lit.var sel in
  Msu_cnf.Vec.grow_to owners (v + 1) (-1);
  Msu_cnf.Vec.set owners v i

let owner owners a =
  let v = Msu_cnf.Lit.var a in
  if v < Msu_cnf.Vec.size owners && Msu_cnf.Vec.get owners v >= 0 then
    Some (Msu_cnf.Vec.get owners v)
  else None

let frozen_var s () =
  let v = Msu_sat.Solver.new_var s in
  Msu_sat.Solver.freeze s v;
  v

(* Explicit between-round pass: cheap no-op unless the solver saw real
   structural change (retired selectors, new encoding clauses) since the
   last pass.  The threshold scales with database size because a pass
   sweeps every live clause — on big instances a pass must be earned by
   proportionally more churn or its overhead dwarfs the search. *)
let maybe_inprocess (cfg : Types.config) s =
  if cfg.Types.inprocess then
    let min_dirty = max 8 (Msu_sat.Solver.num_clauses s / 4) in
    ignore (Msu_sat.Solver.inprocess ?guard:cfg.Types.guard ~min_dirty s)

(* Re-verify a checkpointed incumbent against an instance.  Published
   models carry auxiliary solver variables past the instance's, so the
   model is truncated to [num_vars] before costing; anything that does
   not re-cost to exactly the checkpointed ub is rejected — the process
   that wrote the frame may have been corrupted. *)
let checkpoint_incumbent w (ck : Msu_guard.Checkpoint.t) =
  match (ck.Msu_guard.Checkpoint.model, ck.Msu_guard.Checkpoint.ub) with
  | Some m, Some ub ->
      let n = Msu_cnf.Wcnf.num_vars w in
      if Array.length m < n then None
      else
        let m = if Array.length m = n then Array.copy m else Array.sub m 0 n in
        if Msu_cnf.Wcnf.cost_of_model w m = Some ub then Some (ub, m) else None
  | _ -> None

(* The verified half of a warm resume: the checkpointed incumbent is
   only trusted after re-costing it against this instance.  Returns the
   (cost, model) to seed the algorithm's incumbent with, and publishes
   it so the bracket is live from the first iteration. *)
let resume_incumbent (cfg : Types.config) w =
  match cfg.resume with
  | Some ck -> (
      match checkpoint_incumbent w ck with
      | Some (ub, model) ->
          publish_ub cfg ub (Some model);
          Some (ub, model)
      | None -> None)
  | None -> None

(* Process-wide solve metrics, fed once per finished solve from the
   final stats record (cheap and overflow-proof, unlike per-event
   counting). *)
let m_solves = Obs.Metrics.counter ~help:"finished MaxSAT solves" "msu_solves_total"
let m_sat_calls = Obs.Metrics.counter ~help:"SAT-solver invocations" "msu_sat_calls_total"
let m_cores = Obs.Metrics.counter ~help:"unsatisfiable cores extracted" "msu_cores_total"

let m_blocking =
  Obs.Metrics.counter ~help:"relaxation variables introduced" "msu_blocking_vars_total"

let m_encoding =
  Obs.Metrics.counter ~help:"clauses emitted by cardinality encoders"
    "msu_encoding_clauses_total"

let m_solve_seconds =
  Obs.Metrics.histogram ~help:"wall-clock seconds per solve" "msu_solve_seconds"

let m_core_size =
  Obs.Metrics.histogram ~help:"literals per extracted core"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1.0 ~hi:1024.0 11)
    "msu_core_size"

let finish (cfg : Types.config) ~t0 ~stats outcome model =
  (* Terminal bound publication: algorithms that prove an optimum
     without ever improving their incumbent (pure-LB solvers ending on a
     SAT answer) still close their timeline at the certified bracket. *)
  (match outcome with
  | Types.Hard_unsat -> ()
  | outcome ->
      let lb, ub = Types.outcome_bounds outcome in
      publish_lb cfg lb;
      (match ub with Some ub -> publish_ub cfg ub model | None -> ()));
  let elapsed = Unix.gettimeofday () -. t0 in
  Obs.Metrics.inc m_solves;
  Obs.Metrics.inc ~by:stats.Types.sat_calls m_sat_calls;
  Obs.Metrics.inc ~by:stats.Types.cores m_cores;
  Obs.Metrics.inc ~by:stats.Types.blocking_vars m_blocking;
  Obs.Metrics.inc ~by:stats.Types.encoding_clauses m_encoding;
  Obs.Metrics.observe m_solve_seconds elapsed;
  Obs.Gc_metrics.sample ();
  Types.{ outcome; model; stats; elapsed }

module Tally = struct
  type t = {
    emit : Obs.Event.kind -> unit;
    mutable sat_calls : int;
    mutable cores : int;
    mutable blocking_vars : int;
    mutable encoding_clauses : int;
  }

  let create ?(emit = fun (_ : Obs.Event.kind) -> ()) () =
    {
      emit;
      sat_calls = 0;
      cores = 0;
      blocking_vars = 0;
      encoding_clauses = 0;
    }

  let sat_call t =
    t.sat_calls <- t.sat_calls + 1;
    t.emit Obs.Event.Sat_call

  let core ?(size = 0) ?(fresh_blocking = 0) t =
    t.cores <- t.cores + 1;
    Obs.Metrics.observe m_core_size (float_of_int size);
    t.emit (Obs.Event.Core { size; fresh_blocking })

  let blocking_var t = t.blocking_vars <- t.blocking_vars + 1
  let encoded t n = t.encoding_clauses <- t.encoding_clauses + n

  let snapshot (t : t) =
    Types.
      {
        sat_calls = t.sat_calls;
        cores = t.cores;
        blocking_vars = t.blocking_vars;
        encoding_clauses = t.encoding_clauses;
      }
end

let tally (cfg : Types.config) = Tally.create ~emit:(event cfg) ()

let card_event (cfg : Types.config) ~arity ~bound =
  event cfg (Obs.Event.Card_constraint { arity; bound })
