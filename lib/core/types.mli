(** Common result and configuration types for the MaxSAT algorithms.

    All algorithms report in {e cost} terms: the minimum total weight of
    falsified soft clauses.  For a plain MaxSAT instance with [m]
    clauses, the paper's "MaxSAT solution" (maximum satisfied clauses)
    is [m - cost]; use {!max_satisfied}. *)

type outcome =
  | Optimum of int  (** proved minimal cost *)
  | Bounds of { lb : int; ub : int option }
      (** budget ran out; [lb <= cost <= ub] ([ub = None] when no model
          was found yet) *)
  | Hard_unsat  (** the hard clauses alone are unsatisfiable *)
  | Crashed of { reason : string; lb : int; ub : int option }
      (** the solve died ([Stack_overflow], [Out_of_memory], a bug…) but
          the supervisor salvaged the bounds published before the crash *)

type stats = {
  sat_calls : int;  (** number of SAT-solver invocations *)
  cores : int;  (** unsatisfiable cores extracted *)
  blocking_vars : int;  (** relaxation variables introduced *)
  encoding_clauses : int;  (** clauses emitted by cardinality encoders *)
}

type result = {
  outcome : outcome;
  model : bool array option;
      (** best model found; achieves the optimum (or the [ub]) *)
  stats : stats;
  elapsed : float;  (** wall-clock seconds *)
}

type share = {
  sh_export : lbd:int -> Msu_cnf.Lit.t array -> unit;
      (** receives every share-safe learnt the solver is willing to
          export (LBD <= 4, length <= 8, derived from hard clauses
          alone) *)
  sh_drain : unit -> Msu_cnf.Lit.t array list;
      (** returns foreign clauses to import, drained at restart
          boundaries; must be non-blocking *)
}
(** Portfolio clause-sharing endpoints.  Clauses crossing them must be
    implied by the instance's hard clauses alone — the SAT layer's
    share-safety tracking guarantees this for exports, and importers
    trust it. *)

type config = {
  deadline : float;
      (** absolute timestamp ([Unix.gettimeofday] scale); [infinity] for
          no limit *)
  max_conflicts : int option;
      (** total SAT-conflict budget across all calls of the solve *)
  max_propagations : int option;  (** total unit-propagation budget *)
  max_memory_words : int option;
      (** live-heap budget, in OCaml heap words ({!Gc.quick_stat}) *)
  encoding : Msu_card.Card.encoding;
      (** cardinality encoding of [Lexico]'s level hardening, its one
          reader: no algorithm [Maxsat.solve] dispatches reads it, so
          msu4-v1 ([Bdd]) and msu4-v2 ([Sortnet]) run the same search *)
  core_geq1 : bool;
      (** msu4's optional "at least one new blocking variable" constraint
          (Algorithm 1, line 19) *)
  inprocess : bool;
      (** opt-in (default [false]): let the persistent solver simplify its
          clause database between core rounds and at restart boundaries
          (bounded variable elimination, subsumption, failed-literal
          probing); selectors and encoding variables are frozen, so
          optima are unaffected.  Off by default because on both of the
          paper's suites the passes cost more wall time than they save,
          for every algorithm ([results/BENCH_inprocess.json]).  Ignored
          under DRUP logging *)
  sink : Msu_obs.Obs.sink;
      (** where the solve publishes its typed event stream ({!Msu_obs.Obs.Event});
          [Obs.null] disables observability at one branch per event *)
  solve_id : int;
      (** stamped into every emitted event so multiplexed streams (one
          pipe, many workers) demultiplex into per-solve timelines *)
  guard : Msu_guard.Guard.t option;
      (** pre-built guard to poll instead of deriving one from the budget
          fields; lets a harness share one guard across a whole solve and
          read its tripped reason afterwards *)
  progress : Msu_guard.Guard.Progress.cell option;
      (** shared cell where algorithms publish every improved bound, so a
          crash still surfaces the work done so far *)
  resume : Msu_guard.Checkpoint.t option;
      (** warm-resume checkpoint from a previous (crashed) attempt: its
          bracket is installed as external bounds on the guard and its
          incumbent model is re-verified and seeded into algorithms that
          keep one, so a retry never redoes certified work *)
  share : share option;
      (** clause-sharing endpoints provided by the portfolio; algorithms
          wire them into their solvers via [Common.attach_share], [None]
          for standalone solves *)
  spans : Msu_obs.Obs.Span.t;
      (** phase tracer for span-based profiling; [Span.disabled] (the
          default) keeps every instrumentation point a near-free branch *)
}

val default_config : config
(** No deadline or budgets, [Sortnet] encoding (the paper's stronger
    v2), [core_geq1 = true], inprocessing off, null event sink, no
    shared guard. *)

val empty_stats : stats

val merge_stats : stats -> stats -> stats
(** Field-wise sum; the portfolio reports the work of all its workers. *)

val outcome_bounds : outcome -> int * int option
(** The [lb, ub] bracket an outcome establishes ([c, Some c] for a
    proved optimum; [(0, None)] for [Hard_unsat], whose cost bracket is
    vacuous). *)

val outcome_codec : outcome Msu_frame.Frame.codec
(** Service replies carry it.  Reading refuses a crossed bracket. *)

val result_codec : result Msu_frame.Frame.codec
(** The result frame of a service or portfolio worker. *)

val max_satisfied : Msu_cnf.Wcnf.t -> result -> int option
(** [m - cost] when the optimum is known (plain-MaxSAT reading). *)

val verify_model : Msu_cnf.Wcnf.t -> result -> bool
(** When [result] carries a model and claims an optimum or upper bound,
    check that the model's true cost matches the claim.  Results without
    a model verify trivially. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_result : Format.formatter -> result -> unit
