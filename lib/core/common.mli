(** Internal helpers shared by the MaxSAT algorithms. *)

val require_unit_weights : Msu_cnf.Wcnf.t -> unit
(** @raise Invalid_argument when a soft clause has weight <> 1; the
    unweighted algorithms of the paper call this up front. *)

val over_deadline : Types.config -> bool
(** Any budget breached — polls the shared guard when one is installed,
    otherwise samples the clock against [deadline] directly. *)

val guard : Types.config -> Msu_guard.Guard.t
(** The installed shared guard, or a fresh one from the budget fields. *)

val with_guard : Types.config -> Types.config
(** Ensure [cfg.guard] {e and} [cfg.progress] are populated
    (idempotent); called once at each solve entry so every phase below
    polls the same guard and every published bound is filtered through
    the same monotone progress cell. *)

val event : Types.config -> Msu_obs.Obs.Event.kind -> unit
(** Emit a typed event into the config's sink, stamped with
    [cfg.solve_id] and a monotonic timestamp. *)

val trace : Types.config -> (unit -> string) -> unit
(** Lazily formatted {!Msu_obs.Obs.Event.Note} — the narration channel;
    the thunk only runs on a live sink. *)

val note_lb : Types.config -> int -> unit
(** Publish an improved lower bound to the shared progress cell,
    emitting an [Lb] event only when it actually improves — timelines
    stay monotone even when algorithms re-publish. *)

val note_ub : Types.config -> int -> bool array option -> unit
(** Publish an improved upper bound (and its model); emits [Ub] on
    improvement.  Also the crash-fault injection point.  Every improved
    bound forces a guard tick so checkpoint writers flush it before the
    algorithm can die. *)

val attach_share : Types.config -> Msu_sat.Solver.t -> unit
(** Wire the config's clause-sharing endpoints (if any) into a solver:
    share-safe learnts flow out through [sh_export], and foreign clauses
    from [sh_drain] are imported at restart boundaries.  Callers must
    add the instance's hard clauses with [~shareable:true] so the
    share-safety taint tracking has its axioms.  No-op when
    [cfg.share = None]. *)

val attach_tracer : Types.config -> Msu_sat.Solver.t -> unit
(** Hand the config's phase tracer to a solver so its internal phases
    (reduce_db, restart boundaries, inprocess passes, propagate/analyze
    aggregates) nest under the algorithm's spans.  No-op when
    [cfg.spans] is disabled.  Call right after creating a solver. *)

val span : Types.config -> string -> (unit -> 'a) -> 'a
(** Run one algorithm phase inside a [cfg.spans] span; closes on raise. *)

val sat_call_span : Types.config -> Msu_sat.Solver.t -> (unit -> 'a) -> 'a
(** Like {!span} with phase ["sat_call"], annotated with the call's
    (conflicts, propagations) delta read from the solver's counters. *)

val setup_inprocess : Types.config -> Msu_sat.Solver.t -> unit
(** Enable (or not, per [cfg.inprocess]) the solver's automatic
    restart-boundary inprocessing pass.  Call right after creating a
    persistent solver. *)

val soft_index : base:int -> n_soft:int -> Msu_cnf.Lit.t -> int option
(** The soft clause whose selector literal [a] names, on a solver whose
    [n_soft] soft clauses went in through [Solver.add_softs] at [base];
    [None] for any other variable. *)

val load_rewritable_softs : Msu_sat.Solver.t -> Msu_cnf.Wcnf.t -> int
(** Load the soft clauses for an algorithm that rewrites them under
    fresh selectors (Fu & Malik, WPM1): freeze every variable they name,
    then [Solver.add_softs], so soft clause [i]'s first selector is
    variable [base + i] and retiring it retires the clause.  Returns
    [base]. *)

val set_owner : int Msu_cnf.Vec.t -> Msu_cnf.Lit.t -> int -> unit
(** [set_owner owners sel i] records that selector [sel] guards soft
    clause [i] in a table indexed by variable, growing it with [-1]
    (no soft clause); [-1] as [i] clears the entry. *)

val owner : int Msu_cnf.Vec.t -> Msu_cnf.Lit.t -> int option
(** The soft clause an assumption's variable guards in such a table. *)

val frozen_var : Msu_sat.Solver.t -> unit -> Msu_cnf.Lit.var
(** Fresh-variable source for encoding sinks: every variable is frozen
    on creation, so cardinality-encoding internals and outputs are
    never eliminated or probed. *)

val maybe_inprocess : Types.config -> Msu_sat.Solver.t -> unit
(** Run an explicit inprocessing pass on a persistent solver between
    core rounds, when [cfg.inprocess] is set and enough structural
    change accumulated since the last pass.  Guard-polled; a deadline
    aborts the pass cleanly. *)

val checkpoint_incumbent :
  Msu_cnf.Wcnf.t -> Msu_guard.Checkpoint.t -> (int * bool array) option
(** Re-verify a checkpointed incumbent against an instance: truncate the
    model to the instance's variables and require it to re-cost to
    exactly the checkpointed ub.  [None] on any mismatch. *)

val resume_incumbent : Types.config -> Msu_cnf.Wcnf.t -> (int * bool array) option
(** The checkpointed incumbent from [cfg.resume], re-verified against
    this instance ([cost_of_model w m = Some ub]); publishes it and
    returns the [(cost, model)] to seed the algorithm's incumbent with.
    [None] when there is no checkpoint or verification fails. *)

val card_event : Types.config -> arity:int -> bound:int -> unit
(** Record a cardinality constraint encoded over [arity] literals. *)

val finish :
  Types.config ->
  t0:float ->
  stats:Types.stats ->
  Types.outcome ->
  bool array option ->
  Types.result
(** Assemble the result; also closes the event timeline (publishes the
    outcome's final bounds through the monotone filter, so streams end
    at the certified bracket) and feeds the process-wide solve metrics
    ([msu_solves_total], [msu_sat_calls_total], …). *)

(** A mutable statistics accumulator threaded through an algorithm run.
    Counting and event emission share call sites, so the event stream
    and the [stats] record can never disagree. *)
module Tally : sig
  type t

  val create : ?emit:(Msu_obs.Obs.Event.kind -> unit) -> unit -> t
  (** Prefer {!val:tally}, which wires [emit] to the config's sink. *)

  val sat_call : t -> unit
  (** Count one SAT call and emit [Sat_call]. *)

  val core : ?size:int -> ?fresh_blocking:int -> t -> unit
  (** Count one extracted core and emit [Core {size; fresh_blocking}];
      also feeds the [msu_core_size] histogram. *)

  val blocking_var : t -> unit
  val encoded : t -> int -> unit
  val snapshot : t -> Types.stats
end

val tally : Types.config -> Tally.t
(** A tally whose events flow into [cfg.sink] under [cfg.solve_id]. *)
