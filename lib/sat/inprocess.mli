(** MaxSAT-aware inprocessing passes over the solver's flat clause arena.

    The engine implements bounded variable elimination, subsumption +
    self-subsuming resolution, and failed-literal probing, but owns no
    solver state: it drives a {!view} of closures supplied by
    {!Solver.inprocess}, which performs the actual arena surgery
    (clause removal, resolvent installation, witness recording, probe
    propagation).  Keeping the pass logic here and the mutation
    primitives in [Solver] avoids a module cycle and keeps each side
    independently testable.

    MaxSAT safety is the caller's contract: the view's [protected]
    predicate must cover every activation selector, soft/blocking
    variable, totalizer output, and currently-assumed variable — the
    engine never eliminates or probes a protected variable. *)

type limits = {
  max_occ : int;
      (** Skip elimination of variables with more than this many
          occurrences (positive + negative). *)
  max_resolvent : int;  (** Skip eliminations producing a resolvent longer than this. *)
  max_probes : int;  (** Probe at most this many variables per pass. *)
  rounds : int;  (** Subsumption/elimination sweeps per pass. *)
  max_subsume_steps : int;
      (** Fuel for the subsumption/strengthening phase of each sweep:
          total candidate-clause inspections before the phase stops.
          Without it the sweep is quadratic in the occurrence-list
          lengths and a single pass on a large dense instance can eat a
          whole solve budget. *)
}

val default_limits : limits

type stats = {
  mutable passes : int;
  mutable eliminated_vars : int;
  mutable subsumed_clauses : int;
  mutable strengthened_lits : int;
  mutable failed_literals : int;
  mutable probes : int;
}

val zero_stats : unit -> stats

(** The solver surface the engine runs against.  Variables are plain
    ints, literals are packed ints ([var * 2 + sign]), clauses are
    arena offsets ("crs").  All closures observe/mutate decision level
    0 state only. *)
type view = {
  num_vars : unit -> int;
  ok : unit -> bool;  (** False once a top-level contradiction is recorded. *)
  lit_value : int -> int;  (** Packed literal -> 1 true / 0 false / -1 unassigned. *)
  protected : int -> bool;  (** Variable is frozen or currently assumed. *)
  eliminated : int -> bool;  (** Variable was eliminated by an earlier pass. *)
  iter_problem : (int -> unit) -> unit;
      (** Iterate live problem (non-learnt) clause refs. *)
  clause_lits : int -> int array;  (** Fresh copy of a clause's literals. *)
  locked : int -> bool;  (** Clause is the reason of a level-0 propagation. *)
  remove_satisfied : int -> unit;  (** Drop a clause satisfied at level 0. *)
  subsume : int -> unit;  (** Drop a clause subsumed by a live clause. *)
  strengthen : cr:int -> by:int -> int array -> int;
      (** Replace clause [cr] with the given (sorted, strictly shorter)
          literals, recording a resolution step with [by] for the proof
          DAG.  Returns the new clause ref, or [-1] when the result was
          installed as a unit/empty clause instead. *)
  commit_elim : int -> (int * int array) list -> (int * int * int array) list -> int list;
      (** [commit_elim v occs resolvents]: eliminate variable [v] —
          remove every clause in [occs] (given with their literals, for
          the model-restore witness) and install each resolvent
          [(cr_pos, cr_neg, lits)] with a proof step resolving the two
          parents.  Returns the clause refs of the installed resolvents
          (units and empty clauses are absorbed into the trail and not
          returned); the engine must treat them as live problem
          clauses. *)
  probe : int -> bool;
      (** Probe a packed literal with one decision + propagation;
          returns [true] if it failed (its negation was learned). *)
  activity : int -> float;  (** VSIDS activity of a variable, for probe ordering. *)
  stop : unit -> bool;
      (** Deadline/guard poll; the engine aborts cleanly between work
          items when this returns [true]. *)
}

val run : ?tracer:Msu_obs.Obs.Span.t -> view -> limits -> stats
(** Run one inprocessing pass: [rounds] sweeps of subsumption,
    self-subsuming resolution and bounded variable elimination over the
    problem clauses, followed by failed-literal probing of up to
    [max_probes] unassigned, unprotected variables in decreasing
    activity order.  Metrics counters in the default {!Msu_obs.Obs.Metrics}
    registry are bumped as a side effect.  When [tracer] is live, each
    phase (subsume/bve/probe) is a span annotated with fuel spent and
    changes made. *)
