(** A CDCL SAT solver with unsatisfiable-core extraction.

    The engine is a conventional conflict-driven clause-learning solver in
    the MiniSAT lineage: two-watched-literal propagation, first-UIP
    conflict analysis with clause minimization, VSIDS branching with phase
    saving, Luby restarts and activity-based learnt-clause deletion.

    Two features matter for the MaxSAT algorithms built on top:

    {ul
    {- {b Resolution-trace cores.}  Clauses added with [~id] are tracked.
       When the solver refutes the formula outright (no assumptions
       involved), {!unsat_core} returns the set of tracked clause ids
       used by the refutation, obtained by walking the antecedent graph
       recorded during conflict analysis.  This reproduces the MiniSAT
       1.14 core-extractor interface the msu4 paper relied on.}
    {- {b Assumptions.}  [solve ~assumptions] solves under a conjunction
       of unit assumptions; on failure {!conflict_assumptions} returns an
       inconsistent subset (MiniSAT's [analyzeFinal]).}}

    The solver is incremental: clauses may be added between [solve]
    calls.  Clauses cannot be rewritten in place, but a clause added
    with [~selector] can be {e retired} — permanently disabled by
    unit-asserting its selector ({!retire_selector}) — which lets the
    MaxSAT layer relax a soft clause by adding its rewritten form under
    a fresh selector instead of rebuilding the solver, keeping every
    learnt clause valid across iterations. *)

type t

type result =
  | Sat  (** A model was found; query it with {!model_value}. *)
  | Unsat  (** Refuted.  See {!unsat_core} / {!conflict_assumptions}. *)
  | Unknown  (** A budget (deadline, conflicts, propagations) ran out. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  deleted_clauses : int;
  compactions : int;  (** clause-arena compaction passes *)
}

val create : ?track_proof:bool -> ?debug:bool -> unit -> t
(** [track_proof] (default [true]) records antecedents of learnt clauses
    so that {!unsat_core} works; disable to save memory when cores are
    not needed.  [debug] (default [false]) runs {!check_invariants}
    after every arena compaction. *)

val new_var : t -> Msu_cnf.Lit.var
val ensure_vars : t -> int -> unit
val num_vars : t -> int

val num_clauses : t -> int
(** Problem clauses currently in the database (retired clauses are
    counted until their lazy removal). *)

val num_learnts : t -> int
(** Learnt clauses currently alive — the ones an incremental caller
    carries over to its next [solve]. *)

val add_clause :
  ?id:int -> ?shareable:bool -> ?selector:Msu_cnf.Lit.t -> t -> Msu_cnf.Lit.t array -> unit
(** Adds a clause.  [id >= 0] marks it as tracked for core extraction;
    ids need not be distinct from variable numbering but must be unique
    among tracked clauses.  Duplicate literals are removed; tautologies
    are dropped.  May set the solver unsatisfiable immediately (see
    {!okay}).

    [shareable] (default [false]) marks the clause as an axiom valid for
    the {e whole instance} — in the MaxSAT setting, an original hard
    clause, as opposed to relaxed softs, cardinality encodings or
    retirement units, which are artifacts of one solver's current
    relaxation.  Learnt clauses derived from shareable axioms alone are
    tagged share-safe and offered to the {!on_export} hook; everything
    else never leaves this solver.

    With [~selector:s] the clause is stored as [lits \/ s] and
    registered under [s]'s variable: solving with the assumption
    [neg s] enforces the original clause, while {!retire_selector}
    permanently disables the whole group.  The selector variable should
    be fresh (used by no other clause except as a selector).  Selector
    clauses are never shareable. *)

val add_clause_l : ?id:int -> t -> Msu_cnf.Lit.t list -> unit

val add_softs : t -> int -> (int -> Msu_cnf.Lit.t array) -> int
(** [add_softs s n get] loads [n] soft clauses and returns [base], the
    variable count on entry.  Clause [i] ([get i]) is stored as
    [get i \/ sel_i] under the fresh, frozen selector
    [sel_i = Lit.pos (base + i)], so a selector's soft clause is
    [var - base].  The clause database, literal order included, and the
    selector groups are the ones {!new_var} and
    [add_clause ~selector:sel_i] of [get i] for each clause in turn
    would build: duplicate literals, tautologies, level-0 assignments
    and eliminated variables are treated the same, and
    {!retire_selector} on [sel_i] retires clause [i].  (A variable
    re-introduced from elimination enters the decision order after the
    selectors rather than between them.)  [get] is called twice per
    clause: once to size the batch, once to load it.  Runs inside a
    ["load"] span on the solver's tracer.
    @raise Invalid_argument if a literal of [get i] names a variable
    [>= base]; the solver is then only partly loaded. *)

val retire_selector : t -> Msu_cnf.Lit.t -> unit
(** [retire_selector s sel] permanently disables every clause registered
    under [sel]: the selector literal is unit-asserted, satisfying the
    group, and the clauses are marked removed so the watcher lists drop
    them lazily.  Learnt clauses remain valid: conflict analysis under
    the assumption [neg sel] can only introduce [sel] with the same sign
    the unit asserts.  Call at decision level 0 (between [solve]s). *)

val okay : t -> bool
(** [false] once the clause set has been refuted at top level. *)

val on_event : t -> (Msu_obs.Obs.Event.kind -> unit) -> unit
(** Install the observability hook: the solver reports [Restart] and
    [Reduce_db] through it (the caller stamps ids/timestamps).  Replaces
    any previous hook; defaults to a no-op. *)

val set_tracer : t -> Msu_obs.Obs.Span.t -> unit
(** Install a phase tracer (default {!Msu_obs.Obs.Span.disabled}).
    When live, [reduce_db], restart-boundary work and inprocess passes
    become spans, and each solve call retro-emits two aggregate spans
    ("propagate"/"analyze") carrying the call's accumulated self-time
    in the hot sub-phases — per-call spans there would dwarf the trace
    and the hot loop. *)

(** {2 Portfolio clause sharing}

    Workers racing on the same instance exchange short, low-LBD learnt
    clauses.  Soundness rests on a taint discipline: every clause
    carries a {e share-safe} bit — set for axioms added with
    [~shareable:true] (the instance's hard clauses) and for learnts
    whose entire derivation (conflict antecedents, minimization reasons,
    resolved level-0 units) is share-safe.  A share-safe clause is
    implied by the hard clauses alone, so it holds for the instance
    itself, independent of any worker's relaxation variables, selectors
    or cardinality encodings — which is exactly what makes it sound to
    attach in a peer. *)

val on_export : t -> (lbd:int -> Msu_cnf.Lit.t array -> unit) -> unit
(** Install the learnt-clause export hook: called (synchronously, from
    conflict analysis) for every share-safe learnt with LBD <= 4 and at
    most 8 literals.  The array is fresh — the callee owns it. *)

val set_importer : t -> (unit -> Msu_cnf.Lit.t array list) -> unit
(** Install the import source.  The solver drains it at decision level 0
    only — on [solve] entry and at every restart boundary — and attaches
    each clause with {!import_clause}, so watcher invariants are never
    touched mid-search. *)

val import_clause : t -> Msu_cnf.Lit.t array -> unit
(** Attach a clause learnt by a peer solving the same instance.  The
    caller asserts the clause is implied by the instance's hard clauses.
    Must be called at decision level 0.  The clause is attached as a
    share-safe learnt (the reduce-db policy may drop it again); empty or
    level-0-falsified imports refute the solver ({!okay} turns false);
    unit imports propagate immediately.  A no-op when a DRUP log is
    attached (foreign clauses would invalidate the certificate) or when
    the solver is already refuted. *)

val exported_clauses : t -> int
(** Learnt clauses offered to the {!on_export} hook so far. *)

val imported_clauses : t -> int
(** Foreign clauses accepted by {!import_clause} so far (tautologies and
    duplicates within the clause removed before counting). *)

val solve :
  ?assumptions:Msu_cnf.Lit.t array ->
  ?deadline:float ->
  ?conflict_budget:int ->
  ?guard:Msu_guard.Guard.t ->
  t ->
  result
(** [deadline] is an absolute [Unix.gettimeofday]-style timestamp;
    [conflict_budget] bounds the number of conflicts of this call.
    [guard] is a shared cross-phase budget: this call charges its
    conflicts and propagations against it and answers [Unknown] as soon
    as it trips (the per-call [deadline]/[conflict_budget] still apply
    independently). *)

val model_value : t -> Msu_cnf.Lit.var -> bool
(** Valid after [Sat].  Unassigned variables read as [false]. *)

val model : t -> bool array
(** The full model, indexed by variable. *)

val unsat_core : t -> int list
(** Valid after an [Unsat] answer that did not involve assumptions (or
    after {!okay} became false).  The tracked ids of a refuted subset,
    sorted increasingly.
    @raise Invalid_argument if no refutation is recorded or proof
    tracking is off. *)

val conflict_assumptions : t -> Msu_cnf.Lit.t list
(** Valid after an [Unsat] answer caused by the assumptions: a subset of
    the assumptions whose conjunction with the clauses is inconsistent. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {2 Inprocessing}

    Between-call (and restart-boundary) simplification of the clause
    database: bounded variable elimination, subsumption with
    self-subsuming resolution, and failed-literal probing (see
    {!Inprocess} for the pass engine).  MaxSAT safety rests on a
    frozen-variable discipline: activation selectors are frozen
    automatically by [add_clause ~selector]; algorithms must {!freeze}
    every other variable with meaning outside the solver (blocking and
    relaxation variables, totalizer outputs — in practice every
    variable they create).  Frozen and currently-assumed variables are
    never eliminated or probed.

    Eliminated variables keep a resolution witness (their original
    clauses), so {!model} is extended transparently and a later
    {!add_clause}, {!import_clause} or [solve] assumption naming an
    eliminated variable re-introduces it from the witness before
    proceeding.  Proof tracking stays exact — every resolvent cites its
    two parents — so {!unsat_core} remains valid across passes. *)

val freeze : t -> Msu_cnf.Lit.var -> unit
(** Mark a variable untouchable by elimination and probing.  Grows the
    variable table if needed.  Irreversible. *)

val frozen : t -> Msu_cnf.Lit.var -> bool

val is_eliminated : t -> Msu_cnf.Lit.var -> bool
(** The variable is currently eliminated (its witness is live). *)

val set_inprocess : t -> bool -> unit
(** Enable the automatic restart-boundary pass inside [solve] (off by
    default; refused while a DRUP log is attached).  Explicit
    {!inprocess} calls work regardless of this switch. *)

val inprocess :
  ?limits:Inprocess.limits ->
  ?guard:Msu_guard.Guard.t ->
  ?min_dirty:int ->
  t ->
  Inprocess.stats option
(** Run one inprocessing pass now.  Returns [None] when refused — a
    DRUP log is attached, the solver is already refuted, or a search is
    in progress (decision level > 0).  With [min_dirty] (default 0),
    returns zero stats without running unless at least that many
    structural changes (clause additions, retirements, imports)
    happened since the last pass.  [guard] is polled between work items
    so a deadline aborts the pass cleanly.  May set the solver
    unsatisfiable ({!okay} turns false) when simplification refutes the
    formula. *)

(** {2 Clause arena}

    Clauses live in a flat int arena addressed by integer offsets;
    retiring or deleting a clause only marks it, and a compaction pass
    (automatic when over 20% of the arena is garbage, or explicit via
    {!gc_arena}) copies the survivors, rewrites every offset and
    rebuilds the watcher lists — reclaiming both the arena words and the
    lazily-dropped watchers of retired clauses. *)

val arena_words : t -> int
(** Words of the arena currently in use (live + garbage). *)

val arena_wasted : t -> int
(** Words owned by removed clauses, reclaimed by the next compaction. *)

val live_watchers : t -> int
(** Total watcher entries across all literals, including stale entries
    for removed clauses awaiting lazy drop or compaction. *)

val gc_arena : t -> unit
(** Force a compaction (no-op when nothing is wasted).  Call at decision
    level 0, between [solve]s. *)

val check_invariants : ?strict:bool -> t -> unit
(** Validate the arena/watcher invariants: every clause and watcher
    offset in bounds, live clauses of size >= 2 watched exactly twice
    under the negations of their slot-0/1 literals, trail reasons
    asserting their literal.  [strict] additionally requires all
    lazily-dropped garbage to be gone (valid right after a compaction).
    @raise Failure describing the first violation found. *)

val sink : t -> Msu_cnf.Sink.t
(** A clause sink backed by this solver: fresh variables come from
    {!new_var}, clauses go to untracked {!add_clause}. *)

(** {2 Literal orderings}

    The sorts every add path runs, exposed so tests can hold them to the
    closure sorts they replace.  Literals are packed ([Lit.to_int]). *)

val sort_by_key : int array -> int array -> int -> unit
(** [sort_by_key keys vals n] sorts [vals.(0 .. n - 1)] by increasing
    [keys], moving each key with its value.  The result is exactly the
    permutation [Array.sort (fun x y -> Int.compare (key x) (key y))]
    gives (the stdlib's unstable heap sort), with no closure, no
    exception and no allocation.  [keys] and [vals] may be one array.
    @raise Invalid_argument if [n] exceeds either length. *)

val watch_order : t -> int array -> int -> unit
(** [watch_order s lits n] orders [lits.(0 .. n - 1)] as the solver
    does before watching a new clause: the permutation of
    [Array.sort (fun a b -> Int.compare (score b) (score a))], where a
    literal's score under the level-0 assignment is 2 when true, 1 when
    unassigned and 0 when false. *)

val distinct : int array -> int -> int
(** [distinct lits n] sorts [lits.(0 .. n - 1)] increasingly and drops
    duplicates in place.  Returns the number of distinct literals, now
    at the front, or [-1] when the clause is a tautology. *)

val set_drup : t -> Drup.log -> unit
(** Start logging learnt-clause additions and deletions (and the final
    empty clause) into [log], in DRUP order.  Attach the log before
    adding clauses so that nothing learnt escapes it; the log can then
    be validated against the original formula with {!Drup.check}. *)
