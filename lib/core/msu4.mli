(** The msu4 core-guided MaxSAT algorithm (Marques-Silva & Planes,
    DATE 2008), Algorithm 1 of the paper.

    msu4 alternates SAT calls on a working formula [phi_W]:

    {ul
    {- {b UNSAT}: extract an unsatisfiable core.  Every not-yet-relaxed
       soft clause in the core receives one fresh blocking variable
       (each soft clause carries {e at most one} — the algorithm's key
       difference from Fu & Malik's msu1).  Optionally, a constraint
       "at least one of the new blocking variables is true" is added
       (line 19 of Algorithm 1; see {!Types.config.core_geq1}).  If the
       core contains no unrelaxed soft clause, the current upper bound
       is returned as the optimum.}
    {- {b SAT}: the model's cost refines the upper bound, and the
       cardinality constraint "fewer blocking variables than the model
       used" (line 30) is added.  When the lower bound — the number of
       UNSAT iterations — meets the upper bound, the optimum is
       reached.}}

    Unlike the paper, which re-encodes [phi_W] into a fresh solver
    after every core, one solver lives for the whole solve: soft
    clauses sit under selectors and the at-most bound is an assumption
    on an incremental totalizer (Martins et al., CP 2014).
    {!Types.config.encoding} is not read, so the paper's v1 (BDD) and
    v2 (sorting network) run the same search here.

    This implementation extends the paper to {e partial} MaxSAT in the
    standard way (hard clauses are never relaxed and never appear in
    the reported cores); weights must be 1. *)

val solve : ?config:Types.config -> Msu_cnf.Wcnf.t -> Types.result
(** @raise Invalid_argument on non-unit soft weights. *)
