(** Front door of the MaxSAT library: one name per algorithm, one
    [solve] dispatcher.

    The algorithms (all exact):

    {ul
    {- {!Msu4} — the paper's contribution.  [Msu4_v1] and [Msu4_v2]
       keep the names of the paper's two versions and set
       [config.encoding] to BDD and sorting networks, but msu4 counts
       with an incremental totalizer and never reads the encoding, so
       both run the same search (DESIGN.md §7).}
    {- {!Msu1}/{!Msu2}/{!Msu3} — the earlier core-guided algorithms
       discussed in the paper's related work.}
    {- {!Oll} — the incremental soft-cardinality algorithm the msu line
       evolved into (RC2 lineage); included as a forward-looking
       extension.}
    {- {!Wpm1} — the weighted generalization of msu1 (weight
       splitting), covering weighted partial MaxSAT.}
    {- [Pbo_linear]/[Pbo_binary] — the PBO formulation baseline
       (minisat+-style); weighted via the generalized totalizer.}
    {- [Branch_bound] — the maxsatz-style branch and bound baseline.}
    {- [Brute] — exhaustive reference for testing.}} *)

type algorithm =
  | Msu4_v1  (** msu4 with [config.encoding = Bdd]; same search as [Msu4_v2] *)
  | Msu4_v2  (** msu4 with [config.encoding = Sortnet] *)
  | Msu1
  | Msu2
  | Msu3
  | Oll  (** incremental core-guided with soft cardinality sums *)
  | Wpm1  (** weighted Fu & Malik; accepts arbitrary weights *)
  | Pbo_linear
  | Pbo_binary
  | Branch_bound
  | Brute
  | Sls
      (** WalkSAT-style stochastic local search ({!Local_search});
          incomplete — answers [Bounds], streaming every improving
          incumbent, and is used by the portfolio as an upper-bound
          seeder.  Under a guard or deadline it flips until the budget
          trips; a bare solve stops after its flip budget. *)

(** The {e exact} algorithms — each proves optima, so callers may demand
    agreement across the list.  [Sls] is excluded (incomplete). *)
val all_algorithms : algorithm list
val algorithm_to_string : algorithm -> string
val algorithm_of_string : string -> algorithm option
val describe : algorithm -> string

val solve :
  ?config:Types.config -> algorithm -> Msu_cnf.Wcnf.t -> Types.result
(** Dispatches; [Msu4_v1]/[Msu4_v2] override [config.encoding] with
    their fixed encoding.  No algorithm dispatched here reads it. *)

val solve_supervised :
  ?config:Types.config -> algorithm -> Msu_cnf.Wcnf.t -> Types.result
(** {!solve} under {!Msu_guard.Guard.supervise}: installs a shared guard
    and progress cell, and converts [Stack_overflow], [Out_of_memory],
    or any unexpected exception into a [Crashed] outcome carrying the
    best bounds (and model) the algorithm published before dying.
    Budget interrupts still surface as [Bounds] and caller errors
    ([Invalid_argument]) still raise.  Armed {!Msu_guard.Fault} hooks
    (tests only) corrupt the result here, downstream of the solve. *)
