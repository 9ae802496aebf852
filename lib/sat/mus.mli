(** Minimal unsatisfiable subset (MUS) extraction.

    The msu4 paper builds on the literature relating maximally
    satisfiable and minimally unsatisfiable subformulas (Kullmann;
    de la Banda, Stuckey & Wazny; Liffiton & Sakallah — its refs
    [15, 16, 7, 19]).  This module provides the standard
    {e deletion-based} extractor: starting from any unsatisfiable
    subset (e.g. a solver core), try dropping one clause at a time; a
    clause whose removal keeps the subset unsatisfiable is deleted
    permanently, and each refutation's own core prunes the candidate
    set further.

    The result is {e minimal} (every clause is necessary), not minimum
    cardinality. *)

val extract : ?deadline:float -> Msu_cnf.Formula.t -> int list option
(** Refute the whole formula, then shrink the returned core to a
    minimal unsatisfiable set of clause indices.  [None] when the
    formula is satisfiable or the deadline interrupts the process
    (partial progress is discarded). *)

val is_unsat_subset : Msu_cnf.Formula.t -> int list -> bool
(** Check a subset by a fresh solver run (no budget). *)
