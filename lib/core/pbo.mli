(** The PBO formulation of MaxSAT (section 2.2 of the msu4 paper).

    Every soft clause receives a blocking variable up front; the
    objective "minimize the number of blocking variables assigned 1" is
    then solved SAT-style the way minisat+ does: find a model, constrain
    the cost below it, repeat until UNSAT ([`Linear]); or bisect on the
    cost with a reusable totalizer and assumption literals
    ([`Binary]).

    This is the baseline the paper labels "pbo": correct, simple, and —
    as Table 1 shows — handicapped on industrial instances by the huge
    number of blocking variables (one per clause, dwarfing the original
    variable count). *)

val solve :
  ?config:Types.config ->
  ?search:[ `Linear | `Binary ] ->
  Msu_cnf.Wcnf.t ->
  Types.result
(** Default search is [`Linear] (minisat+'s default minimization
    strategy), with each bound an assumption over one reusable counter:
    the incremental totalizer for unit weights, the generalized
    totalizer ({!Msu_card.Gte}) otherwise.  [`Binary] bisects over one
    reusable generalized totalizer with assumption literals.  Arbitrary
    positive weights are accepted. *)
