(** Generalized totalizer: CNF encoding of pseudo-Boolean sums.

    Extends the unary totalizer to weighted literals (Joshi, Martins &
    Manquinho, CP'15): every tree node carries one output literal per
    {e attainable} partial sum, and merge clauses propagate
    "left >= a and right >= b implies node >= a+b".  Asserting the
    negations of the outputs above [k] enforces [sum w_i l_i <= k].

    Sums are capped at [cap] during construction: every attainable value
    above the cap collapses onto it, which keeps the encoding small when
    only bounds below [cap] will ever be asserted. *)

type t

val build :
  ?guard:Msu_guard.Guard.t -> Msu_cnf.Sink.t -> cap:int -> (Msu_cnf.Lit.t * int) array -> t
(** [build sink ~cap weighted_lits] emits the merge clauses (upper-bound
    direction).  Weights and [cap] must be positive.  [guard] wraps the
    sink with {!Card.guarded_sink} so a blow-up cannot starve a deadline.
    @raise Invalid_argument otherwise. *)

val outputs : t -> (int * Msu_cnf.Lit.t) list
(** Ascending [(value, literal)] pairs: the literal is implied whenever
    the weighted sum reaches [value].  Values above the build cap are
    collapsed onto the cap. *)

val at_most_assumptions : t -> int -> Msu_cnf.Lit.t list
(** Literals to assume for "sum <= k": the negations of every output
    above [k].  Empty when the bound is vacuous.  Complete only for
    [k < cap] (above the cap the collapsed outputs cannot separate
    values).  @raise Invalid_argument for negative [k]. *)

val at_most :
  ?guard:Msu_guard.Guard.t -> Msu_cnf.Sink.t -> (Msu_cnf.Lit.t * int) array -> int -> unit
(** One-shot [build] (capped at [k+1]) plus the bound as unit clauses.  [k < 0]
    emits the empty clause; a bound at or above the total weight emits
    nothing. *)
