(** CNF formulas.

    A formula is a bag of clauses over variables [0 .. num_vars - 1].
    Clauses are arrays of literals; the empty clause is permitted (it
    makes the formula trivially unsatisfiable).  The clause order is the
    insertion order and clause indices are stable, which the MaxSAT
    algorithms rely on to name clauses in unsatisfiable cores. *)

type t

val create : unit -> t
(** An empty formula with no variables. *)

val num_vars : t -> int
(** One more than the largest variable mentioned (or set by
    {!ensure_vars}). *)

val num_clauses : t -> int

val ensure_vars : t -> int -> unit
(** [ensure_vars f n] declares that variables [0 .. n-1] exist even if
    unmentioned. *)

val fresh_var : t -> Lit.var
(** Allocates a new variable. *)

val add_clause : t -> Lit.t array -> int
(** Appends a clause (the array is not copied; do not mutate it
    afterwards) and returns its index. *)

val add_clause_l : t -> Lit.t list -> int

val clause : t -> int -> Lit.t array
(** [clause f i] is the [i]-th clause.  Do not mutate the result. *)

val iter_clauses : (int -> Lit.t array -> unit) -> t -> unit
val clauses : t -> Lit.t array array
(** A fresh array of the clauses, in index order. *)

val copy : t -> t

val clause_satisfied : Lit.t array -> bool array -> bool
(** [clause_satisfied c model] — [model.(v)] is the value of variable
    [v]; variables beyond the model are false. *)

val count_satisfied : t -> bool array -> int
(** Number of clauses of [f] satisfied by the assignment. *)

val max_sat_brute_force : ?limit_vars:int -> t -> int
(** Exact MaxSAT optimum by enumeration of all assignments.  Intended for
    cross-checking on small formulas.
    @param limit_vars refuse (raise [Invalid_argument]) beyond this many
    variables (default 24). *)

val pp : Format.formatter -> t -> unit
