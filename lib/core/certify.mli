(** Independent certification of MaxSAT results.

    A solver bug that misreports an optimum is worse than a crash: it
    poisons every experiment downstream.  This pass re-derives each
    claim with machinery as independent of the solving path as the repo
    allows:

    {ul
    {- [Optimum c] — the model is re-costed against the original
       formula; optimality is re-proved by refuting "cost <= c - 1" on a
       {e fresh} solver whose refutation is then replayed under the
       syntactic RUP checker ({!Msu_sat.Drup.check}); tiny instances are
       additionally cross-checked by exhaustive enumeration.}
    {- [Hard_unsat] — the hard clauses are re-refuted, DRUP-checked.}
    {- [Bounds] / [Crashed] — bound ordering ([lb <= ub]) and, when a
       model was salvaged, that its cost equals the reported [ub].}}

    The probes run under a conflict budget; a probe that exhausts it
    leaves its check {e unproved} — neither passed nor failed — so
    certification degrades gracefully on hard instances instead of
    hanging, and says so.

    Armed {!Msu_guard.Fault.Drop_core_clause} hooks (tests only)
    truncate the refutation log before replay, which a correct checker
    must reject. *)

type report = {
  passed : string list;  (** checks that succeeded, in execution order *)
  unproved : (string * string) list;
      (** checks that neither passed nor failed, as [(check, why)]:
          [("optimality", "probe budget out")] when the optimality probe
          ran out of conflicts *)
  failures : string list;  (** each entry is ["check: explanation"] *)
}

val ok : report -> bool
(** No failures; unproved checks do not count.  An empty report (e.g.
    a [Bounds] outcome with no model) is vacuously ok. *)

val pp : Format.formatter -> report -> unit

val recost : Msu_cnf.Wcnf.t -> Types.result -> report
(** Model re-cost only — the cheap subset of {!certify} with no solver
    probes.  Checks that the reported model's cost on [w] equals the
    claimed optimum (or upper bound).  The solve service runs this on
    every cache hit before serving the cached result, so a stale or
    corrupted cache entry can never return a wrong optimum. *)

val certify :
  ?encoding:Msu_card.Card.encoding ->
  ?brute_limit:int ->
  ?max_conflicts:int ->
  ?spans:Msu_obs.Obs.Span.t ->
  Msu_cnf.Wcnf.t ->
  Types.result ->
  report
(** [certify w result] checks [result] against the instance [w] it was
    obtained from.  [encoding] (default [Sortnet]) is used for the
    optimality probe's cardinality constraint; [brute_limit] (default
    16) caps the variable count for the enumeration cross-check;
    [max_conflicts] (default 200_000) bounds each probe solve.  When
    [spans] is live the whole check runs inside a ["certify"] span. *)
