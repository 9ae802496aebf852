(** Process-parallel algorithm portfolio with live bound sharing.

    One instance, [N] forked workers ({!Msu_harness.Workers}), each
    running a different algorithm.  Workers publish every improved
    lower/upper bound to the parent over their up pipe as
    {!Msu_guard.Checkpoint} bracket frames; the parent keeps the best
    global bracket and rebroadcasts it in the same frame, and each worker installs
    the broadcast through its {!Msu_guard.Guard} — msu4 tightens its
    at-most bound with a peer's upper bound, and any worker stops the
    moment the shared bounds close the gap.  The first worker to close
    the gap wins; the parent cancels the rest through the graceful
    ladder (SIGTERM → flush window → SIGKILL), merges their statistics,
    and salvages the partial bounds of workers that timed out or
    crashed.

    Two optional v2 channels ride the same pipes:

    {ul
    {- {b Clause sharing} ([share_clauses]): workers export share-safe
       learnt clauses (LBD <= 4, <= 8 literals, derived from the
       instance's hard clauses alone — see {!Msu_sat.Solver.on_export});
       the parent dedupes them by a sorted-literal digest, checks every
       variable is the instance's own, and rebroadcasts to the other
       workers, which import at restart boundaries.}
    {- {b Incumbent streaming}: every bracket frame carries the model
       behind its upper bound; the parent {e re-costs it against the
       instance} before trusting it, so a flip-found SLS model (add one
       with [sls_worker]) tightens [best_ub] — and survives even a
       SIGKILL — only if it really has that cost.}}

    Soundness: an external upper bound is a bound on the {e instance}
    but is not backed by a local model, so the merged result only
    reports [Optimum] at a cost some worker's recovered model actually
    achieves — external bounds prune the search and tighten the
    reported bracket, never replace a model.  Streamed incumbents are
    model-backed by construction (the parent re-costed them) and may
    decide an optimum when a peer proves the matching lower bound. *)

val clause_codec : (int * int array) Msu_frame.Frame.codec
(** A shared learnt clause: its LBD and its {!Msu_cnf.Lit.to_int}
    literals, 1 to 64 of them.  Exposed for the frame fuzz tests. *)

type spec = {
  label : string;
  algorithm : Msu_maxsat.Maxsat.algorithm;
  encoding : Msu_card.Card.encoding;
      (** passed to the worker as [config.encoding], which no algorithm
          a spec can name reads: it labels the worker and changes no
          search *)
  fault : Msu_guard.Fault.kind option;
      (** armed inside the worker before solving — tests inject worker
          crashes with this *)
}

val spec :
  ?encoding:Msu_card.Card.encoding ->
  ?fault:Msu_guard.Fault.kind ->
  Msu_maxsat.Maxsat.algorithm ->
  spec
(** Encoding defaults to the algorithm's paper label (BDD for msu4-v1,
    sorting networks otherwise). *)

val default_specs : int -> spec list
(** The first [n] of a fixed diversity order (msu4-v2, msu3, oll, wpm1,
    pbo, pbo-binary, maxsatz); capped at these seven, each a different
    search. *)

type worker_report = {
  w_label : string;
  w_algorithm : Msu_maxsat.Maxsat.algorithm;
  w_outcome : Msu_maxsat.Types.outcome;
  w_time : float;
  w_stats : Msu_maxsat.Types.stats;
}

type result = {
  outcome : Msu_maxsat.Types.outcome;
  model : bool array option;  (** backs [outcome]'s optimum/ub *)
  winner : string option;
      (** label of the worker whose result decided the outcome *)
  lb : int;  (** best global lower bound, over all workers *)
  ub : int option;
      (** best global upper bound published by any worker — may be
          tighter than [outcome]'s when the matching model was lost *)
  reports : worker_report list;
      (** one per forked worker, spec order; the lazily-forked SLS
          rider appears last and only when it actually spawned *)
  disagreements : string list;
      (** workers proving contradictory optima / inconsistent bounds —
          must be empty; non-empty means a solver bug *)
  stats : Msu_maxsat.Types.stats;  (** merged over all workers *)
  elapsed : float;
}

val solve :
  ?specs:spec list ->
  ?jobs:int ->
  ?timeout:float ->
  ?grace:float ->
  ?max_conflicts:int ->
  ?trace:(string -> unit) ->
  ?sink:Msu_obs.Obs.sink ->
  ?spans:Msu_obs.Obs.Span.t ->
  ?handle_sigint:bool ->
  ?share_clauses:bool ->
  ?sls_worker:bool ->
  Msu_cnf.Wcnf.t ->
  result
(** Fork one worker per spec ([default_specs jobs] when [specs] is
    omitted; [jobs] defaults to 4) and race them with live bound
    sharing.  [timeout] is wall seconds for the whole portfolio
    ([grace], default 1.0, pads the cancellation ladder exactly as in
    {!Msu_harness.Runner.run_one}); [max_conflicts] is a per-worker
    conflict budget.  Never raises on worker crashes: a crashed worker
    contributes its salvaged bounds and the rest keep racing.

    With [sink] the workers' typed event streams ({!Msu_obs.Obs.Event})
    are forwarded over the existing up pipes and re-emitted into the
    parent's sink; each event carries the worker's spec index as its
    solve id, and the parent adds [Worker_spawn]/[Worker_exit] markers.

    With [spans] (a live tracer) the portfolio propagates the parent's
    trace context across the fork: each worker opens its own tracer on
    the same trace id, anchored under the parent's current span, so the
    spans it streams back over the up pipe re-parent under the
    coordinator's request span in the merged timeline.

    With [handle_sigint] (default false — library callers keep their
    own signal policy) the parent fields Ctrl-C for the whole race:
    workers ignore the terminal's SIGINT and are cancelled through the
    SIGTERM → flush-grace → SIGKILL ladder instead, so the merge still
    reports every salvaged bound.  [msolve --portfolio] sets it.

    [share_clauses] (default false) turns on learnt-clause sharing:
    accepted clauses are counted in [msu_shared_clauses_total] (dup /
    rejected frames in their own counters) and surface as
    [Clause_shared] events on [sink].

    [sls_worker] (default false) adds stochastic local search in two
    additive roles.  Before any fork the parent runs a short in-process
    pre-seed sprint; its best feasible model (re-costed) seeds the
    global upper bound, rides out in the first ["b"] broadcast so every
    exact worker starts pruning against a real incumbent, and joins the
    merge as a model-backed candidate (winner label ["sls-seed"] when a
    worker's lower bound closes the gap through it).  Then, only if the
    race outlives a short startup delay, an SLS rider process (spec
    label ["sls"]) is forked lazily and streams improving models up as
    parent-certified incumbents ([Incumbent] events,
    [msu_shared_incumbents_total]); instances decided before the delay
    never pay for the rider at all, so [reports] includes it only when
    it actually ran. *)

val to_result : result -> Msu_maxsat.Types.result
(** Collapse to the sequential result type (outcome, winning model,
    merged stats) so [Certify] and the output pipeline apply
    unchanged. *)

val pp_result : Format.formatter -> result -> unit
