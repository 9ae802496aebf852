(** Experiment runner: the msu4 paper's evaluation protocol, hardened.

    Each (instance, algorithm) pair runs with a wall-clock budget; runs
    that exceed it are {e aborted}, the unit Tables 1 and 2 of the paper
    count.  Scatter plots (Figures 1-3) pair per-instance runtimes of
    two algorithms, with aborted runs pinned at the timeout value, as in
    the paper's plots.

    Robustness: every run goes through {!Msu_maxsat.Maxsat.solve_supervised}
    with a fresh {!Msu_guard.Guard}, so aborts carry the cause and the
    best bounds seen; optional fork-based isolation (a {!Workers}
    worker per attempt) and a retry policy guarantee the suite finishes
    no matter what one instance does. *)

type abort_reason =
  | Timeout  (** wall-clock deadline *)
  | Out_of_conflicts  (** SAT conflict budget *)
  | Out_of_propagations
  | Out_of_memory  (** live-heap budget *)
  | Crash of string  (** stack overflow, OOM, killed child, solver bug… *)

type outcome =
  | Solved of int  (** optimum cost *)
  | Aborted of { why : abort_reason; lb : int; ub : int option }
      (** budget exhausted or crashed; [lb]/[ub] are the last sound
          bounds published before the run ended (0 / [None] when the
          run died without publishing, e.g. a SIGKILLed child) *)
  | Unsat_hard  (** hard clauses unsatisfiable (not expected here) *)

type run = {
  instance : string;
  family : string;
  algorithm : Msu_maxsat.Maxsat.algorithm;
  outcome : outcome;
  time : float;  (** wall seconds; capped at the budget for aborts *)
  attempts : int;  (** attempts actually made (> 1 after crash retries) *)
}

type retry_policy = {
  max_attempts : int;  (** total attempts; extra attempts fire on crashes only *)
  retry_conflict_budget : int option;
      (** conflict budget for retry attempts — typically smaller than the
          first attempt's, so the retry stops short of the crash point
          and reports sound bounds instead *)
}

val abort_reason_to_string : abort_reason -> string

val run_one :
  ?isolate:bool ->
  ?grace:float ->
  ?retry:retry_policy ->
  ?conflict_budget:int ->
  timeout:float ->
  Msu_maxsat.Maxsat.algorithm ->
  string * string * Msu_cnf.Wcnf.t ->
  run
(** [run_one ~timeout alg (name, family, wcnf)].  With [isolate] the
    solve runs in a forked {!Workers} worker: checkpoint frames stream
    up the worker's pipe and its result frame comes last, the child
    carries a SIGALRM backstop, and [grace] seconds (default
    1.0) past the timeout the parent starts the cancellation ladder —
    SIGTERM (tripping the child's guard, which flushes the partial
    lb/ub it computed), then SIGKILL after a short flush window — so an
    infinite loop or C-level crash costs one run, never the suite, and
    a timed-out run still reports its bounds.  A result frame written
    whole counts even if the worker is killed afterwards.  [retry] (default
    one attempt) re-runs crashed attempts. *)

val run_suite :
  ?progress:(run -> unit) ->
  ?isolate:bool ->
  ?grace:float ->
  ?retry:retry_policy ->
  ?conflict_budget:int ->
  timeout:float ->
  algorithms:Msu_maxsat.Maxsat.algorithm list ->
  (string * string * Msu_cnf.Wcnf.t) list ->
  run list
(** Every algorithm on every instance, instance-major order. *)

val aborted_counts :
  Msu_maxsat.Maxsat.algorithm list -> run list -> (Msu_maxsat.Maxsat.algorithm * int) list

val aborted_breakdown : run list -> (string * int) list
(** Aborts bucketed by cause:
    [("timeout", _); ("budget", _); ("memory", _); ("crash", _)]. *)

val consistency_errors : run list -> string list
(** Instances on which two algorithms solved to different optima, or an
    aborted run's salvaged bounds exclude a proven optimum — must be
    empty; a non-empty result indicates a solver bug. *)

val scatter :
  x:Msu_maxsat.Maxsat.algorithm ->
  y:Msu_maxsat.Maxsat.algorithm ->
  timeout:float ->
  run list ->
  (string * float * float) list
(** Per-instance [(name, time_x, time_y)]; aborted runs appear at the
    timeout value. *)

val pp_aborted_table :
  total:int ->
  Format.formatter ->
  (Msu_maxsat.Maxsat.algorithm * int) list ->
  unit
(** Renders in the layout of the paper's Tables 1/2. *)

val pp_scatter_csv : Format.formatter -> (string * float * float) list -> unit

val pp_runs_csv : Format.formatter -> run list -> unit
(** One row per run; aborted rows carry their cause and last-known
    [lb]/[ub] so anytime quality is measurable from the CSV alone. *)
