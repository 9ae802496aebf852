(** Persistent MaxSAT solve daemon.

    One process listens on a Unix-domain socket and serves
    {!Protocol} request frames.  A solve request is first
    canonicalized and fingerprinted ({!Msu_cnf.Canon}); a cache hit —
    re-verified by {!Msu_maxsat.Certify.recost} against the requesting
    instance — is answered immediately.  Misses enter a bounded
    priority queue ({!Jobq}; a full queue answers [Rejected] with a
    reason) and are dispatched to forked workers of the shared
    {!Msu_harness.Workers} pool: per-job {!Msu_guard.Guard} budgets,
    SIGTERM → flush-grace → SIGKILL cancellation, and bounds-salvaging
    crash reports.  A worker that crashes or times out costs its own
    request a [Crashed]/[Bounds] result, never the daemon.  Each worker
    owns one pipe, which carries its checkpoint frames, its event
    frames when the daemon streams events or profiles, and its result
    frame last; the pool's one [select] also watches the listener and
    every connection.  A request whose instance is out of range is
    answered [Rejected "malformed instance"]; a bad frame closes its
    connection, never the daemon.

    Crash recovery: workers stream {!Msu_guard.Checkpoint} frames
    (certified lb/ub bracket plus incumbent model) up their pipe; a
    worker that dies spontaneously is respawned — with exponential
    backoff, up to [max_attempts] — warm-resumed from its last intact
    checkpoint, and exhausted retries degrade to a sound [Bounds]
    result carrying the checkpointed bracket.  With [journal_file]
    set, every admitted job is journaled (fsync'd) before the client
    sees [Accepted] and marked completed when its result is delivered;
    a daemon killed mid-load replays the journal on restart and
    re-runs every admitted-but-unfinished job, so no accepted job is
    ever silently lost.

    The daemon is single-threaded (select loop + forked workers), so
    every piece of shared state — cache, queue, stats — is touched from
    one place only. *)

type config = {
  socket_path : string;
  workers : int;  (** concurrent forked solves *)
  queue_capacity : int;  (** admission-control bound *)
  cache_capacity : int;  (** LRU entries *)
  cache_file : string option;
      (** persist the cache across restarts (loaded at startup, saved
          at shutdown) *)
  default_timeout : float;  (** per-request budget when none given *)
  grace : float;  (** ladder grace, as in {!Msu_harness.Workers.create} *)
  trace : (string -> unit) option;
  sink : Msu_obs.Obs.sink;
      (** the daemon's typed event stream: queue, cache and worker
          life-cycle events plus every worker's forwarded per-solve
          events, each stamped with its job id *)
  metrics_file : string option;
      (** render the metrics registry to this path (Prometheus text
          format, atomic rename) every few seconds and at shutdown *)
  journal_file : string option;
      (** write-ahead journal of admitted jobs ({!Journal}); replayed
          on restart, compacted at startup *)
  max_attempts : int;
      (** total workers one job may consume; attempts past the first
          fire only on spontaneous worker deaths (never on the daemon's
          own budget ladder) and warm-resume from the last checkpoint *)
  retry_backoff : float;
      (** seconds before respawning a crashed job's worker, doubled for
          each attempt already made *)
  profile_dir : string option;
      (** when set, every request is traced ({!Msu_obs.Obs.Span}): the
          daemon opens a request span per job (with queue-wait,
          cache-lookup and worker-solve sub-spans), forked workers
          re-parent their solve spans under it across the pipe, and the
          merged stream is written to [profile_dir/job-<id>.trace.json]
          as Chrome [trace_event] JSON when the job completes *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue 64, cache 1024, 10 s default timeout, 1 s grace,
    no persistence, no trace, null sink, no metrics file, no journal,
    2 attempts with 0.25 s base backoff, no profiling. *)

val run : ?handle_signals:bool -> config -> unit
(** Serve until a [Shutdown] request completes.  With [handle_signals]
    (the [mserve] binary sets it), SIGINT/SIGTERM trigger the same path
    as [Shutdown { drain = false }]: queued jobs are answered
    [cancelled], running workers go through the kill ladder, the cache
    is persisted, and the socket is unlinked.  Blocks the calling
    process; embedders fork first. *)
