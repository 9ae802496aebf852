(** Typed solve events, sinks, convergence timelines, and a metrics
    registry.

    The observability layer sits at the bottom of the stack (it depends
    only on [Unix]).  Algorithms and services emit {!Event.t} values
    into a {!sink}; sinks include an unbounded {!Collector}
    (tests/bench) and a {!Jsonl} writer.  Events
    carry a monotonic timestamp and a solve/request id, so per-worker
    streams can be multiplexed over one pipe and demultiplexed into
    per-solve {!Timeline}s.  {!Metrics} is a process-wide registry of
    named counters, gauges and log-bucket histograms exportable as JSON
    and Prometheus text. *)

val now : unit -> float
(** [Unix.gettimeofday] clamped nondecreasing process-wide, so event
    streams always order by timestamp. *)

val after_fork : unit -> unit
(** Reset the monotonic clamp in a forked child.  The child inherits the
    parent's clamp cell; if the parent had read a later timestamp than
    the child's first [gettimeofday], every child event (and span
    duration) would be pinned to the stale parent value.  Call first
    thing after [fork] returns 0. *)

module Event : sig
  type kind =
    | Sat_call  (** one SAT-solver invocation *)
    | Core of { size : int; fresh_blocking : int }
        (** unsatisfiable core extracted; [fresh_blocking] counts the
            relaxation variables it introduced *)
    | Lb of int  (** improved lower bound (strictly better than before) *)
    | Ub of int  (** improved upper bound *)
    | Card_constraint of { arity : int; bound : int }
        (** cardinality constraint [≤ bound] encoded over [arity] literals *)
    | Restart  (** CDCL restart *)
    | Reduce_db of { kept : int }  (** learnt-clause DB reduction *)
    | Cache_hit
    | Cache_miss
    | Queue_enqueue of { depth : int }  (** depth {e after} the push *)
    | Queue_dequeue of { depth : int }  (** depth {e after} the pop *)
    | Worker_spawn of { pid : int }
    | Worker_exit of { pid : int; status : int; signaled : bool }
        (** [signaled] distinguishes a signal death (WSIGNALED; [status]
            is 128+signo) from a normal exit (WEXITED; [status] is the
            exit code) *)
    | Clause_shared of { lbd : int; size : int }
        (** a learnt clause accepted into the portfolio's shared pool
            (deduplicated — re-exports of the same clause don't count) *)
    | Incumbent of { cost : int }
        (** a streamed model re-costed by the portfolio parent and
            certified at [cost] *)
    | Span_begin of { trace : int; span : int; parent : int; phase : string }
        (** phase interval opened; [parent = 0] means trace root *)
    | Span_end of {
        trace : int;
        span : int;
        parent : int;
        phase : string;
        elapsed : float;
        c1 : int;
        c2 : int;
      }
        (** phase interval closed after [elapsed] seconds.  [c1]/[c2]
            are counters-at-boundary deltas whose meaning is per-phase
            (DESIGN.md §17): SAT phases use (conflicts, propagations),
            inprocess passes (fuel spent, changes made), service phases
            (queue depth, 0). *)
    | Note of string  (** free-form narration (compat with the old trace) *)

  type t = { id : int; at : float; kind : kind }
  (** [id] is the solve id (standalone solves use 0; portfolio workers
      their spec index; the service its request id); [at] comes from
      {!now}. *)

  val kind_to_string : kind -> string
  val to_string : t -> string
  (** Human-readable one-liner, used by the [msolve -v] compat shim. *)

  val to_json : t -> string
  (** Flat single-line JSON object; the JSONL trace schema (documented
      in DESIGN.md §12), and the payload of an event frame on a worker's
      pipe. *)

  val of_json : string -> t option
end

type sink = Null | Emit of (Event.t -> unit)
(** [Null] costs one branch per would-be event and never formats. *)

val null : sink
val of_fn : (Event.t -> unit) -> sink
val is_null : sink -> bool

val emit : sink -> id:int -> Event.kind -> unit
(** Stamp [kind] with {!now} and the solve id, and deliver it. *)

val feed : sink -> Event.t -> unit
(** Deliver an already-stamped event (pipe forwarding). *)

val note : sink -> id:int -> (unit -> string) -> unit
(** Lazily formatted {!Event.Note}; the thunk runs only on a live sink. *)

val tee : sink -> sink -> sink

(** Unbounded in-order event collector, for tests and bench where the
    event-vs-stats consistency oracle needs every event. *)
module Collector : sig
  type t

  val create : unit -> t
  val sink : t -> sink
  val events : t -> Event.t list
  val length : t -> int
  val clear : t -> unit
end

module Jsonl : sig
  val write : out_channel -> Event.t -> unit

  val sink : ?flush_each:bool -> out_channel -> sink
  (** One JSON object per line; [flush_each] (default true) makes traces
      tail-able and crash-complete. *)

  val read_all : in_channel -> Event.t list
  (** Parse a JSONL trace back, skipping unparseable lines. *)
end

(** LB/UB-vs-time series reconstructed from an event stream. *)
module Timeline : sig
  type point = { at : float; lb : int option; ub : int option }

  type t = {
    points : point list;  (** chronological; one per published bound *)
    sat_calls : int;
    cores : int;
  }

  val of_events : ?id:int -> Event.t list -> t
  (** Fold a stream (restricted to solve [id] when given) into a
      timeline; [sat_calls]/[cores] count the corresponding events for
      the consistency oracle against [stats]. *)

  val final : t -> int option * int option
  (** Last published (lb, ub). *)

  val monotone : t -> bool
  (** LB nondecreasing, UB nonincreasing, timestamps nondecreasing. *)
end

(** Process-wide registry of named metrics.  Registration is idempotent:
    looking a name up again returns the same metric, so call sites need
    not thread handles.  Names follow [msu_<subsystem>_<what>[_<unit>]]
    (see DESIGN.md §12). *)
module Metrics : sig
  type registry

  val create : unit -> registry

  val default : registry
  (** The process-wide registry everything registers into by default. *)

  type counter

  val counter : ?registry:registry -> ?help:string -> string -> counter
  val inc : ?by:int -> counter -> unit
  val counter_value : counter -> int

  type gauge

  val gauge : ?registry:registry -> ?help:string -> string -> gauge
  val set : gauge -> float -> unit

  type histogram

  val log_buckets : lo:float -> hi:float -> int -> float array
  (** [n >= 2] geometric bucket upper bounds from [lo] to [hi]. *)

  val histogram :
    ?registry:registry -> ?help:string -> ?buckets:float array -> string -> histogram
  (** [buckets] defaults to 1e-4 s … 100 s, two buckets per decade. *)

  val observe : histogram -> float -> unit
  val histogram_count : histogram -> int
  val histogram_sum : histogram -> float

  val histogram_counts : histogram -> int array
  (** Per-bucket (non-cumulative) counts; last slot is the +Inf bucket. *)

  val names : registry -> string list
  (** Registration order — stable across exports. *)

  val to_json : registry -> string

  val to_prometheus : registry -> string
  (** Prometheus text exposition format (counters, gauges, cumulative
      histogram buckets with [+Inf]). *)
end

(** Hierarchical phase spans layered on the event machinery.  A span is
    a [(trace, span, parent, phase)] interval delivered as a
    {!Event.Span_begin}/{!Event.Span_end} pair through an ordinary
    {!sink}, so spans multiplex over the portfolio/service pipes like
    every other event and re-parent across fork boundaries: create the
    worker's tracer with the coordinator's [trace] and the request span
    as [parent] and its spans carry the right lineage on the wire.

    A tracer holds a preallocated span stack; with tracing disabled
    ({!disabled}, or {!create} over a [Null] sink) every operation is
    one load and one branch, with zero allocation.  Closing a span also
    observes [msu_phase_seconds_<phase>] in the default {!Metrics}
    registry. *)
module Span : sig
  type t

  val disabled : t
  (** The no-op tracer: every operation is a near-free branch. *)

  val create : ?trace:int -> ?parent:int -> sink:sink -> id:int -> unit -> t
  (** Tracer emitting into [sink] with solve/request id [id].  [trace]
      defaults to a fresh id unique across the process tree; [parent] (default 0 = root) anchors
      depth-0 spans.  Returns {!disabled} when [sink] is [Null]. *)

  val enabled : t -> bool
  val trace_id : t -> int

  val anchor : t -> int
  (** Parent of depth-0 spans (the cross-process re-parenting hook). *)

  val set_anchor : t -> int -> unit

  val current : t -> int
  (** Innermost open stack span, else the anchor. *)

  val dropped : t -> int
  (** Spans discarded because the stack exceeded its preallocated depth
      (64); [enter]/[leave] stay balanced, the overflow is just not
      emitted. *)

  val enter : t -> string -> unit
  val enter_counted : t -> string -> c1:int -> c2:int -> unit

  val leave : t -> unit

  val leave_counted : t -> c1:int -> c2:int -> unit
  (** Close the innermost span; the emitted [c1]/[c2] are deltas against
      the values given at [enter_counted] (0 for plain [enter]). *)

  val wrap : t -> string -> (unit -> 'a) -> 'a
  (** [wrap t phase f] runs [f] inside a [phase] span; the span closes
      even if [f] raises. *)

  val wrap_counted : t -> string -> counters:(unit -> int * int) -> (unit -> 'a) -> 'a
  (** Like {!wrap}, polling [counters] at both boundaries so the span
      carries across-span deltas.  [counters] never runs when tracing is
      off. *)

  val complete :
    t -> ?parent:int -> phase:string -> t0:float -> t1:float -> ?c1:int -> ?c2:int -> unit -> unit
  (** Retro-emit a completed span over [t0, t1] without touching the
      stack.  Used for aggregated hot sub-phases (propagate/analyze)
      whose per-call spans would dwarf the trace.  The Chrome exporter
      routes the phases ["propagate"] and ["analyze"] to a separate lane,
      so their intervals don't break B/E nesting on the main lane. *)

  type h
  (** Handle for non-nested intervals (queue wait, request lifetime)
      that open in one callback and close in another. *)

  val start : t -> ?parent:int -> string -> h
  val span_of : h -> int
  val stop : t -> ?c1:int -> ?c2:int -> h -> unit

  (** Per-phase self-time/total-time aggregation over an event stream
      (the [--stats-json] phase table and the ablation-profile
      breakdown). *)
  module Report : sig
    type row = { phase : string; count : int; total_s : float; self_s : float }

    val of_events : ?trace:int -> Event.t list -> row list
    (** Rows sorted by descending total time; a child span's elapsed
        time is subtracted from its parent phase's self time. *)

    val rooted : root:int -> Event.t list -> bool
    (** Every span's parent chain reaches [root] — the re-parenting
        check for worker spans forwarded across a process boundary.
        False on an empty stream. *)

    val to_json : row list -> string
    (** JSON array of [{"phase","count","total_s","self_s"}]. *)
  end
end

(** Chrome [trace_event] JSON exporter (loads in chrome://tracing and
    Perfetto).  Spans become B/E duration events on lane [2*id]
    ([2*id+1] for the aggregate phases of {!Span.complete}); other
    events become instants. *)
module Chrome : sig
  val of_events : ?process_name:string -> Event.t list -> string
  (** One event object per line, sorted by timestamp. *)

  val validate : string -> (int, string) result
  (** Structural check of an [of_events] trace: one object per line,
      B/E matched per span id with equal phase names, timestamps
      nondecreasing.  [Ok n] gives the number of complete spans. *)
end

(** GC-pressure gauges in the default {!Metrics} registry, refreshed
    from [Gc.quick_stat] on every {!Gc_metrics.sample}.  The solver
    stack samples after each MaxSAT solve, so [--stats-json] and the
    Prometheus export carry the allocation story of the run. *)
module Gc_metrics : sig
  val minor_words : Metrics.gauge
  val major_words : Metrics.gauge
  val promoted_words : Metrics.gauge
  val heap_words : Metrics.gauge
  val minor_collections : Metrics.gauge
  val major_collections : Metrics.gauge

  val sample : unit -> unit
  (** Refresh all six gauges from [Gc.quick_stat] (cheap: no heap walk). *)
end
