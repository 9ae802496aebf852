(** Unified resource budgets and crash supervision.

    A guard bundles every resource limit of one solve — wall-clock
    deadline, SAT-conflict budget, propagation budget, and a live-heap
    budget — behind a single cheap {!poll}.  The CDCL search loop, the
    cardinality encoders, the preprocessor, and the branch-and-bound
    search all poll the {e same} guard, so no phase can starve
    cancellation: however long an encoding runs between SAT calls, it
    still observes the deadline.

    Guards are monotone: once any budget is breached the guard stays
    {e tripped} and every subsequent poll reports the same reason, which
    lets the harness classify an aborted run after the fact.

    The module only depends on [Unix]; every layer of the stack can link
    against it. *)

type reason =
  | Timeout  (** wall-clock deadline passed *)
  | Conflicts  (** SAT conflict budget exhausted *)
  | Propagations  (** unit-propagation budget exhausted *)
  | Memory  (** live heap words over budget *)
  | Cancelled  (** cooperative external cancellation (portfolio / SIGTERM) *)

val reason_to_string : reason -> string

exception Interrupt of reason
(** Raised by {!check}; algorithms catch it at their top loop and turn
    the best bounds seen so far into a [Bounds] outcome. *)

type t

val create :
  ?deadline:float ->
  ?max_conflicts:int ->
  ?max_propagations:int ->
  ?max_memory_words:int ->
  unit ->
  t
(** [deadline] is an absolute [Unix.gettimeofday] timestamp ([infinity]
    for none); the other budgets are cumulative counts ([max_int] for
    none).  [max_memory_words] bounds [Gc.quick_stat().heap_words]. *)

val unlimited : unit -> t
(** A fresh guard with no budgets; it can still be {!trip}ped. *)

val add_conflicts : t -> int -> unit
(** Charge [n] SAT conflicts against the budget (no poll). *)

val add_propagations : t -> int -> unit

val poll : t -> reason option
(** Cheap cooperative check, meant for tight loops: counter budgets are
    compared on every call, the clock is sampled once every 64 polls and
    the heap once every 256.  Returns (and records) the breach reason,
    or [None].  Once tripped, always returns the recorded reason. *)

val check : t -> unit
(** {!poll}, raising [Interrupt reason] on a breach. *)

val breached : t -> reason option
(** Full immediate check — clock, heap, and counters — bypassing the
    sampling rate.  Use at phase boundaries. *)

val trip : t -> reason -> unit
(** Force the guard into the tripped state (first reason wins). *)

val tripped : t -> reason option

val conflicts : t -> int
(** Conflicts charged so far. *)

val propagations : t -> int

val remaining_conflicts : t -> int option
(** Conflicts left before the budget trips; [None] when unlimited. *)

(** {2 Externally proved bounds}

    A portfolio parent rebroadcasts the best bounds any worker proved;
    the worker installs them here so its algorithm can prune with them
    (e.g. msu4 tightening its at-most bound below its own best model).
    External bounds are sound for the {e instance} but not backed by
    local work: algorithms must never report an external upper bound as
    their own model cost. *)

val install_bounds : t -> lb:int -> ub:int option -> unit
(** Monotone: keeps the max lower / min upper bound installed so far. *)

val external_lb : t -> int
(** Best externally proved lower bound (0 when none installed). *)

val external_ub : t -> int option

val set_ticker : t -> (unit -> unit) -> unit
(** Install a callback run on the guard's sampled-poll cadence (every
    64th {!poll}, and on every {!breached}).  Portfolio workers use it
    to drain the parent's bound broadcasts without touching the hot
    loop; checkpoint writers use it to stream warm-resume snapshots.
    The ticker may {!trip} the guard (e.g. when the shared bounds
    close the gap). *)

val tick : t -> unit
(** Run the installed ticker immediately (no-op without one).  Bound
    publication forces a tick so every improved bound is checkpointed /
    broadcast at once instead of waiting for the sampled cadence. *)

(** {2 Cooperative cancellation}

    A forked worker registers its guard as the process's cancellation
    target; a SIGTERM then trips it with {!Cancelled}, so the solve
    unwinds through the normal bounds-salvage path and the worker can
    flush its partial result before exiting — the fix for partial
    bounds being lost to an immediate SIGKILL. *)

val set_cancel_target : t -> unit
(** Make this guard the one a cancellation (the SIGTERM handler's)
    trips.  Later registrations replace earlier ones.  A cancellation
    that arrived while no guard was registered trips this one
    immediately — a SIGTERM racing a forked worker's setup is deferred,
    never lost. *)

val install_sigterm_handler : unit -> unit
(** Route SIGTERM to the registered guard, tripping it with
    {!Cancelled}; with none registered yet, the request is remembered
    for the next {!set_cancel_target}.  Forgets any cancellation target
    or pending request inherited across the fork.  Call only in
    a forked child that owns the process (never in a suite/portfolio
    parent). *)

(** Best-bounds cell shared by an algorithm and its supervisor.

    Algorithms publish every improved lower/upper bound here the moment
    it is proved, so that a crash or budget interrupt anywhere in the
    stack still surfaces the work done so far. *)
module Progress : sig
  type cell

  val create : unit -> cell

  val note_lb : cell -> int -> unit
  (** Monotone: only raises the recorded lower bound. *)

  val note_ub : cell -> int -> bool array option -> unit
  (** Monotone: only lowers the recorded upper bound; the model (when
      given) is copied so later in-place mutation cannot corrupt it. *)

  val lb : cell -> int
  (** Best lower bound published so far (0 initially). *)

  val ub : cell -> int option
  val model : cell -> bool array option
  (** The model achieving {!ub}, when one was published. *)

  val publisher : cell -> (lb:bool -> ub:bool -> unit) -> unit -> unit
  (** [publisher cell send] is the change gate of the bound stream
      ({!Checkpoint.writer}'s bracket frames).  Each call of the
      returned thunk calls [send ~lb ~ub] only when the cell moved since
      the last [send]: [lb] when the lower bound rose, [ub] when the
      upper bound fell (its model moves with it).  A call that finds the
      cell unchanged costs two comparisons and allocates nothing.  The
      first call always sends, with [~lb:true], even on an empty cell. *)
end

val supervise : ?spans:Msu_obs.Obs.Span.t -> (unit -> 'a) -> ('a, string) result
(** Run the thunk, converting [Stack_overflow], [Out_of_memory], and any
    unexpected exception into [Error reason_text].  {!Interrupt} and
    [Invalid_argument] are {e not} caught: budget interrupts are normal
    control flow and caller errors should stay loud.  When [spans] is
    live the thunk runs inside a ["supervise"] span, which closes even
    on the crash path. *)
