(** Fault injection for robustness tests.

    A global registry of armed faults, consulted at well-defined hook
    points in the solver stack.  Tests arm a fault, run a solve, and
    assert that the certification pass rejects the corrupted answer —
    proving the certifier catches real lies, not just synthetic ones.

    Never armed in production paths; {!disarm_all} in test teardown. *)

type kind =
  | Corrupt_model_bit  (** flip bit 0 of the reported model *)
  | Flip_sat_answer  (** misreport the final outcome (off-by-one cost) *)
  | Drop_core_clause  (** truncate the DRUP refutation log *)
  | Crash_mid_solve  (** raise [Stack_overflow] after the first bound *)
  | Kill_mid_solve
      (** SIGKILL the worker process right after it publishes a bound —
          the no-flush crash the checkpoint pipe must survive *)
  | Torn_checkpoint
      (** die mid-write of a checkpoint frame (after at least one intact
          frame): the parent must keep the previous checkpoint *)
  | Kill_after_result
      (** SIGKILL a forked worker right after it writes its result
          frame: the result must still count, whatever the exit status
          says *)

val to_string : kind -> string
val of_string : string -> kind option
(** The names faults travel by in service requests and journals. *)

val arm : kind -> unit
val disarm_all : unit -> unit
val armed : kind -> bool

val consume : kind -> bool
(** One-shot read: true if armed, and disarms it — so a retried run
    succeeds where the first one was sabotaged. *)
