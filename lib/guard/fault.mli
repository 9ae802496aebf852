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
  | Torn_publish
      (** portfolio worker dies right after writing a bound frame whose
          trailing newline never made it out, leaving no report file —
          only the parent's EOF residual flush can salvage the bound.
          The frame is ["l 1"], so arm it only on instances whose
          optimum is at least 1. *)
  | Kill_after_result
      (** SIGKILL a forked worker right after its result file is
          written: the result must still count, whatever the exit
          status says *)

val arm : kind -> unit
val disarm : kind -> unit
val disarm_all : unit -> unit
val armed : kind -> bool

val consume : kind -> bool
(** One-shot read: true if armed, and disarms it — so a retried run
    succeeds where the first one was sabotaged. *)
