(** Warm-resume checkpoints.

    The crash-survivable digest of one solve: the certified lb/ub
    bracket and the incumbent model backing the upper bound.  This is
    the one bound frame: runner and service workers stream it up their
    {!Msu_harness.Workers} pipe on the guard ticker cadence (the parent
    keeps the last whole frame and re-seeds a retried solve from it, so
    monotone work survives process death), portfolio workers publish
    their bounds with it, and the portfolio parent broadcasts the
    global bracket back down with it, without a model.

    Soundness: the bracket was proved before it was published, so a
    retry may install it as {e external} bounds on a fresh guard; the
    incumbent model must be re-verified against the instance before
    being trusted (the dying worker may have been corrupted after the
    frame was written). *)

type t = {
  lb : int;
  ub : int option;
  model : bool array option;  (** incumbent achieving [ub], when known *)
}

val empty : t
val is_empty : t -> bool

val of_cell : Guard.Progress.cell -> t
(** Snapshot the supervisor's progress cell. *)

val merge : t -> t -> t
(** Best certified bracket across both; the model follows the winning
    upper bound. *)

val install : t -> Guard.t -> unit
(** Install the bracket as external bounds ({!Guard.install_bounds}) so
    the resumed algorithm prunes with it. *)

val bracket : (int * int option) Msu_frame.Frame.codec
(** An [(lb, ub)] bracket; reading refuses a negative lb and a crossed
    bracket ([ub < lb]). *)

val codec : t Msu_frame.Frame.codec
val frame : t -> bytes

val of_frame : Msu_frame.Frame.t -> t
(** @raise Msu_frame.Frame.Malformed for another frame or a bad bracket. *)

val writer : Unix.file_descr -> Guard.Progress.cell -> unit -> unit
(** [writer fd cell] is a guard-ticker thunk that streams bracket frames
    of [cell] to [fd], one per change.  A frame is built only when the
    bracket or the incumbent moved since the last one
    ({!Guard.Progress.publisher}); a tick that finds them unchanged
    costs a comparison.  An empty cell writes nothing.  A write error
    (EPIPE) stops the stream silently; an armed {!Fault.Torn_checkpoint}
    makes it die mid-frame (after at least one intact frame) to exercise
    the reader's torn-tail rule. *)
