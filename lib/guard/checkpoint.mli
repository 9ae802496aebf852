(** Warm-resume checkpoints.

    The crash-survivable digest of one solve: the certified lb/ub
    bracket and the incumbent model backing the upper bound.  A worker
    streams [ck] frames up its one {!Msu_harness.Workers} pipe on the
    guard ticker cadence; the parent keeps the last intact frame and
    re-seeds a retried solve from it, so monotone work (cores counted,
    models found) survives process death.

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

val to_wire : t -> string
(** One checksummed line (no trailing newline):
    [ck <md5> <lb> <ub|-1> <bits|->]. *)

val of_wire : string -> t option
(** [None] on a torn or corrupted frame — the digest must match. *)

val writer : Unix.file_descr -> Guard.Progress.cell -> unit -> unit
(** [writer fd cell] is a guard-ticker thunk that streams frames of
    [cell] to [fd], one per change.  A frame is built only when the
    bracket or the incumbent moved since the last one
    ({!Guard.Progress.publisher}, the gate the portfolio's bound lines
    also use); a tick that finds them unchanged costs a comparison.  An
    empty cell writes nothing.  EPIPE stops the stream silently; an
    armed {!Fault.Torn_checkpoint} makes it die mid-frame (after at
    least one intact frame) to exercise the reader's tear tolerance. *)

(** Parent-side accumulator: feed raw pipe bytes, keep the newest
    intact frame, count torn/corrupt ones. *)
type reader

val reader : unit -> reader
val feed : reader -> string -> unit
val latest : reader -> t option
val dropped : reader -> int
