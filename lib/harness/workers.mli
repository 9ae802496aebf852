(** Forked worker processes: everything about a worker except what it
    computes.

    The isolated runs of {!Runner}, the portfolio's racing algorithms
    and the solve service's job pool all run their solves in children
    forked here.  A worker is a thunk run in a child process; the
    module owns the rest of the worker's life:

    {ul
    {- {b Child side.}  Right after the fork the child calls
       {!Msu_obs.Obs.after_fork}, closes every descriptor the caller
       names (listener, connections, journal) and every parent-side
       descriptor of the other live workers of any pool, routes SIGTERM
       to {!Msu_guard.Guard.cancel_current} and arms a SIGALRM
       backstop.  SIGTERM and SIGINT are blocked across the fork, so a
       SIGTERM that arrives while the child sets up trips its guard as
       soon as the guard is registered, and the parent's own handlers
       never run in the child.  The thunk's value (or the text of the
       exception it raised) is the last frame up its pipe, and the
       child leaves with [_exit].}
    {- {b Parent side.}  Each worker has one {e up} pipe of
       {!Msu_frame.Frame}s and optionally a {e down} pipe that the
       parent writes frames to through a nonblocking {!Outbuf}.  One
       [select] ({!poll}) drains every worker's whole frames (nothing
       after a bad frame of a pipe is trusted) and watches the caller's
       own descriptors.  Each worker has its own cancellation ladder:
       SIGTERM at [deadline + grace] (or at {!cancel}), then SIGKILL
       after a flush window of [max 0.25 (grace / 2)] seconds.}
    {- {b One reap.}  A pipe at EOF means the child is exiting: a
       frame torn by its death is dropped, the child is reaped with a
       blocking [waitpid], [Worker_spawn]/[Worker_exit] events and the
       [msu_worker_exit_total_{normal,signaled}] counters are emitted,
       and a result frame that arrived whole is the result, whatever
       the exit status.  Pipes are drained to EOF before the reap, so a
       result past the kernel's pipe buffer only waits for a drain.}} *)

(** Output buffering for a nonblocking pipe: [queue] appends an encoded
    frame, [flush] writes as much as the kernel accepts and keeps the
    rest for the next round — short writes and [EAGAIN] never tear or
    drop a frame; a dead reader ([EPIPE]) drops the backlog. *)
module Outbuf : sig
  type t

  val create : unit -> t
  val queue : t -> bytes -> unit
  val flush : t -> Unix.file_descr -> unit
  val pending : t -> bool
end

val write_frame : Unix.file_descr -> bytes -> unit
(** Child side: write one encoded frame; errors are ignored, so a dead
    parent costs the child its stream, not its solve. *)

val event_sink : Unix.file_descr -> Msu_obs.Obs.sink
(** Child side: a sink that sends each event up the pipe as one
    {!Msu_frame.Frame.Event} frame; the parent feeds it to the [events]
    sink the worker was spawned with. *)

val posix_signal : int -> int
(** The system's number for an OCaml signal number: OCaml's constants
    are negative ([Sys.sigkill = -7] becomes 9, [Sys.sigterm = -11]
    becomes 15); a positive number passes through unchanged. *)

val exit_code : Unix.process_status -> int
(** Shell-style exit status: the exit code, or 128 + the system's
    signal number for a killed or stopped process (137 for SIGKILL). *)

type 'a t
(** A pool of workers whose thunks return ['a]. *)

type 'a worker

type 'a exit = {
  status : Unix.process_status;
  result : ('a, string) result;
      (** the result frame when it arrived whole, whatever [status];
          otherwise [Error] naming how the worker died *)
  termed : bool;  (** the ladder (or {!cancel}) sent SIGTERM *)
}

val create :
  ?sink:Msu_obs.Obs.sink -> grace:float -> codec:'a Msu_frame.Frame.codec -> unit -> 'a t
(** [grace] pads every worker's ladder: SIGTERM fires [grace] seconds
    past its deadline.  [codec] carries the thunks' values in the
    result frame.  [sink] receives the [Worker_spawn] and [Worker_exit]
    events, stamped with each worker's [id]. *)

val spawn :
  'a t ->
  ?id:int ->
  ?close:Unix.file_descr list ->
  ?ignore_sigint:bool ->
  ?down:bool ->
  ?events:Msu_obs.Obs.sink ->
  deadline:float ->
  on_frame:(Msu_frame.Frame.t -> unit) ->
  on_exit:('a exit -> unit) ->
  (up:Unix.file_descr -> down:Unix.file_descr option -> 'a) ->
  'a worker
(** Fork a worker running the thunk, which gets the write end of its up
    pipe and, with [down] (default false), the read end of its down
    pipe.  [close] lists parent descriptors the child must not hold;
    [ignore_sigint] (default false) detaches the child from the
    terminal's Ctrl-C when the caller fields it for its workers.
    [deadline] is the worker's absolute wall-clock budget ([infinity]
    for none): the ladder starts [grace] seconds after it, and the
    child's SIGALRM backstop fires after the ladder would have
    finished.  {!poll} feeds the worker's event frames to [events]
    (default {!Msu_obs.Obs.null}), passes every other whole up-pipe
    frame but the result to [on_frame], and the reaped worker's {!exit}
    to [on_exit].  A frame whose payload does not decode
    ([on_frame] raising {!Msu_frame.Frame.Malformed}) is dropped. *)

val send : 'a worker -> bytes -> unit
(** Queue an encoded frame on the worker's down pipe and flush what the kernel
    accepts; the rest goes out on later {!poll} rounds.  A no-op for a
    worker without a down pipe or already reaped. *)

val cancel : 'a worker -> unit
(** Start the worker's ladder now: SIGTERM at once, SIGKILL after the
    flush window.  A no-op once SIGTERM was sent or the worker was
    reaped. *)

val poll :
  'a t -> ?read:Unix.file_descr list -> timeout:float -> unit -> Unix.file_descr list
(** One round: wait up to [timeout] seconds (less when a ladder rung is
    due sooner) for any worker's up pipe, any down pipe with queued
    output, or one of the caller's [read] descriptors.  Then deliver
    whole frames, reap workers whose pipe reached EOF, and fire the
    ladder rungs that are due.  Returns the caller's descriptors that
    are readable. *)

val wait : 'a t -> unit
(** {!poll} until every worker of the pool has been reaped. *)

val running : 'a t -> int
(** Workers spawned and not yet reaped. *)

val pid : 'a worker -> int

val descriptors : 'a worker -> Unix.file_descr list
(** The worker's parent-side pipe ends, while it runs (for tests). *)
