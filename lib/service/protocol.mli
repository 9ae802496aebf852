(** Wire protocol of the solve service.

    Requests and replies travel over a Unix-domain stream socket as
    {!Msu_frame.Frame}s: [Request] frames from the client, [Reply]
    frames back, each payload written and checked by the typed codecs
    below.  A frame of another version is answered with a [Rejected]
    reply naming both versions; any other bad frame closes that
    connection only, and a whole frame whose payload fails its codec is
    answered with [Rejected] carrying the codec's message.

    One connection may carry any number of requests; [Result] replies
    are tagged with the job id from the matching [Accepted], so a
    client can interleave submissions (or send a [Cancel] from a
    different connection — ids are global to the server). *)

type wire_wcnf = {
  w_vars : int;
  w_hard : int array array;  (** literals as {!Msu_cnf.Lit.to_int} *)
  w_soft : (int * int array) array;  (** (weight, literals) *)
}

val max_vars : int
(** Largest [w_vars] a request may declare: 4,194,304, a thousand times
    the largest instance of the service suites. *)

val to_wire : Msu_cnf.Wcnf.t -> wire_wcnf

val of_wire : wire_wcnf -> Msu_cnf.Wcnf.t
(** For an instance {!wcnf_codec} accepted: it does not check the
    literals again. *)

type options = {
  algorithm : Msu_maxsat.Maxsat.algorithm;
  encoding : Msu_card.Card.encoding option;  (** [None] = server default *)
  timeout : float option;  (** per-request budget; [None] = server default *)
  max_conflicts : int option;
  priority : int;  (** higher pops sooner; FIFO within one priority *)
  use_cache : bool;  (** allow serving this request from the cache *)
  fault : Msu_guard.Fault.kind option;
      (** armed inside the worker before solving — crash-injection for
          tests of the daemon's isolation, never set in production *)
}

val default_options : options
(** msu4-v2, server-default encoding and budgets, priority 0, cache on. *)

type request =
  | Solve of { wcnf : wire_wcnf; options : options }
  | Stats
  | Cancel of int  (** by job id; cancels a queued or running job *)
  | Shutdown of { drain : bool }
      (** [drain = true] finishes queued and running work first;
          [false] cancels everything through the kill ladder *)

type latency = { l_count : int; l_mean : float; l_p50 : float; l_p95 : float }

type stats = {
  uptime : float;
  requests : int;  (** solve requests received *)
  completed : int;  (** results delivered (cached or solved) *)
  hits : int;
  misses : int;
  rejected : int;  (** admission-control rejections *)
  crashes : int;  (** workers that died without a sound result *)
  cancelled : int;
  queue_depth : int;
  running : int;  (** workers busy right now *)
  workers_total : int;  (** pool size (busy + idle) *)
  hit_rate : float;
      (** hits / (hits + misses), 0 before the first lookup *)
  cache_entries : int;
  outcomes : (string * int) list;
      (** delivered results per outcome label ("optimum", "bounds",
          "hard_unsat", "crashed") *)
  per_algorithm : (string * latency) list;
      (** client-visible solve latency (seconds) per algorithm label;
          cache hits land under the requested algorithm *)
  prometheus : string;
      (** the server's metrics registry rendered in Prometheus text
          exposition format — what [mserve --metrics-file] writes *)
}

type reply =
  | Accepted of { id : int }
  | Rejected of { reason : string }  (** queue full, draining, bad request *)
  | Result of {
      id : int;
      outcome : Msu_maxsat.Types.outcome;
      model : bool array option;
      cached : bool;
      elapsed : float;  (** server-side seconds from accept to result *)
    }
  | Stats_report of stats
  | Cancel_ack of { id : int; found : bool }
  | Bye  (** shutdown acknowledged *)

val wcnf_codec : wire_wcnf Msu_frame.Frame.codec
(** Reading rejects, as ["malformed instance"], a [w_vars] above
    {!max_vars}, a literal whose variable is not below [w_vars] and a
    weight below 1, so a decoded instance is safe for {!of_wire}. *)

val options_codec : options Msu_frame.Frame.codec
val request_codec : request Msu_frame.Frame.codec
val reply_codec : reply Msu_frame.Frame.codec

val encode : request -> bytes
(** One request frame. *)

val decode_frames : Buffer.t -> request list
(** Decode and remove every whole request frame accumulated in [buf]; a
    trailing partial frame stays buffered.
    @raise Msu_frame.Frame.Malformed or {!Msu_frame.Frame.Version_mismatch}. *)
