(** Durable write-ahead journal of admitted service jobs.

    Every job the daemon accepts is appended (and fsync'd) as an
    [Admitted] record {e before} the client sees [Accepted]; delivering
    its result appends [Completed].  A daemon killed mid-load replays
    the journal on restart and re-enqueues every admitted-but-not-
    completed job, so accepting a job really is a durable promise.

    On-disk format: one {!Msu_frame.Frame} per record, tagged
    [Record].  Replay stops at the first frame that is torn, fails its
    digest or does not decode (the torn tail a crash mid-append leaves),
    keeping every record before it.  A missing file, or an alien one,
    replays as empty; so does a journal written by a build older than
    the frame format.

    {!restart} compacts: the replayed pending records are rewritten to
    a fresh journal (atomic temp file + fsync + rename), so completed
    history never accumulates across restarts. *)

type record =
  | Admitted of {
      id : int;
      wcnf : Protocol.wire_wcnf;
      options : Protocol.options;
      submitted : float;
    }
  | Completed of { id : int }

type t

val codec : record Msu_frame.Frame.codec

val replay : string -> record list
(** Every intact record, file order.  A missing or alien file, or a
    corrupt first record, gives []; a torn tail only loses the tail. *)

val pending : record list -> record list
(** The [Admitted] records with no matching [Completed] — the jobs a
    restarted daemon owes results for, admission order. *)

val restart : string -> keep:record list -> t
(** Rewrite the journal to hold exactly [keep] (compaction), then open
    it for appending.  @raise Unix.Unix_error when the path is
    unusable — a daemon asked to journal must fail loudly if it
    can't. *)

val append : t -> record -> unit
(** Append one record and fsync.  Write errors (disk full, …) mark the
    journal dead and are swallowed: durability degrades, the daemon
    survives. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The open journal file, which a forked worker must not hold. *)
