(** Instance fingerprint cache: LRU over proven optima.

    Keys are {!Msu_cnf.Canon.fingerprint} digests; values are the
    proven optimum cost and its model.  Only [Optimum]-with-model
    results are cached — they are the only entries a hit can cheaply
    re-verify.  Every hit is re-checked by {!Msu_maxsat.Certify.recost}
    against the {e requesting} instance before being served, so a stale
    or corrupted entry (or an outright fingerprint collision) degrades
    to a miss, never to a wrong answer.

    Optionally persists to disk as one {!Msu_frame.Frame} per entry
    (atomic temp file + fsync + rename); the load path trusts nothing
    and stops at the first torn or bad frame. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val length : t -> int

val store : t -> fingerprint:string -> cost:int -> model:bool array -> unit
(** Insert (or refresh) an entry, evicting the least-recently-used one
    at capacity.  The model is copied. *)

val find : t -> fingerprint:string -> Msu_cnf.Wcnf.t -> (int * bool array) option
(** Look up a fingerprint and re-cost the stored model on [w] (padded
    to [w]'s variable count).  A failed re-cost evicts the entry and
    reports a miss. *)

val save : t -> string -> unit
(** Write a snapshot atomically; I/O errors are swallowed (the cache is
    an accelerator, not a database). *)

val load : capacity:int -> string -> t
(** Load a snapshot: the entries before its first torn or bad frame;
    a missing or alien file gives an empty cache. *)

val entry_codec : (string * int * bool array) Msu_frame.Frame.codec
(** Fingerprint (not empty), cost, model. *)
