(** The one byte format for every pipe, socket and file.

    A frame is a 29-byte header and a payload:

    {v
    magic    4 bytes  "MSSU"
    version  4 bytes  {!version}, big-endian
    digest  16 bytes  MD5 of the tag, length and payload bytes
    tag      1 byte   {!tag}
    length   4 bytes  payload bytes, big-endian, at most 2{^28}
    v}

    One rule covers bad input everywhere: a stream is trusted up to its
    first frame that is short, over-long, of another version, or fails
    its digest.  A file stops loading there; a pipe drops a torn tail;
    a socket answers a wrong version and closes on anything else.

    Payloads are written and read by typed {!codec}s.  Decoders check
    every count against the bytes left before they allocate, and every
    kind of bad input raises {!Malformed}, so corrupt bytes can neither
    crash a reader nor decode into a value out of range.  Constructors
    travel by name or by a number written in their codec, never by
    declaration order. *)

type tag =
  | Request  (** service request *)
  | Reply  (** service reply *)
  | Record  (** service journal record *)
  | Entry  (** service cache entry *)
  | Bracket  (** certified lb/ub bracket and the incumbent behind ub *)
  | Clause  (** portfolio learnt clause *)
  | Event  (** observability event, as its JSON line *)
  | Result  (** a worker's result: the last frame on its up pipe *)

val version : int
val header_bytes : int

exception Malformed of string
(** Every kind of bad input: bad magic, tag, length or digest, a
    truncated frame, a payload its codec rejects. *)

exception Version_mismatch of int
(** The right magic word, but this other version. *)

(** {1 Payloads} *)

type src
(** A cursor over one payload. *)

type 'a codec = { write : Buffer.t -> 'a -> unit; read : src -> 'a }
(** Every codec writes at least one byte, which is what lets a count be
    checked against the bytes left. *)

val malformed : string -> 'a

val nat : int codec
(** A nonnegative int as a varint; reading refuses a negative one. *)

val int : int codec
val bool : bool codec
val float : float codec
val string : string codec
val bits : bool array codec
val option : 'a codec -> 'a option codec
val array : 'a codec -> 'a array codec
val list : 'a codec -> 'a list codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val result : 'a codec -> 'b codec -> ('a, 'b) result codec

val map : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
(** [map into out c] writes [into v] with [c] and reads [out] of what
    [c] read; [out] may refuse a value with {!malformed}. *)

val named : ('a -> string) -> (string -> 'a option) -> 'a codec
(** A constructor by its name; reading refuses an unknown name. *)

(** {1 Frames} *)

type t = { tag : tag; payload : src }
(** One whole frame whose digest matched. *)

val encode : tag -> 'a codec -> 'a -> bytes

val decode : tag -> 'a codec -> t -> 'a
(** @raise Malformed for another tag, a payload the codec rejects, or
    bytes left over. *)

val parse : string -> int -> (t * int) option
(** [parse s pos]: the frame starting at [pos] and the offset past it,
    or [None] while [s] holds only part of it.
    @raise Malformed or {!Version_mismatch} on a bad frame. *)

val write : Unix.file_descr -> bytes -> unit
(** All of an encoded frame, short writes and [EINTR] retried. *)

val input : Unix.file_descr -> t option
(** Blocking read of exactly one frame; [None] on end of file before
    its first byte.  @raise Malformed (a truncated frame too) or
    {!Version_mismatch}. *)

type reader
(** The bytes of a pipe or socket past its last whole frame. *)

val reader : unit -> reader

val drain : reader -> Unix.file_descr -> (t -> unit) -> bool
(** Read all the descriptor has ([EAGAIN] ends a nonblocking one) and
    pass each whole frame, in order, to the function, which must decode
    it before returning; [false] at end of file.  The first bad frame
    raises {!Malformed} or {!Version_mismatch}; from then on the
    stream's bytes are read and dropped.  Exceptions of the function
    pass through. *)

val pending : reader -> int
(** Bytes buffered past the last whole frame: at EOF, a torn tail. *)

(** {1 Files} *)

val read_file : tag -> 'a codec -> string -> 'a list
(** The values of a file of frames up to its first frame that is torn,
    bad, of another tag, or refused by the codec; [[]] for a missing
    file. *)

val write_file : string -> bytes list -> unit
(** Replace a file with these frames: temp file, fsync, rename. *)
