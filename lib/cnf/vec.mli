(** Growable arrays.

    A thin, allocation-conscious dynamic array used throughout the solver
    stack (trails, watcher lists, clause databases).  Elements beyond
    [size] keep the [dummy] value supplied at creation so that the
    backing array never holds stale pointers the GC would retain. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty vector.  [dummy] fills unused slots. *)

val make : int -> dummy:'a -> 'a t
(** [make n ~dummy] is a vector of size [n] filled with [dummy]. *)

val of_list : dummy:'a -> 'a list -> 'a t

val of_array : dummy:'a -> 'a array -> 'a t
(** The array is copied. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  Bounds-checked against [size]. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Amortized O(1) append. *)

val reserve : 'a t -> int -> unit
(** [reserve v n] makes room for [n] elements in all, so pushes up to
    that size reallocate nothing. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument if empty. *)

val last : 'a t -> 'a

val clear : 'a t -> unit
(** Resets size to 0 and overwrites slots with [dummy]. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to the first [n] elements. *)

val grow_to : 'a t -> int -> 'a -> unit
(** [grow_to v n x] extends [v] with copies of [x] until [size v >= n]. *)

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] in O(1) by moving the last
    element into its place.  Order is not preserved. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val filter_in_place : ('a -> bool) -> 'a t -> unit
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val copy : 'a t -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)

val unsafe_get : 'a t -> int -> 'a
val unsafe_set : 'a t -> int -> 'a -> unit
