(** Hash-consed combinational circuits.

    A lightweight structurally-hashed gate network (in the spirit of an
    AIG, but with a full gate library for readability).  Constructors
    perform constant folding and local simplification, so structurally
    equal subcircuits are shared and trivial gates never materialize.

    Circuits convert to CNF by Tseitin transformation ({!tseitin}), which
    is how the generators build equivalence-checking and BMC instances. *)

type t
(** A circuit builder: owns the node table. *)

type node
(** A signal in some builder.  Nodes from different builders must not be
    mixed (unchecked). *)

val create : unit -> t

val input : t -> node
(** Allocates the next primary input. *)

val num_nodes : t -> int

val const : t -> bool -> node
val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor_ : t -> node -> node -> node
val nand_ : t -> node -> node -> node
val nor_ : t -> node -> node -> node
val xnor_ : t -> node -> node -> node

val mux : t -> sel:node -> node -> node -> node
(** [mux c ~sel a b] is [sel ? a : b]. *)

val and_list : t -> node list -> node
(** Conjunction; [true] for the empty list. *)

val or_list : t -> node list -> node
(** Disjunction; [false] for the empty list. *)

val eval : t -> node -> bool array -> bool
(** [eval c n inputs] simulates the cone of [n]; [inputs.(i)] is the
    value of input [i] (missing inputs read as false). *)

val equal_node : node -> node -> bool
(** Structural equality (constant time thanks to hash-consing). *)

type cnf_map = {
  input_lits : Msu_cnf.Lit.t array;  (** literal of each primary input *)
  lit_of : node -> Msu_cnf.Lit.t;
      (** literal of any node inside the encoded cones
          @raise Not_found for nodes outside them *)
}

val tseitin :
  ?input_lits:Msu_cnf.Lit.t array -> t -> Msu_cnf.Sink.t -> node list -> cnf_map
(** Encodes the cones of the given roots with the standard two-sided
    Tseitin clauses.  Every primary input of the circuit receives a
    literal (inputs outside the cones are simply unconstrained).
    [input_lits] supplies the input literals — e.g. shared with another
    encoded circuit to form a miter; fresh ones are allocated when
    omitted.  @raise Invalid_argument on a length mismatch. *)

val assert_node : t -> Msu_cnf.Sink.t -> node -> cnf_map
(** [tseitin] of the single root plus a unit clause forcing it true. *)
