(** Flat structural netlists.

    Unlike {!Circuit}, a netlist is a plain array of gates addressed by
    signal index, with no hashing or simplification.  That makes it the
    right representation for {e fault injection}: mutating one gate's
    function models a design error, which is exactly how the
    design-debugging MaxSAT benchmarks of Safarpour et al. (FMCAD'07)
    are constructed.

    Signals [0 .. n_inputs-1] are primary inputs; gate [i] drives signal
    [n_inputs + i]; gate operands must reference earlier signals. *)

type kind = And | Or | Xor | Nand | Nor | Xnor | Not | Buf

type gate = { kind : kind; a : int; b : int }
(** [b] is ignored for [Not] and [Buf]. *)

type t = { n_inputs : int; gates : gate array; outputs : int array }

val signal_count : t -> int

val validate : t -> unit
(** @raise Invalid_argument on dangling operand references or outputs. *)

val eval : t -> bool array -> bool array
(** [eval nl inputs] returns the value of every signal. *)

val eval_outputs : t -> bool array -> bool array

val random : Random.State.t -> n_inputs:int -> n_gates:int -> n_outputs:int -> t
(** A random well-formed netlist whose operands are biased toward recent
    signals, giving deep, reconvergent cones like synthesized logic. *)

val mutate_gate : Random.State.t -> t -> t * int
(** Returns a copy with one randomly chosen gate's [kind] replaced by a
    different kind (a "design error"), and the gate's index. *)

val tseitin :
  ?inputs:Msu_cnf.Lit.t array -> t -> Msu_cnf.Sink.t -> Msu_cnf.Lit.t array
(** Encodes every gate; returns one literal per signal.  [inputs]
    supplies the input literals (shared between two netlists to build a
    miter); fresh ones are allocated when omitted. *)

val miter : t -> t -> Msu_cnf.Sink.t -> unit
(** Asserts that the two netlists (same interface) differ on at least
    one output for some input: the resulting clause set is satisfiable
    iff the netlists are {e not} equivalent.
    @raise Invalid_argument on interface mismatch. *)

val kind_to_string : kind -> string

val emit_gate :
  Msu_cnf.Sink.t -> kind -> Msu_cnf.Lit.t -> Msu_cnf.Lit.t -> Msu_cnf.Lit.t -> unit
(** [emit_gate sink kind z a b] emits the two-sided Tseitin clauses for
    [z = kind(a, b)] ([b] ignored for [Not]/[Buf]).  Exposed so that
    encoders needing per-gate clause interception (e.g. design-debugging
    relaxation groups) can reuse the gate semantics. *)
