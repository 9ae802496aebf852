(** Canonical forms and fingerprints of WCNF instances.

    Two instances with equal fingerprints have the {e same cost
    function} over models: canonicalization sorts literals within each
    clause, drops duplicated literals, sorts and dedups hard clauses,
    merges duplicated soft clauses by summing their weights, and
    forgets declared-but-unreferenced variables (they are free and
    cost-irrelevant).  All of these transforms preserve every model's
    cost exactly, so a cached optimum for one fingerprint is the
    optimum of every instance hashing to it — which the solve service
    still double-checks by re-costing the cached model on the
    {e requesting} instance before serving a hit. *)

val fingerprint : Wcnf.t -> string
(** MD5 hex digest of the instance's canonical text, which is built in
    one pass over the instance; the input is not modified.  Permuted,
    duplicated or re-weighted presentations of one cost function
    collide by design; distinct cost functions differ (up to hash
    collisions).  The text is fixed, so digests persisted in a cache
    file stay valid across versions. *)

val compare_clause : Lit.t array -> Lit.t array -> int
(** Total order on clauses: length first, then literal-wise. *)

val norm_clause : Lit.t array -> Lit.t array
(** Sorted copy with duplicated literals removed. *)
