module Vec = Msu_cnf.Vec
module Lit = Msu_cnf.Lit

(* Literal values: 1 = true, 0 = false, -1 = unassigned.  Literals are
   stored packed (Lit.to_int); [value_of] XORs the variable value with
   the literal's sign bit so negation costs one instruction.

   The clause database lives in a flat int arena: one growable int
   array of packed literals with a 4-word inline header per clause, and
   clauses addressed by integer offsets ("clause refs", [cr]) instead
   of pointers.  Unit propagation therefore touches only unboxed int
   arrays — no clause records, no watcher records, no GC pressure on
   the hot path.  Offsets survive arena growth (growth reallocates the
   backing array but offsets are positions, not addresses); compaction
   (see [compact]) is the only operation that moves clauses, and it
   rewrites every live reference (watchers, reasons, clause lists,
   selector groups).  Adding a clause allocates nothing but its arena
   words: literals are packed into a reused scratch buffer, sorted
   there by a closure-free heap sort ([sort_by_key]) and copied in.

   Arena layout, clause at offset [cr]:
     arena.(cr)     size (number of literals)
     arena.(cr+1)   info word: bit 0 = learnt, bit 1 = removed,
                    bit 2 = relocated (transient, inside [compact] only),
                    bit 3 = share-safe (derivable from shareable axioms
                    alone, so the clause is sound for the whole instance
                    and may be exported to portfolio peers),
                    bits 4.. = LBD (literal block distance)
     arena.(cr+2)   activity as IEEE-754 bits (sign dropped: always >= 0);
                    during [compact], forwarding offset of relocated clauses
     arena.(cr+3)   proof uid (-1 when untracked)
     arena.(cr+4..) the literals; watched literals at slots 0 and 1 *)

type psource =
  | P_axiom of int (* as-given clause; id >= 0 when tracked, -1 otherwise *)
  | P_resolved of int list (* derived; complete antecedent uid list *)

type result = Sat | Unsat | Unknown

(* Resolution witness of an eliminated variable: the original clauses
   that contained it, saved (with their proof uids and share-safety) so
   [model] can extend assignments over the variable and a later
   [add_clause] naming it can re-introduce them verbatim.  [wlive] goes
   false on re-introduction; the entry stays in the stack so replay
   order is preserved for the variables still eliminated. *)
type witness = {
  wvar : int;
  mutable wlive : bool;
  wclauses : (int * bool * int array) list; (* proof uid, share-safe, sorted lits *)
}

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  deleted_clauses : int;
  compactions : int;
}

type t = {
  track_proof : bool;
  debug : bool; (* run [check_invariants] after every compaction *)
  mutable num_vars : int;
  mutable ok : bool;
  (* Flat clause storage. *)
  mutable arena : int array;
  mutable arena_size : int; (* first free word *)
  mutable wasted : int; (* words owned by removed clauses *)
  (* Per-variable state; arrays are resized in [ensure_vars]. *)
  mutable assigns : int array; (* -1 / 0 / 1, indexed by var *)
  mutable level : int array;
  mutable reason : int array; (* clause ref or -1, indexed by var *)
  mutable unit_proof : int array;
  (* proof uid (-1 = none) closing the derivation of the level-0 unit
     fact for this var *)
  mutable unit_safe : Bytes.t;
  (* '\001' when the level-0 unit fact for this var is derivable from
     shareable axioms alone (see the share-safe info bit) *)
  mutable activity : float array;
  mutable polarity : Bytes.t; (* saved phase; doubles as model cache *)
  mutable seen : Bytes.t; (* scratch for analyze *)
  mutable lbd_stamp : int array; (* per-level scratch for LBD counting *)
  mutable lbd_tick : int;
  (* Watcher lists, indexed by packed literal: flat (clause ref,
     blocking literal) int pairs, stride 2.  MiniSat 2.2 blocking
     literals: when the blocker is already true the clause is satisfied
     and propagation skips the arena dereference entirely. *)
  mutable watch_data : int array array;
  mutable watch_size : int array; (* used ints (2 x watcher count) *)
  (* Activation-literal clause groups, in int arrays.  [sel_head.(v)]
     is [no_group] when variable [v] guards no group, else the offset
     of its first member cell in [sel_cells] ([nil] for an empty
     group).  A cell is two words, a clause ref and the offset of the
     next cell; a clause in several groups has a cell in each.
     [retire_selector] satisfies a group with a unit and marks its
     clauses removed; the next compaction reclaims them, drops their
     watchers and rebuilds the cells. *)
  mutable sel_head : int array;
  mutable sel_cells : int array;
  mutable sel_cells_size : int; (* used words *)
  (* Inprocessing state.  [frozen] variables (selectors, soft/blocking
     vars, totalizer outputs) may never be eliminated or probed;
     [assumed] marks the current [solve] call's assumption variables as
     transiently protected; [elim] flags eliminated variables, whose
     resolution witnesses live in [witnesses] (newest first) and
     [witness_of].  [dirty] counts structural changes since the last
     pass, gating the automatic restart-boundary pass. *)
  mutable frozen : Bytes.t;
  mutable assumed : Bytes.t;
  mutable elim : Bytes.t;
  mutable witnesses : witness list;
  witness_of : (int, witness) Hashtbl.t;
  mutable dirty : int;
  mutable inpro_backoff : int;
      (* threshold multiplier, doubled after a pass that accomplished
         nothing (this formula has nothing left to simplify), reset by a
         productive one *)
  mutable inprocess_on : bool;
  mutable order : Idx_heap.t;
  clauses : int Vec.t; (* problem clause refs *)
  learnts : int Vec.t; (* learnt clause refs *)
  (* Proof store: uid -> derivation.  Pseudo-clauses (level-0 unit
     proofs, the refutation) are uids with no arena presence, so the
     proof DAG survives clause deletion and compaction untouched. *)
  proof : psource Vec.t;
  trail : int Vec.t; (* packed literals, assignment order *)
  trail_lim : int Vec.t; (* trail size at each decision level *)
  scratch_learnt : int Vec.t; (* reused per-conflict learnt-clause buffer *)
  scratch_clear : int Vec.t; (* vars whose [seen] bit awaits clearing *)
  mutable scratch_lits : int array; (* packed literals of the clause being added *)
  mutable scratch_keys : int array; (* [watch_order]'s sort keys *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnts : float;
  (* Refutation certificate: a pseudo-clause (proof uid) whose
     antecedents derive the empty clause, set on a level-0 conflict. *)
  mutable refutation : int; (* proof uid, -1 = none *)
  mutable conflict_assumps : int list; (* packed lits *)
  mutable drup_log : Drup.log option;
  (* Budgets for the current [solve] call. *)
  mutable deadline : float;
  mutable conflict_budget : int;
  mutable budget_checks : int;
  mutable deadline_hit : bool;
  mutable guard : Msu_guard.Guard.t option;
  mutable guard_conflicts_base : int; (* last n_conflicts synced to guard *)
  mutable guard_props_base : int;
  (* Statistics. *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_literals : int;
  mutable n_deleted : int;
  mutable n_compactions : int;
  mutable event_hook : Msu_obs.Obs.Event.kind -> unit;
  (* Phase tracer.  [prof_on] caches [Span.enabled tracer] so the search
     loop pays one bool load per iteration when profiling is off.  The
     two hot sub-phases (propagate, conflict analysis) are far too
     frequent for per-call spans; their self-time accumulates here and
     is retro-emitted as two aggregate spans when the solve call ends. *)
  mutable tracer : Msu_obs.Obs.Span.t;
  mutable prof_on : bool;
  mutable prof_propagate : float;
  mutable prof_analyze : float;
  (* Portfolio clause sharing: [export_hook] fires for every share-safe
     learnt passing the LBD/length filter; [importer] is drained at
     restart boundaries (decision level 0), where attaching foreign
     clauses cannot break the watcher invariants. *)
  mutable export_hook : (lbd:int -> Lit.t array -> unit) option;
  mutable importer : (unit -> Lit.t array list) option;
  mutable n_exported : int;
  mutable n_imported : int;
}

let var_decay = 1. /. 0.95
let clause_decay = 1. /. 0.999
let restart_base = 100
let header_words = 4
let clause_words size = size + header_words
let lbd_max = (1 lsl 24) - 1

(* [sel_head] / cell-link sentinels: no group at all, end of a group. *)
let no_group = -1
let nil = -2

(* Standard parallel-SAT export filter: short, low-LBD learnts only. *)
let export_max_lbd = 4
let export_max_len = 8

(* Process-wide CDCL metrics (Msu_obs registry). *)
let m_calls = Msu_obs.Obs.Metrics.counter ~help:"SAT solve calls" "msu_solver_calls_total"

let m_restarts =
  Msu_obs.Obs.Metrics.counter ~help:"CDCL restarts" "msu_solver_restarts_total"

let m_reduce_db =
  Msu_obs.Obs.Metrics.counter ~help:"learnt-DB reductions" "msu_solver_reduce_db_total"

let m_compactions =
  Msu_obs.Obs.Metrics.counter ~help:"clause-arena compactions"
    "msu_solver_arena_compactions_total"

let m_call_seconds =
  Msu_obs.Obs.Metrics.histogram ~help:"wall-clock seconds per SAT call"
    "msu_solver_call_seconds"

let m_call_conflicts =
  Msu_obs.Obs.Metrics.histogram ~help:"conflicts per SAT call"
    ~buckets:(Msu_obs.Obs.Metrics.log_buckets ~lo:1.0 ~hi:1e6 13)
    "msu_solver_call_conflicts"

let m_call_minor_words =
  Msu_obs.Obs.Metrics.histogram ~help:"GC minor words allocated per SAT call"
    ~buckets:(Msu_obs.Obs.Metrics.log_buckets ~lo:1e2 ~hi:1e9 15)
    "msu_solver_call_minor_words"

let create ?(track_proof = true) ?(debug = false) () =
  let s =
    {
      track_proof;
      debug;
      num_vars = 0;
      ok = true;
      arena = Array.make 1024 0;
      arena_size = 0;
      wasted = 0;
      assigns = [||];
      level = [||];
      reason = [||];
      unit_proof = [||];
      unit_safe = Bytes.empty;
      activity = [||];
      polarity = Bytes.empty;
      seen = Bytes.empty;
      lbd_stamp = [||];
      lbd_tick = 0;
      watch_data = [||];
      watch_size = [||];
      sel_head = [||];
      sel_cells = [||];
      sel_cells_size = 0;
      frozen = Bytes.empty;
      assumed = Bytes.empty;
      elim = Bytes.empty;
      witnesses = [];
      witness_of = Hashtbl.create 16;
      dirty = 0;
      inpro_backoff = 1;
      (* Off by default: raw solver users (drivers, benches) see the
         classic CDCL; MaxSAT algorithms opt in via [set_inprocess]
         when [Types.config.inprocess] asks for it. *)
      inprocess_on = false;
      order = Idx_heap.create ~score:(fun _ -> 0.);
      clauses = Vec.create ~dummy:0;
      learnts = Vec.create ~dummy:0;
      proof = Vec.create ~dummy:(P_axiom (-1));
      trail = Vec.create ~dummy:0;
      trail_lim = Vec.create ~dummy:0;
      scratch_learnt = Vec.create ~dummy:0;
      scratch_clear = Vec.create ~dummy:0;
      scratch_lits = Array.make 16 0;
      scratch_keys = Array.make 16 0;
      qhead = 0;
      var_inc = 1.;
      cla_inc = 1.;
      max_learnts = 1000.;
      refutation = -1;
      conflict_assumps = [];
      drup_log = None;
      deadline = infinity;
      conflict_budget = max_int;
      budget_checks = 0;
      deadline_hit = false;
      guard = None;
      guard_conflicts_base = 0;
      guard_props_base = 0;
      n_decisions = 0;
      n_propagations = 0;
      n_conflicts = 0;
      n_restarts = 0;
      n_learnt_literals = 0;
      n_deleted = 0;
      n_compactions = 0;
      event_hook = (fun _ -> ());
      tracer = Msu_obs.Obs.Span.disabled;
      prof_on = false;
      prof_propagate = 0.0;
      prof_analyze = 0.0;
      export_hook = None;
      importer = None;
      n_exported = 0;
      n_imported = 0;
    }
  in
  s.order <- Idx_heap.create ~score:(fun v -> s.activity.(v));
  s

let num_vars s = s.num_vars
let set_drup s log = s.drup_log <- Some log
let num_clauses s = Vec.size s.clauses
let num_learnts s = Vec.size s.learnts
let arena_words s = s.arena_size
let arena_wasted s = s.wasted

let live_watchers s =
  let n = ref 0 in
  for lit = 0 to (2 * s.num_vars) - 1 do
    n := !n + (s.watch_size.(lit) / 2)
  done;
  !n

(* ----- clause header accessors ----- *)

let c_size (a : int array) cr = Array.unsafe_get a cr
let c_info (a : int array) cr = Array.unsafe_get a (cr + 1)
let c_learnt a cr = c_info a cr land 1 <> 0
let c_removed a cr = c_info a cr land 2 <> 0
let c_safe a cr = c_info a cr land 8 <> 0
let c_lbd a cr = c_info a cr lsr 4
let set_lbd (a : int array) cr lbd = a.(cr + 1) <- (c_info a cr land 15) lor (lbd lsl 4)
let c_uid a cr = Array.unsafe_get a (cr + 3)
let c_lit (a : int array) cr i = Array.unsafe_get a (cr + header_words + i)

(* Activity as float bits in one arena word.  Activities are >= 0, so
   the IEEE sign bit is 0 and the 63-bit native int keeps the value
   exactly; restoring masks the sign bit the int64 sign extension may
   have smeared. *)
let c_activity a cr =
  Int64.float_of_bits (Int64.logand (Int64.of_int (Array.unsafe_get a (cr + 2))) Int64.max_int)

let set_activity (a : int array) cr (f : float) = a.(cr + 2) <- Int64.to_int (Int64.bits_of_float f)

let drup_add s lits =
  match s.drup_log with
  | None -> ()
  | Some log -> Drup.log_add log (Array.map Lit.of_int_unsafe lits)

let drup_delete_cr s cr =
  match s.drup_log with
  | None -> ()
  | Some log ->
      let a = s.arena in
      Drup.log_delete log
        (Array.init (c_size a cr) (fun i -> Lit.of_int_unsafe (c_lit a cr i)))

let new_proof s src =
  let u = Vec.size s.proof in
  Vec.push s.proof src;
  u

(* ----- arena allocation ----- *)

let ensure_arena s extra =
  let need = s.arena_size + extra in
  let cap = Array.length s.arena in
  if need > cap then begin
    let a' = Array.make (max need (2 * cap)) 0 in
    Array.blit s.arena 0 a' 0 s.arena_size;
    s.arena <- a'
  end

(* The clause is [lits.(0 .. size - 1)]. *)
let alloc_clause s ~learnt ~safe ~uid (lits : int array) size =
  ensure_arena s (clause_words size);
  let cr = s.arena_size in
  let a = s.arena in
  a.(cr) <- size;
  a.(cr + 1) <- (if learnt then 1 else 0) lor (if safe then 8 else 0);
  a.(cr + 2) <- 0 (* activity 0.0 *);
  a.(cr + 3) <- uid;
  Array.blit lits 0 a (cr + header_words) size;
  s.arena_size <- cr + clause_words size;
  cr

let mark_removed s cr =
  let a = s.arena in
  if not (c_removed a cr) then begin
    a.(cr + 1) <- c_info a cr lor 2;
    s.wasted <- s.wasted + clause_words (c_size a cr)
  end

let grow_array a n dummy =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n ((2 * cap) + 2)) dummy in
    Array.blit a 0 a' 0 cap;
    a'
  end

let grow_bytes b n =
  let cap = Bytes.length b in
  if n <= cap then b
  else begin
    let b' = Bytes.make (max n ((2 * cap) + 2)) '\000' in
    Bytes.blit b 0 b' 0 cap;
    b'
  end

let ensure_vars s n =
  if n > s.num_vars then begin
    let old = s.num_vars in
    s.assigns <- grow_array s.assigns n (-1);
    s.level <- grow_array s.level n (-1);
    s.reason <- grow_array s.reason n (-1);
    s.unit_proof <- grow_array s.unit_proof n (-1);
    s.unit_safe <- grow_bytes s.unit_safe n;
    s.frozen <- grow_bytes s.frozen n;
    s.assumed <- grow_bytes s.assumed n;
    s.elim <- grow_bytes s.elim n;
    s.activity <- grow_array s.activity n 0.;
    Idx_heap.retarget s.order s.activity;
    s.polarity <- grow_bytes s.polarity n;
    s.seen <- grow_bytes s.seen n;
    s.lbd_stamp <- grow_array s.lbd_stamp (n + 1) 0;
    s.sel_head <- grow_array s.sel_head n no_group;
    let wcap = 2 * Array.length s.assigns in
    if wcap > Array.length s.watch_data then begin
      s.watch_data <- grow_array s.watch_data wcap [||];
      s.watch_size <- grow_array s.watch_size wcap 0
    end;
    Idx_heap.ensure s.order n;
    s.num_vars <- n;
    for v = old to n - 1 do
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      s.unit_proof.(v) <- -1;
      Bytes.unsafe_set s.unit_safe v '\000';
      Idx_heap.insert s.order v
    done
  end

let new_var s =
  let v = s.num_vars in
  ensure_vars s (v + 1);
  v

let freeze s v =
  ensure_vars s (v + 1);
  Bytes.unsafe_set s.frozen v '\001'

let frozen s v = v < s.num_vars && Bytes.get s.frozen v <> '\000'
let is_eliminated s v = v < s.num_vars && Bytes.get s.elim v <> '\000'
let set_inprocess s b = s.inprocess_on <- b

let value_of s l =
  let a = Array.unsafe_get s.assigns (l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = Vec.size s.trail_lim

let seen_get s v = Bytes.unsafe_get s.seen v <> '\000'
let seen_set s v b = Bytes.unsafe_set s.seen v (if b then '\001' else '\000')

(* Variable / clause activity bookkeeping (VSIDS). *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.num_vars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Idx_heap.notify_increased s.order v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

let cla_bump s cr =
  let a = s.arena in
  let act = c_activity a cr +. s.cla_inc in
  set_activity a cr act;
  if act > 1e20 then begin
    Vec.iter (fun cr -> set_activity a cr (c_activity a cr *. 1e-20)) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* LBD: number of distinct decision levels among a clause's literals
   (Glucose).  Level-0 literals don't count; a stamp-per-level scratch
   avoids clearing between calls. *)

let lbd_begin s =
  s.lbd_tick <- s.lbd_tick + 1;
  s.lbd_tick

let lbd_count s tick lvl n =
  if lvl > 0 && s.lbd_stamp.(lvl) <> tick then begin
    s.lbd_stamp.(lvl) <- tick;
    n + 1
  end
  else n

let compute_lbd_clause s cr =
  let a = s.arena in
  let tick = lbd_begin s in
  let n = ref 0 in
  for i = 0 to c_size a cr - 1 do
    n := lbd_count s tick s.level.(c_lit a cr i lsr 1) !n
  done;
  min !n lbd_max

(* Watched literals.  A clause watches lits.(0) and lits.(1); it is
   registered under the negation of each watched literal so that
   assigning a literal [p] true triggers inspection of watches p.
   Each watcher caches the other watched literal as its blocker. *)

let push_watch s lit cr blocker =
  let d = s.watch_data.(lit) in
  let n = s.watch_size.(lit) in
  let d =
    if n + 2 > Array.length d then begin
      let d' = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      s.watch_data.(lit) <- d';
      d'
    end
    else d
  in
  d.(n) <- cr;
  d.(n + 1) <- blocker;
  s.watch_size.(lit) <- n + 2

let attach s cr =
  let a = s.arena in
  assert (c_size a cr >= 2);
  let l0 = c_lit a cr 0 and l1 = c_lit a cr 1 in
  push_watch s (l0 lxor 1) cr l1;
  push_watch s (l1 lxor 1) cr l0

(* Assignment trail. *)

let enqueue s l reason =
  assert (value_of s l < 0);
  let v = l lsr 1 in
  s.assigns.(v) <- (l land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l;
  (* At level 0 the literal is a proved unit; close its derivation so
     conflict analysis and core extraction can cite it wholesale, and
     record whether the derivation used shareable axioms only. *)
  if decision_level s = 0 then begin
    (if reason < 0 then Bytes.unsafe_set s.unit_safe v '\000'
     else begin
       let a = s.arena in
       let safe = ref (c_safe a reason) in
       for i = 0 to c_size a reason - 1 do
         let q = c_lit a reason i in
         if q lsr 1 <> v && Bytes.unsafe_get s.unit_safe (q lsr 1) = '\000' then
           safe := false
       done;
       Bytes.unsafe_set s.unit_safe v (if !safe then '\001' else '\000')
     end);
    if s.track_proof then
      s.unit_proof.(v) <-
        (if reason < 0 then -1
         else begin
           let a = s.arena in
           let ants = ref [ c_uid a reason ] in
           for i = 0 to c_size a reason - 1 do
             let q = c_lit a reason i in
             if q lsr 1 <> v then begin
               let p = s.unit_proof.(q lsr 1) in
               if p >= 0 then ants := p :: !ants
             end
           done;
           new_proof s (P_resolved !ants)
         end)
  end

let new_decision_level s = Vec.push s.trail_lim (Vec.size s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = l lsr 1 in
      Bytes.unsafe_set s.polarity v (if s.assigns.(v) = 1 then '\001' else '\000');
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      if not (Idx_heap.in_heap s.order v) then Idx_heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* Keep the shared guard's cumulative counters in step with this call's
   conflict/propagation deltas, then poll it. *)
let sync_guard s =
  match s.guard with
  | None -> false
  | Some g ->
      Msu_guard.Guard.add_conflicts g (s.n_conflicts - s.guard_conflicts_base);
      Msu_guard.Guard.add_propagations g (s.n_propagations - s.guard_props_base);
      s.guard_conflicts_base <- s.n_conflicts;
      s.guard_props_base <- s.n_propagations;
      Msu_guard.Guard.poll g <> None

(* Full budget sample, latching [deadline_hit] on any breach so the next
   [budget_exhausted] check stops the search. *)
let sample_budgets s =
  if not s.deadline_hit then
    if sync_guard s then s.deadline_hit <- true
    else if s.deadline < infinity && Unix.gettimeofday () > s.deadline then
      s.deadline_hit <- true

(* Unit propagation.  Returns the conflicting clause ref, or -1.  The
   whole loop works on raw int arrays: watcher pairs in [watch_data],
   clause literals in the arena; nothing here allocates. *)

let propagate s =
  let conflict = ref (-1) in
  let a = s.arena in
  while !conflict < 0 && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    (* Budget checks otherwise run only at conflict/decision boundaries,
       so a propagation-heavy episode (huge watcher lists, long
       implication chains) could overshoot the deadline unboundedly;
       sample on a propagation-count cadence too. *)
    if s.n_propagations land 0x1fff = 0 then sample_budgets s;
    let wd = s.watch_data.(p) in
    let n = s.watch_size.(p) in
    let i = ref 0 and j = ref 0 in
    let false_lit = p lxor 1 in
    while !i < n do
      let cr = Array.unsafe_get wd !i in
      let blocker = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      (* Blocking literal: if the cached literal is already true the
         clause is satisfied — keep the watch, skip the dereference. *)
      if value_of s blocker = 1 then begin
        Array.unsafe_set wd !j cr;
        Array.unsafe_set wd (!j + 1) blocker;
        j := !j + 2
      end
      else if c_removed a cr then () (* drop lazily; compaction reclaims *)
      else begin
        let base = cr + header_words in
        (* Normalize: the false watched literal goes to slot 1. *)
        let l0 = Array.unsafe_get a base in
        let first =
          if l0 = false_lit then begin
            let l1 = Array.unsafe_get a (base + 1) in
            Array.unsafe_set a base l1;
            Array.unsafe_set a (base + 1) false_lit;
            l1
          end
          else l0
        in
        if value_of s first = 1 then begin
          (* Clause already satisfied: keep the watch. *)
          Array.unsafe_set wd !j cr;
          Array.unsafe_set wd (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* Look for a non-false literal to watch instead. *)
          let size = Array.unsafe_get a cr in
          let k = ref 2 in
          while !k < size && value_of s (Array.unsafe_get a (base + !k)) = 0 do
            incr k
          done;
          if !k < size then begin
            let w = Array.unsafe_get a (base + !k) in
            Array.unsafe_set a (base + 1) w;
            Array.unsafe_set a (base + !k) false_lit;
            push_watch s (w lxor 1) cr first
          end
          else begin
            (* Unit or conflicting: the watch stays. *)
            Array.unsafe_set wd !j cr;
            Array.unsafe_set wd (!j + 1) first;
            j := !j + 2;
            if value_of s first = 0 then begin
              conflict := cr;
              while !i < n do
                Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                incr i;
                incr j
              done;
              s.qhead <- Vec.size s.trail
            end
            else enqueue s first cr
          end
        end
      end
    done;
    s.watch_size.(p) <- !j
  done;
  !conflict

(* ----- arena compaction -----

   Copying collector over the arena: live clauses move to a fresh
   backing array, every live reference (trail reasons first — they keep
   removed-but-locked clauses alive — then the clause lists and the
   selector groups) is rewritten through a forwarding offset stamped
   into the old header, and the watcher lists are rebuilt from the
   surviving clauses, which finally drops the lazily-retained watchers
   of retired/deleted clauses.  Must run at a propagation fixpoint
   (after a conflict-free [propagate]): the watched-literal invariant
   is what makes reattach-by-slots-0/1 correct. *)

let rec compact s =
  let old = s.arena in
  let na = Array.make (Array.length old) 0 in
  let nsize = ref 0 in
  let reloc cr =
    if old.(cr + 1) land 4 <> 0 then old.(cr + 2) (* forwarded *)
    else begin
      let words = clause_words old.(cr) in
      let ncr = !nsize in
      Array.blit old cr na ncr words;
      nsize := ncr + words;
      old.(cr + 1) <- old.(cr + 1) lor 4;
      old.(cr + 2) <- ncr;
      ncr
    end
  in
  for i = 0 to Vec.size s.trail - 1 do
    let v = Vec.get s.trail i lsr 1 in
    if s.reason.(v) >= 0 then s.reason.(v) <- reloc s.reason.(v)
  done;
  let sweep vec =
    let j = ref 0 in
    for i = 0 to Vec.size vec - 1 do
      let cr = Vec.get vec i in
      if old.(cr + 1) land 2 = 0 then begin
        Vec.set vec !j (reloc cr);
        incr j
      end
    done;
    Vec.shrink vec !j
  in
  sweep s.clauses;
  sweep s.learnts;
  (* Selector groups: rebuild the cells, each group's members in their
     old order.  Inprocessing (subsumption, strengthening, elimination)
     can mark individual members removed while the group stays
     registered; drop those here instead of resurrecting them through
     [reloc]. *)
  let cells = s.sel_cells in
  let ncells = Array.make s.sel_cells_size 0 in
  let nk = ref 0 in
  for v = 0 to s.num_vars - 1 do
    let k = ref s.sel_head.(v) in
    if !k <> no_group then begin
      s.sel_head.(v) <- nil;
      let last = ref (-1) in
      while !k >= 0 do
        let cr = cells.(!k) in
        if old.(cr + 1) land 2 = 0 then begin
          ncells.(!nk) <- reloc cr;
          ncells.(!nk + 1) <- nil;
          if !last < 0 then s.sel_head.(v) <- !nk else ncells.(!last + 1) <- !nk;
          last := !nk;
          nk := !nk + 2
        end;
        k := cells.(!k + 1)
      done
    end
  done;
  s.sel_cells <- ncells;
  s.sel_cells_size <- !nk;
  let reclaimed = s.arena_size - !nsize in
  s.arena <- na;
  s.arena_size <- !nsize;
  s.wasted <- 0;
  Array.fill s.watch_size 0 (Array.length s.watch_size) 0;
  let reattach cr = if na.(cr) >= 2 then attach s cr in
  Vec.iter reattach s.clauses;
  Vec.iter reattach s.learnts;
  s.n_compactions <- s.n_compactions + 1;
  Msu_obs.Obs.Metrics.inc m_compactions;
  s.event_hook
    (Msu_obs.Obs.Event.Note
       (Printf.sprintf "arena_gc live=%d reclaimed=%d" !nsize reclaimed));
  if s.debug then check_invariants ~strict:true s

(* Arena/watcher invariant checker (tests, debug builds, post-compaction
   self-check).  Valid at any quiescent point — decision boundaries or
   level 0 — where propagation has reached a fixpoint.  [strict]
   additionally requires the lazily-dropped garbage to be gone: no
   watcher or selector group may reference a removed clause, and no
   wasted words may remain (true immediately after [compact]). *)
and check_invariants ?(strict = false) s =
  let a = s.arena in
  let failf fmt = Printf.ksprintf failwith fmt in
  let check_cr what cr =
    if cr < 0 || cr + header_words > s.arena_size then
      failf "solver invariant: %s ref %d outside arena (size %d)" what cr s.arena_size;
    let size = a.(cr) in
    if size < 0 || cr + clause_words size > s.arena_size then
      failf "solver invariant: %s ref %d has size %d overflowing arena" what cr size;
    if a.(cr + 1) land 4 <> 0 then
      failf "solver invariant: %s ref %d still carries a relocation mark" what cr
  in
  Vec.iter (check_cr "problem clause") s.clauses;
  Vec.iter (check_cr "learnt clause") s.learnts;
  let watch_count = Hashtbl.create 1024 in
  for lit = 0 to (2 * s.num_vars) - 1 do
    let wd = s.watch_data.(lit) in
    let n = s.watch_size.(lit) in
    let i = ref 0 in
    while !i < n do
      let cr = wd.(!i) in
      i := !i + 2;
      check_cr "watcher" cr;
      if c_removed a cr then begin
        if strict then
          failf "solver invariant: watcher of literal %d references removed clause %d"
            lit cr
      end
      else begin
        if lit <> c_lit a cr 0 lxor 1 && lit <> c_lit a cr 1 lxor 1 then
          failf
            "solver invariant: clause %d watched under literal %d but its watched \
             slots are %d/%d"
            cr lit (c_lit a cr 0) (c_lit a cr 1);
        Hashtbl.replace watch_count cr
          (1 + Option.value ~default:0 (Hashtbl.find_opt watch_count cr))
      end
    done
  done;
  let check_watched what cr =
    if (not (c_removed a cr)) && c_size a cr >= 2 then
      match Hashtbl.find_opt watch_count cr with
      | Some 2 -> ()
      | other ->
          failf "solver invariant: %s %d has %d watchers (expected 2)" what cr
            (Option.value ~default:0 other)
  in
  Vec.iter (check_watched "problem clause") s.clauses;
  Vec.iter (check_watched "learnt clause") s.learnts;
  for i = 0 to Vec.size s.trail - 1 do
    let l = Vec.get s.trail i in
    let v = l lsr 1 in
    let r = s.reason.(v) in
    if r >= 0 then begin
      check_cr "reason" r;
      if c_lit a r 0 <> l then
        failf "solver invariant: reason of trail literal %d does not assert it" l
    end
  done;
  for v = 0 to s.num_vars - 1 do
    let k = ref s.sel_head.(v) in
    while !k >= 0 do
      if !k + 2 > s.sel_cells_size then
        failf "solver invariant: selector %d group cell %d outside the cells" v !k;
      let cr = s.sel_cells.(!k) in
      check_cr "selector group member" cr;
      if strict && c_removed a cr then
        failf "solver invariant: selector %d group references removed clause %d" v cr;
      k := s.sel_cells.(!k + 1)
    done
  done;
  for v = 0 to s.num_vars - 1 do
    if Bytes.get s.elim v <> '\000' && Bytes.get s.frozen v <> '\000' then
      failf "solver invariant: frozen variable %d was eliminated" v
  done;
  (* Elimination removes every problem clause mentioning the variable;
     only learnts (implied, hence harmless) may still name it. *)
  Vec.iter
    (fun cr ->
      if not (c_removed a cr) then
        for i = 0 to c_size a cr - 1 do
          let v = c_lit a cr i lsr 1 in
          if Bytes.get s.elim v <> '\000' then
            failf
              "solver invariant: live problem clause %d mentions eliminated variable %d"
              cr v
        done)
    s.clauses;
  if strict && s.wasted <> 0 then
    failf "solver invariant: %d wasted words right after compaction" s.wasted

(* Compact when more than 20%% of the arena is garbage — the MiniSat
   garbage_frac policy.  Callers guarantee a propagation fixpoint. *)
let maybe_compact s = if s.wasted * 5 > s.arena_size then compact s

let gc_arena s =
  assert (decision_level s = 0);
  if s.ok && s.wasted > 0 then compact s

(* Refutation bookkeeping for level-0 conflicts: the conflicting clause
   resolved against the unit proofs of its (all false, level-0)
   literals derives the empty clause. *)

(* The literals are [lits.(off .. off + n - 1)]. *)
let refutation_ants s ~uid (lits : int array) off n =
  let ants = ref [ uid ] in
  for i = off to off + n - 1 do
    let p = s.unit_proof.(lits.(i) lsr 1) in
    if p >= 0 then ants := p :: !ants
  done;
  s.refutation <- new_proof s (P_resolved !ants)

let record_refutation s cr =
  drup_add s [||];
  if s.track_proof then begin
    let a = s.arena in
    refutation_ants s ~uid:(c_uid a cr) a (cr + header_words) (c_size a cr)
  end

(* ----- sorting packed literals -----

   A monomorphic port of the stdlib's ternary heap sort ([Array.sort]),
   keyed by a parallel int array: it makes exactly the moves
   [Array.sort (fun x y -> Int.compare (key x) (key y))] makes, so it
   reproduces that sort's unstable permutation, with no closure and no
   exception.  [maxson] answers [-1] where the stdlib raises [Bottom]. *)

let maxson (keys : int array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if Array.unsafe_get keys i31 < Array.unsafe_get keys (i31 + 1) then i31 + 1 else i31
    in
    if Array.unsafe_get keys x < Array.unsafe_get keys (i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && Array.unsafe_get keys i31 < Array.unsafe_get keys (i31 + 1) then
    i31 + 1
  else if i31 < l then i31
  else -1

let set_kv (keys : int array) (vals : int array) i k v =
  Array.unsafe_set keys i k;
  Array.unsafe_set vals i v

let rec trickle keys vals l i ek ev =
  let j = maxson keys l i in
  if j >= 0 && Array.unsafe_get keys j > ek then begin
    set_kv keys vals i (Array.unsafe_get keys j) (Array.unsafe_get vals j);
    trickle keys vals l j ek ev
  end
  else set_kv keys vals i ek ev

let rec bubble keys vals l i =
  let j = maxson keys l i in
  if j < 0 then i
  else begin
    set_kv keys vals i (Array.unsafe_get keys j) (Array.unsafe_get vals j);
    bubble keys vals l j
  end

let rec trickleup keys vals i ek ev =
  let father = (i - 1) / 3 in
  if Array.unsafe_get keys father < ek then begin
    set_kv keys vals i (Array.unsafe_get keys father) (Array.unsafe_get vals father);
    if father > 0 then trickleup keys vals father ek ev else set_kv keys vals 0 ek ev
  end
  else set_kv keys vals i ek ev

let sort_by_key (keys : int array) (vals : int array) n =
  if n > Array.length keys || n > Array.length vals then invalid_arg "Solver.sort_by_key";
  for i = ((n + 1) / 3) - 1 downto 0 do
    trickle keys vals n i (Array.unsafe_get keys i) (Array.unsafe_get vals i)
  done;
  for i = n - 1 downto 2 do
    let ek = Array.unsafe_get keys i and ev = Array.unsafe_get vals i in
    set_kv keys vals i (Array.unsafe_get keys 0) (Array.unsafe_get vals 0);
    trickleup keys vals (bubble keys vals i 0) ek ev
  done;
  if n > 1 then begin
    let ek = Array.unsafe_get keys 1 and ev = Array.unsafe_get vals 1 in
    set_kv keys vals 1 (Array.unsafe_get keys 0) (Array.unsafe_get vals 0);
    set_kv keys vals 0 ek ev
  end

(* The scratch buffer, grown to hold [n] literals. *)
let scratch s n =
  s.scratch_lits <- grow_array s.scratch_lits n 0;
  s.scratch_lits

(* Order the clause [lits.(0 .. n - 1)] true, then unassigned, then
   false under the level-0 prefix, so its two watched slots start out
   valid.  The order is [Array.sort]'s with the score comparison
   [fun a b -> Int.compare (score b) (score a)] (true 2, unassigned 1,
   false 0), which is not stable: even an all-unassigned clause comes
   out permuted (a binary clause reversed), and the watch order that
   results is part of every seed-fixed search. *)
let watch_order s (lits : int array) n =
  s.scratch_keys <- grow_array s.scratch_keys n 0;
  let keys = s.scratch_keys in
  for i = 0 to n - 1 do
    Array.unsafe_set keys i
      (match value_of s (Array.unsafe_get lits i) with 1 -> 0 | -1 -> 1 | _ -> 2)
  done;
  sort_by_key keys lits n

(* Sort the packed literals [lits.(0 .. n - 1)] and drop duplicates, in
   place.  Returns the number of distinct literals, now increasing at
   the front, or [-1] for a tautology. *)
let distinct (lits : int array) n =
  sort_by_key lits lits n;
  let m = ref 0 and tautology = ref false in
  for i = 0 to n - 1 do
    let l = lits.(i) in
    if !m > 0 && lits.(!m - 1) = l then ()
    else begin
      if !m > 0 && lits.(!m - 1) = l lxor 1 then tautology := true;
      lits.(!m) <- l;
      incr m
    end
  done;
  if !tautology then -1 else !m

(* ----- selector groups ----- *)

let ensure_cells s extra = s.sel_cells <- grow_array s.sel_cells (s.sel_cells_size + extra) 0

(* Put clause [cr] at the front of the group of selector variable [v],
   registering the group when it has none. *)
let add_member s v cr =
  ensure_cells s 2;
  let k = s.sel_cells_size in
  let head = s.sel_head.(v) in
  s.sel_cells.(k) <- cr;
  s.sel_cells.(k + 1) <- (if head = no_group then nil else head);
  s.sel_head.(v) <- k;
  s.sel_cells_size <- k + 2

(* The watch-ordered clause [lits.(0 .. len - 1)] is empty or false
   under the level-0 prefix: it refutes the formula. *)
let refute_with s ~uid lits len =
  s.ok <- false;
  drup_add s [||];
  if s.track_proof && uid >= 0 then refutation_ants s ~uid lits 0 len

(* Watch the clause just stored at [cr] and, when it is unit under the
   level-0 prefix, assert and propagate its first literal. *)
let watch_new s cr =
  let a = s.arena in
  let len = c_size a cr in
  if len >= 2 then attach s cr;
  let l0 = c_lit a cr 0 in
  if value_of s l0 < 0 && (len = 1 || value_of s (c_lit a cr 1) = 0) then begin
    enqueue s l0 cr;
    let confl = propagate s in
    if confl >= 0 then begin
      s.ok <- false;
      record_refutation s confl
    end
  end

(* Install a clause derived by inprocessing — a strengthening or
   elimination resolvent, or a witness clause re-added by [unelim].
   [lits] are packed, deduplicated and non-tautological, and stay
   untouched; the proof uid is supplied by the caller so resolution
   steps cite their exact parents.  The clause is registered into the
   selector group of any literal whose variable owns a group, keeping
   [retire_selector] coverage exact under clause rewriting.  Returns the
   new clause ref, or -1 when the clause became a level-0 unit or
   refuted the formula. *)
let install_derived s ~uid ~safe (lits : int array) =
  assert (decision_level s = 0);
  let len = Array.length lits in
  let buf = scratch s len in
  Array.blit lits 0 buf 0 len;
  watch_order s buf len;
  if len = 0 || value_of s buf.(0) = 0 then begin
    refute_with s ~uid buf len;
    -1
  end
  else begin
    let cr = alloc_clause s ~learnt:false ~safe ~uid buf len in
    Vec.push s.clauses cr;
    for i = 0 to len - 1 do
      let v = lits.(i) lsr 1 in
      if s.sel_head.(v) <> no_group then add_member s v cr
    done;
    watch_new s cr;
    if len >= 2 then cr else -1
  end

(* Re-introduce an eliminated variable: drop its witness, put it back
   in the decision order and re-add its saved clauses with their
   original proof uids.  Saved clauses may mention variables that were
   eliminated after this one — those recurse back in first (clauses
   saved at elimination time never mention variables eliminated
   earlier, so the recursion is well-founded). *)
let rec unelim s v =
  if v < s.num_vars && Bytes.unsafe_get s.elim v <> '\000' then begin
    Bytes.unsafe_set s.elim v '\000';
    match Hashtbl.find_opt s.witness_of v with
    | None -> ()
    | Some w ->
        Hashtbl.remove s.witness_of v;
        w.wlive <- false;
        if not (Idx_heap.in_heap s.order v) then Idx_heap.insert s.order v;
        List.iter
          (fun (_, _, lits) -> Array.iter (fun l -> unelim s (l lsr 1)) lits)
          w.wclauses;
        List.iter
          (fun (uid, safe, lits) ->
            if s.ok then ignore (install_derived s ~uid ~safe lits))
          w.wclauses
  end

(* Whether any variable is eliminated: only then can a clause or an
   assumption name one, so the add paths and [solve] skip their
   per-literal [unelim] calls otherwise. *)
let witnesses_live s = Hashtbl.length s.witness_of > 0

(* Adding clauses (only at decision level 0).  Every add path runs its
   [unelim] calls before packing the clause into the scratch buffer,
   which re-adding witness clauses reuses. *)

(* Add the problem clause [lits.(0 .. len - 1)], whose literals are
   packed, distinct and name no eliminated variable.  Returns its clause
   ref, or -1 when the clause refuted the formula. *)
let add_distinct ~id ~safe s lits len =
  watch_order s lits len;
  let uid = if s.track_proof then new_proof s (P_axiom id) else -1 in
  if len = 0 || value_of s lits.(0) = 0 then begin
    refute_with s ~uid lits len;
    -1
  end
  else begin
    let cr = alloc_clause s ~learnt:false ~safe ~uid lits len in
    s.dirty <- s.dirty + 1;
    Vec.push s.clauses cr;
    watch_new s cr;
    cr
  end

(* Grow the variable tables over [lits] and bring back any eliminated
   variable they name (with its witness clauses). *)
let prepare_lits s (lits : Lit.t array) =
  for j = 0 to Array.length lits - 1 do
    ensure_vars s (Lit.var lits.(j) + 1)
  done;
  if witnesses_live s then
    for j = 0 to Array.length lits - 1 do
      unelim s (Lit.var lits.(j))
    done

(* Pack [lits] into the scratch buffer, then the packed literal [extra]
   when it is >= 0, sort and dedupe them there.  Returns the number of
   distinct literals, or -1 for a tautology. *)
let pack s (lits : Lit.t array) extra =
  let k = Array.length lits in
  let buf = scratch s (k + 1) in
  for j = 0 to k - 1 do
    Array.unsafe_set buf j (Lit.to_int lits.(j))
  done;
  if extra >= 0 then buf.(k) <- extra;
  distinct buf (if extra >= 0 then k + 1 else k)

(* Add [lits], and the packed literal [extra] when it is >= 0, as one
   problem clause.  Returns its clause ref, or -1 when it was a
   tautology or refuted the formula. *)
let add_lits ~id ~safe s (lits : Lit.t array) extra =
  assert (decision_level s = 0);
  if not s.ok then -1
  else begin
    prepare_lits s lits;
    if extra >= 0 && witnesses_live s then unelim s (extra lsr 1);
    if not s.ok then -1
    else
      let n = pack s lits extra in
      if n < 0 then -1 else add_distinct ~id ~safe s s.scratch_lits n
  end

let add_clause ?(id = -1) ?(shareable = false) ?selector s lits =
  match selector with
  | None -> ignore (add_lits ~id ~safe:shareable s lits (-1))
  | Some sel ->
      (* Activation-literal discipline: the clause is stored as
         [lits \/ sel]; assuming [neg sel] enforces it, and
         [retire_selector] permanently satisfies the group. *)
      let v = Lit.var sel in
      ensure_vars s (v + 1);
      (* Selectors are assumption variables: inprocessing must never
         eliminate or probe them. *)
      Bytes.unsafe_set s.frozen v '\001';
      let cr = add_lits ~id ~safe:false s lits (Lit.to_int sel) in
      if cr >= 0 then add_member s v cr

let add_clause_l ?id s lits = add_clause ?id s (Array.of_list lits)

(* Bulk soft-clause loading: clause [i] goes in as [get i \/ sel_i]
   under the fresh, frozen selector [base + i], registered as that
   selector's group.  The clause database, literal order included, is
   the one a frozen [new_var] and [add_clause ~selector] per clause
   would build.  The variable tables, the arena, the clause list and
   the group cells are sized once for the batch, and each clause is
   packed straight from [get i] into the scratch buffer. *)
let add_softs s n get =
  assert (decision_level s = 0);
  Msu_obs.Obs.Span.wrap s.tracer "load" (fun () ->
      let base = s.num_vars in
      ensure_vars s (base + n);
      Bytes.fill s.frozen base n '\001';
      let words = ref 0 in
      for i = 0 to n - 1 do
        words := !words + clause_words (Array.length (get i) + 1)
      done;
      ensure_arena s !words;
      Vec.reserve s.clauses (Vec.size s.clauses + n);
      ensure_cells s (2 * n);
      let revive = witnesses_live s in
      for i = 0 to n - 1 do
        let v = base + i in
        if s.ok then begin
          let c = get i in
          for j = 0 to Array.length c - 1 do
            let x = Lit.var c.(j) in
            if x >= base then
              invalid_arg "Solver.add_softs: a soft literal names a selector variable";
            if revive then unelim s x
          done;
          if s.ok then begin
            let m = pack s c (2 * v) in
            if m >= 0 then begin
              let cr = add_distinct ~id:(-1) ~safe:false s s.scratch_lits m in
              if cr >= 0 then add_member s v cr
            end
          end
        end
      done;
      base)

(* Attach a clause learnt by a portfolio peer.  The caller guarantees the
   clause is implied by this instance's hard clauses (the exporter's
   share-safety taint guarantees it), so it is sound for any relaxation
   of the instance this solver happens to be working on.  Must run at
   decision level 0 — between [solve]s or at a restart boundary — where
   establishing the watcher invariant is the same score-sort used by
   [add_clause].  The clause goes in as a share-safe learnt: reduce-db
   may drop it again, and derivations through it stay exportable.

   Skipped entirely when a DRUP log is attached: a foreign clause is not
   unit-derivable from this solver's own formula, so logging it would
   invalidate the certificate. *)
let import_clause s lits =
  assert (decision_level s = 0);
  if s.ok && s.drup_log = None && Array.length lits > 0 then begin
    prepare_lits s lits;
    if s.ok then begin
      let len = pack s lits (-1) in
      if len >= 0 then begin
        let buf = s.scratch_lits in
        watch_order s buf len;
        let uid = if s.track_proof then new_proof s (P_axiom (-1)) else -1 in
        s.n_imported <- s.n_imported + 1;
        if value_of s buf.(0) = 0 then
          (* All literals false under the level-0 prefix.  The import is
             implied by the instance's hard clauses (a subset of this
             formula), so the formula is refuted outright. *)
          refute_with s ~uid buf len
        else begin
          let cr = alloc_clause s ~learnt:true ~safe:true ~uid buf len in
          set_lbd s.arena cr (min len lbd_max);
          s.dirty <- s.dirty + 1;
          Vec.push s.learnts cr;
          watch_new s cr
        end
      end
    end
  end

let on_export s f = s.export_hook <- Some f
let set_importer s f = s.importer <- Some f
let exported_clauses s = s.n_exported
let imported_clauses s = s.n_imported

let drain_imports s =
  match s.importer with
  | None -> ()
  | Some f -> List.iter (fun c -> if s.ok then import_clause s c) (f ())

let retire_selector s sel =
  assert (decision_level s = 0);
  let v = Lit.var sel in
  if v < s.num_vars && s.sel_head.(v) <> no_group then begin
    (* The unit below satisfies every clause of the group; marking them
       removed lets propagation drop their watchers lazily while learnt
       clauses (which can only mention the selector with the same sign)
       stay valid.  The next compaction reclaims the arena words and
       compacts the watcher lists, so retire-heavy incremental schedules
       no longer grow them monotonically. *)
    let k = ref s.sel_head.(v) in
    while !k >= 0 do
      mark_removed s s.sel_cells.(!k);
      s.dirty <- s.dirty + 1;
      k := s.sel_cells.(!k + 1)
    done;
    s.sel_head.(v) <- no_group
  end;
  ignore (add_lits ~id:(-1) ~safe:false s [| sel |] (-1));
  if s.ok then maybe_compact s

(* Conflict analysis: first UIP with basic self-subsumption
   minimization.  Fills [s.scratch_learnt] with the learnt clause
   (asserting literal first, highest-level other literal second) and
   returns the backtrack level and the complete antecedent uid list for
   proof tracking.  The scratch buffer is reused across conflicts so the
   whole pass allocates only the proof conses (nothing in noproof
   mode). *)

let analyze s confl0 =
  let a = s.arena in
  let learnt = s.scratch_learnt in
  Vec.clear learnt;
  Vec.push learnt 0 (* slot for the asserting literal *);
  let ants = ref [] in
  (* Share-safety of the resolvent: the conjunction over every clause
     and level-0 unit the derivation touches. *)
  let safe = ref true in
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size s.trail - 1) in
  let confl = ref confl0 in
  let continue = ref true in
  while !continue do
    let cr = !confl in
    assert (cr >= 0);
    if c_learnt a cr then begin
      cla_bump s cr;
      (* Glucose-style refresh: a reused learnt clause whose literals
         now span fewer levels gets its LBD tightened. *)
      let lbd = compute_lbd_clause s cr in
      if lbd < c_lbd a cr then set_lbd a cr lbd
    end;
    if s.track_proof then ants := c_uid a cr :: !ants;
    if not (c_safe a cr) then safe := false;
    let start = if !p < 0 then 0 else 1 in
    for j = start to c_size a cr - 1 do
      let q = c_lit a cr j in
      let v = q lsr 1 in
      if not (seen_get s v) then
        if s.level.(v) > 0 then begin
          seen_set s v true;
          var_bump s v;
          if s.level.(v) >= decision_level s then incr path else Vec.push learnt q
        end
        else begin
          (* Resolving away a level-0 literal uses its unit proof. *)
          if Bytes.unsafe_get s.unit_safe v = '\000' then safe := false;
          if s.track_proof then begin
            let pr = s.unit_proof.(v) in
            if pr >= 0 then ants := pr :: !ants
          end
        end
    done;
    while not (seen_get s (Vec.get s.trail !index lsr 1)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = !p lsr 1 in
    seen_set s v false;
    decr path;
    if !path > 0 then confl := s.reason.(v) else continue := false
  done;
  Vec.set learnt 0 (!p lxor 1);
  (* Basic minimization: a literal whose reason's other literals are all
     already in the clause (or at level 0) is redundant. *)
  let removable q =
    let v = q lsr 1 in
    let r = s.reason.(v) in
    if r < 0 then false
    else begin
      let ok = ref true in
      for i = 0 to c_size a r - 1 do
        let w = c_lit a r i lsr 1 in
        if w <> v && s.level.(w) > 0 && not (seen_get s w) then ok := false
      done;
      if !ok then begin
        (* The minimization resolves with [r] (and the unit proofs of its
           level-0 literals), so they join the derivation too. *)
        if not (c_safe a r) then safe := false;
        for i = 0 to c_size a r - 1 do
          let w = c_lit a r i lsr 1 in
          if w <> v && s.level.(w) = 0 then begin
            if Bytes.unsafe_get s.unit_safe w = '\000' then safe := false;
            if s.track_proof then begin
              let pr = s.unit_proof.(w) in
              if pr >= 0 then ants := pr :: !ants
            end
          end
        done;
        if s.track_proof then ants := c_uid a r :: !ants
      end;
      !ok
    end
  in
  (* In-place minimization.  [seen] flags must stay set for the whole
     pass — [removable] consults them for every original literal,
     including ones already dropped — so dropped vars are parked in
     [scratch_clear] and all flags are cleared together at the end. *)
  Vec.clear s.scratch_clear;
  let j = ref 1 in
  for i = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt i in
    if not (removable q) then begin
      Vec.set learnt !j q;
      incr j
    end
    else Vec.push s.scratch_clear (q lsr 1)
  done;
  Vec.shrink learnt !j;
  Vec.iter (fun v -> seen_set s v false) s.scratch_clear;
  Vec.iter (fun q -> seen_set s (q lsr 1) false) learnt;
  let n = Vec.size learnt in
  let back_level =
    if n <= 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to n - 1 do
        if s.level.(Vec.get learnt i lsr 1) > s.level.(Vec.get learnt !max_i lsr 1)
        then max_i := i
      done;
      let tmp = Vec.get learnt 1 in
      Vec.set learnt 1 (Vec.get learnt !max_i);
      Vec.set learnt !max_i tmp;
      s.level.(Vec.get learnt 1 lsr 1)
    end
  in
  (back_level, !ants, !safe)

(* analyzeFinal: the subset of assumption decisions that force the
   falsified literal [p]. *)

let analyze_final s p out =
  out := [ p ];
  if decision_level s > 0 then begin
    let a = s.arena in
    seen_set s (p lsr 1) true;
    let bottom = Vec.get s.trail_lim 0 in
    for i = Vec.size s.trail - 1 downto bottom do
      let l = Vec.get s.trail i in
      let v = l lsr 1 in
      if seen_get s v then begin
        let r = s.reason.(v) in
        if r < 0 then out := (l lxor 1) :: !out
        else
          for k = 0 to c_size a r - 1 do
            let w = c_lit a r k lsr 1 in
            if w <> v && s.level.(w) > 0 then seen_set s w true
          done;
        seen_set s v false
      end
    done;
    seen_set s (p lsr 1) false
  end

(* Learnt clause database reduction: Glucose-style.  Keep binaries,
   locked clauses and glue (LBD <= 2); sort the rest worst-first (high
   LBD, then low activity as tie-break) and delete the worst half. *)

let locked s cr =
  let a = s.arena in
  c_size a cr > 0
  &&
  let v = c_lit a cr 0 lsr 1 in
  s.reason.(v) = cr

let reduce_db s =
  Msu_obs.Obs.Span.enter_counted s.tracer "reduce_db" ~c1:s.n_deleted ~c2:0;
  let a = s.arena in
  let cmp cr1 cr2 =
    let l1 = c_lbd a cr1 and l2 = c_lbd a cr2 in
    if l1 <> l2 then Int.compare l2 l1
    else Float.compare (c_activity a cr1) (c_activity a cr2)
  in
  Vec.sort cmp s.learnts;
  let n = Vec.size s.learnts in
  let lim = s.cla_inc /. float_of_int (max n 1) in
  let keep = Vec.create ~dummy:0 in
  Vec.iteri
    (fun i cr ->
      let protected_ =
        c_size a cr <= 2 || c_lbd a cr <= 2 || locked s cr
      in
      if (not protected_) && (i < n / 2 || c_activity a cr < lim) then begin
        mark_removed s cr;
        drup_delete_cr s cr;
        s.n_deleted <- s.n_deleted + 1
      end
      else Vec.push keep cr)
    s.learnts;
  Vec.clear s.learnts;
  Vec.iter (Vec.push s.learnts) keep;
  (* If the protected set alone exceeds the limit, raise the limit:
     otherwise the search would re-trigger reduce_db on every conflict
     and spend its time sorting. *)
  if float_of_int (Vec.size s.learnts) > 0.9 *. s.max_learnts then
    s.max_learnts <- s.max_learnts *. 1.3;
  Msu_obs.Obs.Metrics.inc m_reduce_db;
  s.event_hook (Msu_obs.Obs.Event.Reduce_db { kept = Vec.size s.learnts });
  maybe_compact s;
  Msu_obs.Obs.Span.leave_counted s.tracer ~c1:s.n_deleted ~c2:(Vec.size s.learnts)

(* Luby restart sequence (Een & Sorensson's formulation). *)

let luby i =
  let rec outer size seq =
    if size >= i + 1 then (size, seq) else outer ((2 * size) + 1) (seq + 1)
  in
  let rec go size seq i =
    if size - 1 = i then seq
    else
      let size' = (size - 1) / 2 in
      go size' (seq - 1) (i mod size')
  in
  let size, seq = outer 1 0 in
  float_of_int (1 lsl go size seq i)

(* Called at every conflict and decision: counter budgets are exact;
   the wall clock is observed through the shared guard's sampled poll
   (every 64 guard polls — a conflict-count cadence here) or, without a
   guard, a standalone sample every 64 checks; [propagate] adds its own
   propagation-count cadence in between, so no phase of the search can
   overshoot the deadline by more than one sampling window. *)
let budget_exhausted s =
  if s.n_conflicts > s.conflict_budget then true
  else if s.deadline_hit then true
  else if sync_guard s then begin
    s.deadline_hit <- true;
    true
  end
  else begin
    s.budget_checks <- s.budget_checks + 1;
    if s.deadline < infinity && s.budget_checks land 0x3f = 0 then begin
      s.deadline_hit <- Unix.gettimeofday () > s.deadline;
      s.deadline_hit
    end
    else false
  end

(* Main CDCL search loop for one restart window. *)

type search_outcome = S_sat | S_unsat | S_restart | S_budget

let pick_branch_var s =
  let rec loop () =
    if Idx_heap.is_empty s.order then -1
    else
      let v = Idx_heap.pop_max s.order in
      if s.assigns.(v) < 0 && Bytes.unsafe_get s.elim v = '\000' then v else loop ()
  in
  loop ()

(* Record the learnt clause sitting in [s.scratch_learnt]: straight
   Vec-to-arena copy, no intermediate array (the DRUP log, when
   attached, is the only consumer that materializes one). *)
let record_learnt s ants ~safe =
  let lits = s.scratch_learnt in
  let size = Vec.size lits in
  (match s.drup_log with
  | None -> ()
  | Some _ -> drup_add s (Vec.to_array lits));
  let uid = if s.track_proof then new_proof s (P_resolved ants) else -1 in
  s.n_learnt_literals <- s.n_learnt_literals + size;
  let tick = lbd_begin s in
  let lbd = ref 0 in
  Vec.iter (fun l -> lbd := lbd_count s tick s.level.(l lsr 1) !lbd) lits;
  let lbd = min !lbd lbd_max in
  ensure_arena s (clause_words size);
  let cr = s.arena_size in
  let a = s.arena in
  a.(cr) <- size;
  a.(cr + 1) <- 1 (* learnt *) lor (if safe then 8 else 0);
  a.(cr + 2) <- 0 (* activity 0.0 *);
  a.(cr + 3) <- uid;
  for i = 0 to size - 1 do
    a.(cr + header_words + i) <- Vec.get lits i
  done;
  s.arena_size <- cr + clause_words size;
  set_lbd a cr lbd;
  if size >= 2 then begin
    Vec.push s.learnts cr;
    attach s cr;
    cla_bump s cr
  end;
  (* Export: share-safe learnts are implied by the shareable axioms
     (the instance's hard clauses), so a peer solving any relaxation of
     the same instance may attach them soundly. *)
  (match s.export_hook with
  | Some f when safe && size > 0 && size <= export_max_len && lbd <= export_max_lbd
    ->
      s.n_exported <- s.n_exported + 1;
      f ~lbd (Array.init size (fun i -> Lit.of_int_unsafe (Vec.get lits i)))
  | _ -> ());
  cr

(* ----- inprocessing (Msu_sat.Inprocess drives, this side mutates) ----- *)

(* Failed-literal probe: one decision, one propagation.  A conflict
   means the literal's negation is entailed; analyzing it at level 1
   yields a unit learnt (every side literal resolves through its
   level-0 unit proof), which is recorded and propagated exactly as the
   search loop would. *)
let probe_lit s l =
  assert (decision_level s = 0);
  if value_of s l >= 0 then false
  else begin
    new_decision_level s;
    enqueue s l (-1);
    let confl = propagate s in
    if confl < 0 then begin
      cancel_until s 0;
      false
    end
    else begin
      s.n_conflicts <- s.n_conflicts + 1;
      let back_level, ants, safe = analyze s confl in
      ignore back_level;
      cancel_until s 0;
      let cr = record_learnt s ants ~safe in
      enqueue s (Vec.get s.scratch_learnt 0) cr;
      let confl2 = propagate s in
      if confl2 >= 0 then begin
        s.ok <- false;
        record_refutation s confl2
      end;
      true
    end
  end

(* Eliminate a variable: save its clauses as the resolution witness,
   mark them removed, install the resolvents with exact two-parent
   proof steps.  The caller (the engine) guarantees [v] is unassigned,
   unprotected, and that [occs] is the complete set of live problem
   clauses mentioning it. *)
let commit_elim s v occs resolvents =
  assert (Bytes.unsafe_get s.frozen v = '\000');
  assert (Bytes.unsafe_get s.assumed v = '\000');
  assert (s.assigns.(v) < 0);
  let a = s.arena in
  let saved =
    List.map
      (fun (cr, _) ->
        let lits = Array.init (c_size a cr) (fun i -> c_lit a cr i) in
        Array.sort Int.compare lits;
        (c_uid a cr, c_safe a cr, lits))
      occs
  in
  (* Read parent uids/safety before any install can grow the arena. *)
  let resolvents =
    List.map
      (fun (cr_pos, cr_neg, lits) ->
        ((c_uid a cr_pos, c_safe a cr_pos), (c_uid a cr_neg, c_safe a cr_neg), lits))
      resolvents
  in
  let w = { wvar = v; wlive = true; wclauses = saved } in
  s.witnesses <- w :: s.witnesses;
  Hashtbl.replace s.witness_of v w;
  Bytes.unsafe_set s.elim v '\001';
  List.iter
    (fun (cr, _) ->
      mark_removed s cr;
      s.n_deleted <- s.n_deleted + 1)
    occs;
  List.filter_map
    (fun ((uid_p, safe_p), (uid_n, safe_n), lits) ->
      if s.ok then begin
        let uid =
          if s.track_proof then new_proof s (P_resolved [ uid_p; uid_n ]) else -1
        in
        let cr = install_derived s ~uid ~safe:(safe_p && safe_n) lits in
        if cr >= 0 then Some cr else None
      end
      else None)
    resolvents

let inpro_remove s cr =
  mark_removed s cr;
  s.n_deleted <- s.n_deleted + 1

(* Self-subsuming resolution: replace [cr] by its resolvent with [by]. *)
let inpro_strengthen s ~cr ~by lits =
  let a = s.arena in
  let uid =
    if s.track_proof then new_proof s (P_resolved [ c_uid a cr; c_uid a by ]) else -1
  in
  let safe = c_safe a cr && c_safe a by in
  mark_removed s cr;
  install_derived s ~uid ~safe lits

let make_view (s : t) =
  Inprocess.
    {
      num_vars = (fun () -> s.num_vars);
      ok = (fun () -> s.ok);
      lit_value = (fun l -> value_of s l);
      protected =
        (fun v ->
          Bytes.unsafe_get s.frozen v <> '\000'
          || Bytes.unsafe_get s.assumed v <> '\000');
      eliminated = (fun v -> Bytes.unsafe_get s.elim v <> '\000');
      iter_problem =
        (fun f -> Vec.iter (fun cr -> if not (c_removed s.arena cr) then f cr) s.clauses);
      clause_lits =
        (fun cr ->
          let a = s.arena in
          Array.init (c_size a cr) (fun i -> c_lit a cr i));
      locked = (fun cr -> locked s cr);
      remove_satisfied = (fun cr -> inpro_remove s cr);
      subsume = (fun cr -> inpro_remove s cr);
      strengthen = (fun ~cr ~by lits -> inpro_strengthen s ~cr ~by lits);
      commit_elim = (fun v occs res -> commit_elim s v occs res);
      probe = (fun l -> probe_lit s l);
      activity = (fun v -> s.activity.(v));
      stop = (fun () -> budget_exhausted s);
    }

let run_inprocess s limits =
  let st = Inprocess.run ~tracer:s.tracer (make_view s) limits in
  s.dirty <- 0;
  let productive =
    st.Inprocess.eliminated_vars + st.Inprocess.subsumed_clauses
    + st.Inprocess.strengthened_lits + st.Inprocess.failed_literals
    > 0
  in
  s.inpro_backoff <- (if productive then 1 else min (s.inpro_backoff * 2) 64);
  if s.ok then maybe_compact s;
  s.event_hook
    (Msu_obs.Obs.Event.Note
       (Printf.sprintf "inprocess elim=%d subsumed=%d strengthened=%d failed=%d probes=%d"
          st.eliminated_vars st.subsumed_clauses st.strengthened_lits
          st.failed_literals st.probes));
  st

(* Restart-boundary automatic pass, under the running [solve] call's
   budgets (the engine's [stop] poll goes through [budget_exhausted],
   so a deadline aborts the pass just as it stops the search). *)
(* A pass sweeps the whole clause database, so its cost is O(live
   clauses): requiring churn proportional to that size amortizes
   inprocessing to O(1) per structural change on any instance size.
   Barren passes double the threshold (capped) so a formula with
   nothing left to simplify stops paying for sweeps. *)
let auto_inprocess_dirty s = max 32 (Vec.size s.clauses / 4) * s.inpro_backoff

let inprocess_auto s =
  if s.inprocess_on && s.drup_log = None && s.ok && s.dirty >= auto_inprocess_dirty s
  then ignore (run_inprocess s Inprocess.default_limits)

let inprocess ?(limits = Inprocess.default_limits) ?guard ?(min_dirty = 0) s =
  if s.drup_log <> None || (not s.ok) || decision_level s > 0 then None
  else if s.dirty < min_dirty * s.inpro_backoff then Some (Inprocess.zero_stats ())
  else begin
    s.deadline <- infinity;
    s.deadline_hit <- false;
    s.guard <- guard;
    s.guard_conflicts_base <- s.n_conflicts;
    s.guard_props_base <- s.n_propagations;
    s.conflict_budget <- max_int;
    Some (run_inprocess s limits)
  end

(* Extend a satisfying assignment over the eliminated variables,
   newest witness first: the saved clauses are the only constraints on
   the variable (any later clause naming it would have re-introduced
   it), and the installed resolvents guarantee one of the two values
   satisfies them all. *)
let extend_model s =
  List.iter
    (fun w ->
      if w.wlive then begin
        let value_ok value =
          List.for_all
            (fun (_, _, lits) ->
              Array.exists
                (fun l ->
                  let v = l lsr 1 in
                  let lv =
                    if v = w.wvar then value
                    else Bytes.unsafe_get s.polarity v <> '\000'
                  in
                  if l land 1 = 0 then lv else not lv)
                lits)
            w.wclauses
        in
        Bytes.unsafe_set s.polarity w.wvar (if value_ok true then '\001' else '\000')
      end)
    s.witnesses

let search s assumptions max_conflicts =
  let conflicts_here = ref 0 in
  let outcome = ref None in
  (* [= None] would go through polymorphic compare (a C call per
     iteration of the solver's outermost hot loop); match instead. *)
  while (match !outcome with None -> true | Some _ -> false) do
    let confl =
      if s.prof_on then begin
        let t = Unix.gettimeofday () in
        let c = propagate s in
        s.prof_propagate <- s.prof_propagate +. (Unix.gettimeofday () -. t);
        c
      end
      else propagate s
    in
    if confl >= 0 then begin
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflicts_here;
      if decision_level s = 0 then begin
        s.ok <- false;
        record_refutation s confl;
        outcome := Some S_unsat
      end
      else begin
        let back_level, ants, safe =
          if s.prof_on then begin
            let t = Unix.gettimeofday () in
            let r = analyze s confl in
            s.prof_analyze <- s.prof_analyze +. (Unix.gettimeofday () -. t);
            r
          end
          else analyze s confl
        in
        cancel_until s back_level;
        let cr = record_learnt s ants ~safe in
        enqueue s (Vec.get s.scratch_learnt 0) cr;
        var_decay_activity s;
        cla_decay_activity s;
        if budget_exhausted s then outcome := Some S_budget
      end
    end
    else if !conflicts_here >= max_conflicts then begin
      cancel_until s 0;
      s.n_restarts <- s.n_restarts + 1;
      Msu_obs.Obs.Metrics.inc m_restarts;
      s.event_hook Msu_obs.Obs.Event.Restart;
      outcome := Some S_restart
    end
    else if budget_exhausted s then outcome := Some S_budget
    else begin
      if float_of_int (Vec.size s.learnts - Vec.size s.trail) > s.max_learnts then
        reduce_db s;
      (* Assumptions become the first decisions. *)
      let dl = decision_level s in
      if dl < Array.length assumptions then begin
        let a = Lit.to_int assumptions.(dl) in
        match value_of s a with
        | 1 -> new_decision_level s (* already true: empty level *)
        | 0 ->
            let out = ref [] in
            analyze_final s (a lxor 1) out;
            s.conflict_assumps <-
              List.sort_uniq Int.compare (List.map (fun l -> l lxor 1) !out);
            outcome := Some S_unsat
        | _ ->
            s.n_decisions <- s.n_decisions + 1;
            new_decision_level s;
            enqueue s a (-1)
      end
      else begin
        let v = pick_branch_var s in
        if v < 0 then outcome := Some S_sat
        else begin
          s.n_decisions <- s.n_decisions + 1;
          new_decision_level s;
          let l =
            if Bytes.unsafe_get s.polarity v <> '\000' then 2 * v else (2 * v) + 1
          in
          enqueue s l (-1)
        end
      end
    end
  done;
  match !outcome with Some o -> o | None -> assert false

let solve ?(assumptions = [||]) ?(deadline = infinity) ?(conflict_budget = max_int)
    ?guard s =
  let call_t0 = Unix.gettimeofday () in
  let call_conflicts0 = s.n_conflicts in
  let call_props0 = s.n_propagations in
  let call_minor0 = Gc.minor_words () in
  let prof_prop0 = s.prof_propagate and prof_ana0 = s.prof_analyze in
  Msu_obs.Obs.Metrics.inc m_calls;
  Array.iter (fun l -> ensure_vars s (Lit.var l + 1)) assumptions;
  (* Clear before the [ok] bail-out: an incremental caller reading
     [conflict_assumptions] after a top-level refutation must see the
     empty core, not a stale one from an earlier call. *)
  s.conflict_assumps <- [];
  if not s.ok then Unsat
  else begin
    (* An eliminated assumption variable comes back from its witness;
       the rest of the assumption set is marked transiently protected so
       a restart-boundary pass cannot eliminate or probe it mid-call. *)
    if witnesses_live s then Array.iter (fun l -> unelim s (Lit.var l)) assumptions;
    Array.iter (fun l -> Bytes.unsafe_set s.assumed (Lit.var l) '\001') assumptions;
    s.deadline <- deadline;
    s.deadline_hit <- false;
    s.guard <- guard;
    s.guard_conflicts_base <- s.n_conflicts;
    s.guard_props_base <- s.n_propagations;
    s.conflict_budget <-
      (if conflict_budget = max_int then max_int else s.n_conflicts + conflict_budget);
    s.max_learnts <-
      Float.max s.max_learnts
        (Float.max 1000. (float_of_int (Vec.size s.clauses) /. 3.));
    (* Foreign clauses from portfolio peers attach at level 0 only: here,
       before the first restart window, and between windows below. *)
    drain_imports s;
    let result = ref (if s.ok then None else Some Unsat) in
    let restart = ref 0 in
    while (match !result with None -> true | Some _ -> false) do
      let window = int_of_float (luby !restart *. float_of_int restart_base) in
      incr restart;
      s.max_learnts <- s.max_learnts *. 1.05;
      match search s assumptions window with
      | S_sat -> result := Some Sat
      | S_unsat -> result := Some Unsat
      | S_budget -> result := Some Unknown
      | S_restart ->
          Msu_obs.Obs.Span.wrap s.tracer "restart" (fun () ->
              drain_imports s;
              inprocess_auto s);
          if not s.ok then result := Some Unsat
    done;
    let r = match !result with Some r -> r | None -> assert false in
    (match r with
    | Sat ->
        (* Snapshot the model: phase saving doubles as the model cache,
           valid until the next solve call. *)
        for v = 0 to s.num_vars - 1 do
          Bytes.unsafe_set s.polarity v (if s.assigns.(v) = 1 then '\001' else '\000')
        done;
        extend_model s
    | Unsat | Unknown -> ());
    Array.iter (fun l -> Bytes.unsafe_set s.assumed (Lit.var l) '\000') assumptions;
    cancel_until s 0;
    if s.prof_on then begin
      (* Aggregate spans for the hot sub-phases, laid back-to-back so
         they end at the call's close; the Chrome exporter routes them
         to a separate lane (Span.agg_phases), so overlapping the real
         child spans in wall time is harmless. *)
      let t1 = Msu_obs.Obs.now () in
      let dp = s.prof_propagate -. prof_prop0
      and da = s.prof_analyze -. prof_ana0 in
      Msu_obs.Obs.Span.complete s.tracer ~phase:"propagate"
        ~t0:(t1 -. da -. dp) ~t1:(t1 -. da)
        ~c2:(s.n_propagations - call_props0) ();
      Msu_obs.Obs.Span.complete s.tracer ~phase:"analyze" ~t0:(t1 -. da) ~t1
        ~c1:(s.n_conflicts - call_conflicts0) ()
    end;
    Msu_obs.Obs.Metrics.observe m_call_seconds (Unix.gettimeofday () -. call_t0);
    Msu_obs.Obs.Metrics.observe m_call_conflicts
      (float_of_int (s.n_conflicts - call_conflicts0));
    Msu_obs.Obs.Metrics.observe m_call_minor_words (Gc.minor_words () -. call_minor0);
    r
  end

let on_event s f = s.event_hook <- f

let set_tracer s tr =
  s.tracer <- tr;
  s.prof_on <- Msu_obs.Obs.Span.enabled tr
let model_value s v = v < s.num_vars && Bytes.get s.polarity v <> '\000'
let model s = Array.init s.num_vars (fun v -> model_value s v)
let okay s = s.ok
let conflict_assumptions s = List.map Lit.of_int_unsafe s.conflict_assumps

(* Core extraction: walk the antecedent DAG of the refutation.  The DAG
   lives in the uid-indexed proof store, not the arena, so deletion and
   compaction of the clause database cannot invalidate it. *)

let unsat_core s =
  if not s.track_proof then invalid_arg "Solver.unsat_core: proof tracking disabled";
  if s.refutation < 0 then invalid_arg "Solver.unsat_core: no refutation recorded";
  let visited = Hashtbl.create 4096 in
  let ids = ref [] in
  let stack = ref [ s.refutation ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        if not (Hashtbl.mem visited u) then begin
          Hashtbl.add visited u ();
          match Vec.get s.proof u with
          | P_axiom id -> if id >= 0 then ids := id :: !ids
          | P_resolved ants -> List.iter (fun v -> stack := v :: !stack) ants
        end
  done;
  List.sort_uniq Int.compare !ids

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_literals;
    deleted_clauses = s.n_deleted;
    compactions = s.n_compactions;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "decisions=%d propagations=%d conflicts=%d restarts=%d learnt_lits=%d deleted=%d \
     compactions=%d"
    st.decisions st.propagations st.conflicts st.restarts st.learnt_literals
    st.deleted_clauses st.compactions

let sink s =
  Msu_cnf.Sink.
    { fresh_var = (fun () -> new_var s); emit = (fun c -> add_clause s c) }
