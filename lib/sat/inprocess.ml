(* Inprocessing engine: subsumption, self-subsuming resolution, bounded
   variable elimination and failed-literal probing over a [view] of
   solver closures.  The engine owns only transient snapshot state
   (sorted literal arrays, signatures, occurrence lists); every actual
   mutation — clause removal, resolvent installation, witness
   recording, probe propagation — goes through the view so the solver
   keeps its arena, watchers and proof DAG consistent.

   Snapshot discipline: each round re-reads the live problem clauses.
   Clauses satisfied at level 0 are dropped up front (unless locked as
   a propagation reason), so every snapshot entry is unsatisfied and
   therefore unlocked at snapshot time.  Strengthening can trigger new
   level-0 propagation mid-round, so [locked] is re-checked before any
   destructive action. *)

module Metrics = Msu_obs.Obs.Metrics

type limits = {
  max_occ : int;
  max_resolvent : int;
  max_probes : int;
  rounds : int;
  max_subsume_steps : int;
}

let default_limits =
  {
    max_occ = 10;
    max_resolvent = 16;
    max_probes = 128;
    rounds = 2;
    max_subsume_steps = 2_000_000;
  }

type stats = {
  mutable passes : int;
  mutable eliminated_vars : int;
  mutable subsumed_clauses : int;
  mutable strengthened_lits : int;
  mutable failed_literals : int;
  mutable probes : int;
}

let zero_stats () =
  {
    passes = 0;
    eliminated_vars = 0;
    subsumed_clauses = 0;
    strengthened_lits = 0;
    failed_literals = 0;
    probes = 0;
  }

type view = {
  num_vars : unit -> int;
  ok : unit -> bool;
  lit_value : int -> int;
  protected : int -> bool;
  eliminated : int -> bool;
  iter_problem : (int -> unit) -> unit;
  clause_lits : int -> int array;
  locked : int -> bool;
  remove_satisfied : int -> unit;
  subsume : int -> unit;
  strengthen : cr:int -> by:int -> int array -> int;
  commit_elim : int -> (int * int array) list -> (int * int * int array) list -> int list;
  probe : int -> bool;
  activity : int -> float;
  stop : unit -> bool;
}

let m_passes = Metrics.counter ~help:"inprocessing passes run" "msu_inprocess_passes_total"

let m_eliminated =
  Metrics.counter ~help:"variables eliminated by inprocessing"
    "msu_inprocess_eliminated_vars_total"

let m_subsumed =
  Metrics.counter ~help:"clauses subsumed by inprocessing"
    "msu_inprocess_subsumed_clauses_total"

let m_strengthened =
  Metrics.counter ~help:"literals removed by self-subsuming resolution"
    "msu_inprocess_strengthened_lits_total"

let m_failed =
  Metrics.counter ~help:"failed literals found by probing"
    "msu_inprocess_failed_literals_total"

let m_probes = Metrics.counter ~help:"literals probed" "msu_inprocess_probes_total"

(* Snapshot entry: one live, unsatisfied problem clause.  [cr] tracks
   the clause through strengthening (which reallocates). *)
type entry = {
  mutable cr : int;
  mutable lits : int array; (* sorted packed literals *)
  mutable sig_ : int64;
  mutable alive : bool;
}

let signature lits =
  Array.fold_left
    (fun acc l -> Int64.logor acc (Int64.shift_left 1L ((l lsr 1) land 63)))
    0L lits

let subset_sig a b = Int64.equal (Int64.logand a (Int64.lognot b)) 0L

(* [a] sorted-subset-of [b]?  Both sorted. *)
let subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  la <= lb && go 0 0

(* Subset modulo one flipped literal [flip], present in [a] as [flip]
   and matched in [b] as its negation: the self-subsumption pattern. *)
let subset_flipping a b flip =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else
      let ai = if a.(i) = flip then a.(i) lxor 1 else a.(i) in
      if ai = b.(j) then go (i + 1) (j + 1)
      else if b.(j) < ai then go i (j + 1)
      else false
  in
  la <= lb && go 0 0

(* Resolvent of two sorted clauses on pivot [v]; None if tautological. *)
let resolve a b v =
  let keep c = List.filter (fun l -> l lsr 1 <> v) (Array.to_list c) in
  let merged = List.sort_uniq Int.compare (keep a @ keep b) in
  let tautology =
    let rec go = function
      | x :: (y :: _ as rest) -> x lxor 1 = y || go rest
      | _ -> false
    in
    go merged
  in
  if tautology then None else Some (Array.of_list merged)

exception Abort

module Span = Msu_obs.Obs.Span

let run ?(tracer = Span.disabled) view limits =
  let st = zero_stats () in
  st.passes <- 1;
  Metrics.inc m_passes;
  let nv = view.num_vars () in
  let check () = if view.stop () || not (view.ok ()) then raise Abort in
  (try
     let continue_ = ref true in
     let round = ref 0 in
     while !continue_ && !round < limits.rounds do
       incr round;
       check ();
       let work_before =
         st.subsumed_clauses + st.strengthened_lits + st.eliminated_vars
       in
       (* ---------------- snapshot ---------------- *)
       let acc = ref [] in
       view.iter_problem (fun cr ->
           let lits = view.clause_lits cr in
           Array.sort Int.compare lits;
           if Array.exists (fun l -> view.lit_value l = 1) lits then begin
             if not (view.locked cr) then view.remove_satisfied cr
           end
           else acc := { cr; lits; sig_ = signature lits; alive = true } :: !acc);
       let entries = Array.of_list !acc in
       let occ = Array.make (max (2 * nv) 1) [] in
       let attach e = Array.iter (fun l -> occ.(l) <- e :: occ.(l)) e.lits in
       Array.iter attach entries;
       (* ---------------- subsumption + strengthening ---------------- *)
       (* Fuel bounds the candidate inspections: without it this phase
          is quadratic in the occurrence-list lengths, and one pass on a
          large dense instance can eat the entire solve budget. *)
       let fuel = ref limits.max_subsume_steps in
       (* Span counters: c1 = fuel spent, c2 = changes made (clauses
          subsumed + literals strengthened).  wrap_counted closes the
          span on Abort, so a deadline mid-phase still pairs B/E. *)
       Span.wrap_counted tracer "subsume"
         ~counters:(fun () ->
           ( limits.max_subsume_steps - !fuel,
             st.subsumed_clauses + st.strengthened_lits ))
         (fun () ->
       Array.iter
         (fun c ->
           if c.alive && Array.length c.lits > 0 && !fuel > 0 then begin
             check ();
             (* Backward subsumption through the least-occurring literal. *)
             let best = ref c.lits.(0) and best_n = ref max_int in
             Array.iter
               (fun l ->
                 let n = List.length occ.(l) in
                 if n < !best_n then begin
                   best := l;
                   best_n := n
                 end)
               c.lits;
             List.iter
               (fun d ->
                 decr fuel;
                 if
                   !fuel > 0 && d != c && d.alive && c.alive
                   && subset_sig c.sig_ d.sig_
                   && subset c.lits d.lits
                   && not (view.locked d.cr)
                 then begin
                   view.subsume d.cr;
                   d.alive <- false;
                   st.subsumed_clauses <- st.subsumed_clauses + 1;
                   Metrics.inc m_subsumed
                 end)
               occ.(!best);
             (* Self-subsuming resolution: c strengthens any d holding
                [neg l] that c subsumes modulo the flip. *)
             Array.iter
               (fun l ->
                 if c.alive && !fuel > 0 then
                   List.iter
                     (fun d ->
                       decr fuel;
                       if
                         !fuel > 0 && d != c && d.alive && c.alive
                         && subset_sig c.sig_ d.sig_
                         && Array.exists (( = ) (l lxor 1)) d.lits
                         && subset_flipping c.lits d.lits l
                         && not (view.locked d.cr)
                       then begin
                         let lits =
                           Array.of_list
                             (List.filter (( <> ) (l lxor 1)) (Array.to_list d.lits))
                         in
                         st.strengthened_lits <- st.strengthened_lits + 1;
                         Metrics.inc m_strengthened;
                         let ncr = view.strengthen ~cr:d.cr ~by:c.cr lits in
                         if not (view.ok ()) then raise Abort;
                         if ncr >= 0 then begin
                           d.cr <- ncr;
                           d.lits <- lits;
                           d.sig_ <- signature lits;
                           attach d
                         end
                         else d.alive <- false
                       end)
                     occ.(l lxor 1))
               c.lits
           end)
         entries);
       (* ---------------- bounded variable elimination ---------------- *)
       let live_occs l =
         List.filter (fun e -> e.alive && Array.exists (( = ) l) e.lits) occ.(l)
       in
       let occ_count v = List.length (live_occs (2 * v)) + List.length (live_occs ((2 * v) + 1)) in
       (* Cheapest-first: fewest occurrences pops first from the max-heap. *)
       let scores = Array.make (max nv 1) 0.0 in
       let heap = Idx_heap.create ~score:(fun v -> scores.(v)) in
       Idx_heap.retarget heap scores;
       Idx_heap.ensure heap nv;
       for v = 0 to nv - 1 do
         if
           (not (view.protected v))
           && (not (view.eliminated v))
           && view.lit_value (2 * v) = -1
         then begin
           let n = occ_count v in
           if n > 0 && n <= limits.max_occ then begin
             scores.(v) <- -.float_of_int n;
             Idx_heap.insert heap v
           end
         end
       done;
       (* Span counters: c1 = elimination candidates popped (the fuel
          actually consumed), c2 = variables eliminated. *)
       let pops = ref 0 in
       Span.wrap_counted tracer "bve"
         ~counters:(fun () -> (!pops, st.eliminated_vars))
         (fun () ->
       while not (Idx_heap.is_empty heap) do
         check ();
         incr pops;
         let v = Idx_heap.pop_max heap in
         (* Re-validate: earlier eliminations may have changed the
            occurrence lists or assigned the variable. *)
         if (not (view.eliminated v)) && view.lit_value (2 * v) = -1 then begin
           let pos = live_occs (2 * v) and neg = live_occs ((2 * v) + 1) in
           let np = List.length pos and nn = List.length neg in
           if np + nn > 0 && np + nn <= limits.max_occ
              && not (List.exists (fun e -> view.locked e.cr) (pos @ neg))
           then begin
             let resolvents = ref [] in
             let count = ref 0 in
             let ok = ref true in
             List.iter
               (fun cp ->
                 List.iter
                   (fun cn ->
                     if !ok then
                       match resolve cp.lits cn.lits v with
                       | None -> ()
                       | Some r ->
                           if Array.length r > limits.max_resolvent then ok := false
                           else begin
                             incr count;
                             if !count > np + nn then ok := false
                             else resolvents := (cp.cr, cn.cr, r) :: !resolvents
                           end)
                   neg)
               pos;
             if !ok then begin
               let occs = List.map (fun e -> (e.cr, e.lits)) (pos @ neg) in
               let new_crs = view.commit_elim v occs !resolvents in
               List.iter (fun e -> e.alive <- false) (pos @ neg);
               (* The resolvents are live problem clauses now: enter
                  them into the occurrence lists, or a later elimination
                  this round would compute from an incomplete clause set
                  and leave live clauses naming an eliminated (hence
                  never-assigned) variable. *)
               List.iter
                 (fun cr ->
                   let lits = view.clause_lits cr in
                   Array.sort Int.compare lits;
                   attach { cr; lits; sig_ = signature lits; alive = true })
                 new_crs;
               st.eliminated_vars <- st.eliminated_vars + 1;
               Metrics.inc m_eliminated;
               if not (view.ok ()) then raise Abort
             end
           end
         end
       done);
       (* A sweep that changed nothing cannot enable anything next
          round: stop instead of paying another full snapshot and
          subsumption scan. *)
       continue_ :=
         st.subsumed_clauses + st.strengthened_lits + st.eliminated_vars
         > work_before
     done;
     (* ---------------- failed-literal probing ---------------- *)
     check ();
     let candidates = ref [] in
     for v = 0 to nv - 1 do
       if
         (not (view.protected v))
         && (not (view.eliminated v))
         && view.lit_value (2 * v) = -1
       then candidates := v :: !candidates
     done;
     let ranked =
       List.sort (fun a b -> Float.compare (view.activity b) (view.activity a)) !candidates
     in
     let budget = ref limits.max_probes in
     (* Span counters: c1 = probes performed, c2 = failed literals. *)
     Span.wrap_counted tracer "probe"
       ~counters:(fun () -> (st.probes, st.failed_literals))
       (fun () ->
     List.iter
       (fun v ->
         if !budget > 0 then begin
           check ();
           if view.lit_value (2 * v) = -1 then begin
             decr budget;
             st.probes <- st.probes + 1;
             Metrics.inc m_probes;
             let failed_pos = view.probe (2 * v) in
             if failed_pos then begin
               st.failed_literals <- st.failed_literals + 1;
               Metrics.inc m_failed
             end;
             (* The failed-literal unit may have assigned v; re-check
                before probing the other polarity. *)
             if view.ok () && view.lit_value (2 * v) = -1 then begin
               st.probes <- st.probes + 1;
               Metrics.inc m_probes;
               if view.probe ((2 * v) + 1) then begin
                 st.failed_literals <- st.failed_literals + 1;
                 Metrics.inc m_failed
               end
             end;
             if not (view.ok ()) then raise Abort
           end
         end)
       ranked)
   with Abort -> ());
  st
