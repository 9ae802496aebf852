module G = Msu_guard.Guard
module Ck = Msu_guard.Checkpoint
module Fault = Msu_guard.Fault
module Frame = Msu_frame.Frame
module Obs = Msu_obs.Obs
module T = Msu_maxsat.Types
module M = Msu_maxsat.Maxsat
module Workers = Msu_harness.Workers
module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf

type spec = {
  label : string;
  algorithm : M.algorithm;
  encoding : Msu_card.Card.encoding;
  fault : Fault.kind option;
}

let spec ?encoding ?fault algorithm =
  let encoding =
    match encoding with
    | Some e -> e
    | None -> (
        match algorithm with
        | M.Msu4_v1 -> Msu_card.Card.Bdd
        | _ -> Msu_card.Card.Sortnet)
  in
  let label =
    match algorithm with
    | M.Sls -> "sls" (* no encoding, no solver: the suffix would only mislead *)
    | _ ->
        Printf.sprintf "%s/%s"
          (M.algorithm_to_string algorithm)
          (Msu_card.Card.encoding_to_string encoding)
  in
  { label; algorithm; encoding; fault }

(* Diversity order: the paper's msu4 first, then the other core-guided
   algorithms, then the PBO baselines and branch and bound.  Each entry
   runs a different search: msu4-v1 is left out because it runs
   msu4-v2's search (the encoding is not read), and msu1 because it
   runs wpm1's on unit weights and cannot run on weighted instances.
   Racing two identical searches buys nothing. *)
let default_specs n =
  let base =
    [
      spec M.Msu4_v2;
      spec M.Msu3;
      spec M.Oll;
      spec M.Wpm1;
      spec M.Pbo_linear;
      spec M.Pbo_binary;
      spec M.Branch_bound;
    ]
  in
  let rec take k = function
    | x :: tl when k > 0 -> x :: take (k - 1) tl
    | _ -> []
  in
  take (max 1 n) base

type worker_report = {
  w_label : string;
  w_algorithm : M.algorithm;
  w_outcome : T.outcome;
  w_time : float;
  w_stats : T.stats;
}

type result = {
  outcome : T.outcome;
  model : bool array option;
  winner : string option;
  lb : int;
  ub : int option;
  reports : worker_report list;
  disagreements : string list;
  stats : T.stats;
  elapsed : float;
}

(* ---------------- frames ----------------

   Worker -> parent (up pipe): Bracket frames from {!Ck.writer} (lb,
   ub and the incumbent model behind ub, which the parent re-costs
   before trusting it), Clause frames (share-safe learnt clauses as
   packed literals), Event frames, and the Result frame last.
   Parent -> worker (down pipe): Bracket frames with the global bracket
   and no model, and the Clause frames of its peers.
   Every frame is checked on receipt: a payload that does not decode, a
   negative or crossed bracket, or a clause past the instance is
   dropped, never installed. *)

(* The exporter caps a clause at 8 literals, so anything much longer is
   junk. *)
let max_clause_lits = 64

let clause_codec =
  Frame.map Fun.id
    (fun (lbd, lits) ->
      let n = Array.length lits in
      if n < 1 || n > max_clause_lits then Frame.malformed "clause length" else (lbd, lits))
    Frame.(pair nat (array nat))

(* Dedup key: the clause as a set of literals.  Sorted packed ints, so
   permutations of the same clause collide. *)
let clause_key lits =
  let s = Array.copy lits in
  Array.sort compare s;
  String.concat "," (Array.to_list (Array.map string_of_int s))

(* Parent-side sharing metrics (the workers are forked, so their
   process-local registries never reach this process). *)
let m_shared =
  Obs.Metrics.counter ~help:"learnt clauses accepted into the shared pool"
    "msu_shared_clauses_total"

let m_shared_dup =
  Obs.Metrics.counter ~help:"re-exports dropped by the dedup digest"
    "msu_shared_duplicates_total"

let m_shared_rej =
  Obs.Metrics.counter ~help:"malformed or out-of-range shared frames dropped"
    "msu_shared_rejected_total"

let m_incumbents =
  Obs.Metrics.counter ~help:"streamed models accepted after parent re-costing"
    "msu_shared_incumbents_total"

(* ---------------- worker (child process) ---------------- *)

(* Runs in the forked worker ({!Workers.spawn} owns the process set-up,
   the result frame and the exit). *)
let run_worker ~deadline ~max_conflicts ~down ~up ~index ~observe ~share
    ~seed_ub ~trace_ctx sp w =
  (match sp.fault with Some k -> Fault.arm k | None -> ());
  Unix.set_nonblock down;
  let guard = G.create ~deadline ?max_conflicts () in
  G.set_cancel_target guard;
  (* The parent's pre-seeded upper bound goes straight into the guard
     before the solve starts — same channel a warm-resume checkpoint
     uses.  Waiting for the first bracket broadcast instead would let the
     solver burn its opening iterations (often the expensive ones)
     without the bound. *)
  (match seed_ub with
  | Some u -> G.install_bounds guard ~lb:0 ~ub:(Some u)
  | None -> ());
  let cell = G.Progress.create () in
  let publish = Ck.writer up cell in
  (* Foreign clauses received from the parent, drained by the solver at
     its next restart boundary (Solver.set_importer). *)
  let imports = ref [] in
  let inbox = Frame.reader () in
  let receive (f : Frame.t) =
    try
      match f.Frame.tag with
      | Frame.Bracket ->
          let c = Ck.of_frame f in
          G.install_bounds guard ~lb:c.Ck.lb ~ub:c.Ck.ub
      | Frame.Clause when share ->
          let _, lits = Frame.decode Frame.Clause clause_codec f in
          imports := Array.map Lit.of_int_unsafe lits :: !imports
      | _ -> ()
    with Frame.Malformed _ -> ()
  in
  let drain_broadcasts () =
    try ignore (Frame.drain inbox down receive : bool)
    with Frame.Malformed _ | Frame.Version_mismatch _ | Unix.Unix_error _ -> ()
  in
  let ticker () =
    publish ();
    drain_broadcasts ();
    (* Stop as soon as the global bracket collapses: combining our own
       bounds with the externally proved ones, lb = ub means the
       portfolio as a whole is done and the parent has (or will get)
       the winning model from whoever proved the ub. *)
    let lb = max (G.Progress.lb cell) (G.external_lb guard) in
    let ub =
      match (G.Progress.ub cell, G.external_ub guard) with
      | Some a, Some b -> min a b
      | Some a, None | None, Some a -> a
      | None, None -> max_int
    in
    if ub < max_int && lb >= ub then G.trip guard G.Cancelled
  in
  G.set_ticker guard ticker;
  (* Event forwarding rides the existing up pipe: each event becomes one
     Event frame, demultiplexed in the parent by its solve id (the
     worker's spec index). *)
  let sink = if observe then Workers.event_sink up else Obs.null in
  (* Clause sharing endpoints: exports go straight up the pipe (the up
     fd is blocking, so frames are never torn); imports come from the
     broadcast queue filled above. *)
  let share_endpoints =
    if share then
      Some
        {
          T.sh_export =
            (fun ~lbd lits ->
              Workers.write_frame up
                (Frame.encode Frame.Clause clause_codec (lbd, Array.map Lit.to_int lits)));
          T.sh_drain =
            (fun () ->
              let l = !imports in
              imports := [];
              List.rev l);
        }
    else None
  in
  (* Cross-process trace propagation: the tracer is created with the
     coordinator's trace id and request span as anchor, so every span
     this worker sends up the pipe already carries the right lineage —
     the parent just forwards the frames. *)
  let spans =
    match trace_ctx with
    | Some (trace, parent) -> Obs.Span.create ~trace ~parent ~sink ~id:index ()
    | None -> Obs.Span.disabled
  in
  let config =
    {
      T.default_config with
      T.deadline;
      max_conflicts;
      encoding = sp.encoding;
      sink;
      solve_id = index;
      guard = Some guard;
      progress = Some cell;
      share = share_endpoints;
      spans;
    }
  in
  let r = M.solve_supervised ~config sp.algorithm w in
  (* Terminal publication: the parent learns the final bounds from the
     pipe even before it reaps us and reads the full report. *)
  G.Progress.note_lb cell (fst (T.outcome_bounds r.T.outcome));
  publish ();
  r

(* ---------------- parent ---------------- *)

type worker_state = {
  st_index : int;
  st_spec : spec;
  mutable st_lb : int;  (* best bounds this worker published *)
  mutable st_ub : int;  (* max_int = none *)
  mutable st_model : (int * bool array) option;
      (* best streamed incumbent, re-costed by the parent *)
  mutable st_result : (T.result, string) Stdlib.result;  (* set at reap *)
}

let solve ?specs ?(jobs = 4) ?timeout ?(grace = 1.0) ?max_conflicts ?trace
    ?(sink = Obs.null) ?(spans = Obs.Span.disabled) ?(handle_sigint = false)
    ?(share_clauses = false) ?(sls_worker = false) w =
  let specs =
    match specs with
    | Some [] -> invalid_arg "Portfolio.solve: empty spec list"
    | Some s -> s
    | None -> default_specs jobs
  in
  let say fmt =
    Printf.ksprintf (fun s -> match trace with Some f -> f s | None -> ()) fmt
  in
  let t0 = Unix.gettimeofday () in
  (* SLS runs in two roles, both additive (it proves nothing, so it never
     replaces an exact spec).  First a pre-seed sprint, in-process and
     before any fork: a few tens of milliseconds of flips whose best
     feasible model seeds [best_ub] and rides out in the very first
     bracket broadcast, so every exact worker starts with a real incumbent to
     prune against instead of discovering one independently.  Second, a
     rider process forked lazily in the pump only once the race has
     outlived a startup delay — an incomplete solver racing the exact
     workers from t=0 pays pure CPU-share tax on instances they decide
     quickly (it can never decide the race itself), so easy instances
     pay nothing at all for it. *)
  let seed_incumbent =
    (* The sprint's cost floor is building the flip state over every
       clause, so past a few thousand clauses even zero flips would
       blow the wall budget — skip outright; on instances that big the
       exact workers find their own first incumbent faster than the
       sprint could return one. *)
    if sls_worker && Wcnf.num_hard w + Wcnf.num_soft w <= 4_000 then
      match
        Msu_maxsat.Local_search.best_cost ~max_flips:10_000 ~stagnation:3_000
          ~budget:0.012 ~seed:1 w
      with
      | Some (_, m) -> (
          (* Re-cost before trusting, same as any streamed incumbent. *)
          match Wcnf.cost_of_model w m with
          | Some c -> Some (c, m)
          | None -> None)
      | None -> None
    else None
  in
  let deadline = match timeout with None -> infinity | Some t -> t0 +. t in
  (* A worker that died mid-broadcast must not kill the parent. *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe)
  @@ fun () ->
  let observe = not (Obs.is_null sink) in
  (* Trace context handed to every worker at fork time; the anchor is
     the caller's request span, so worker spans re-parent under it. *)
  let trace_ctx =
    if Obs.Span.enabled spans then
      Some (Obs.Span.trace_id spans, Obs.Span.current spans)
    else None
  in
  let pool = Workers.create ~sink ~grace ~codec:T.result_codec () in
  (* Spec order; the lazy SLS rider (below) appends a late-forked worker
     while the pump is already running. *)
  let states = ref [] in
  let num_specs = List.length specs in
  let best_lb = ref 0
  and best_ub =
    (* The pre-seed is the bracket's starting point: the workers got it
       installed at fork, and the merge pairs it with the seed model. *)
    ref (match seed_incumbent with Some (c, _) -> c | None -> max_int)
  in
  (match seed_incumbent with
  | Some (c, _) -> say "c [portfolio] sls pre-seed -> ub %d (installed at fork)" c
  | None -> ());
  let cancelling = ref false in
  let cancel_all why =
    if not !cancelling then begin
      say "c [portfolio] cancelling remaining workers (%s)" why;
      cancelling := true;
      List.iter (fun (_, wk) -> Workers.cancel wk) !states
    end
  in
  (* All parent->worker traffic goes through the worker's down-pipe
     buffer ({!Workers.send}): a full pipe parks the tail and the pump's
     writable-select round finishes the job — no torn or dropped
     broadcast. *)
  let bracket () =
    let ub = if !best_ub = max_int then None else Some !best_ub in
    Ck.frame { Ck.lb = !best_lb; ub; model = None }
  in
  let broadcast () =
    let frame = bracket () in
    List.iter (fun (_, wk) -> Workers.send wk frame) !states
  in
  (* Fold worker bounds into the global bracket; rebroadcast on
     improvement and start cancellation once the bracket collapses. *)
  let note_bounds st lb ub =
    if lb > st.st_lb then st.st_lb <- lb;
    (match ub with Some u when u < st.st_ub -> st.st_ub <- u | _ -> ());
    let improved = ref false in
    if st.st_lb > !best_lb then begin
      best_lb := st.st_lb;
      improved := true
    end;
    if st.st_ub < !best_ub then begin
      best_ub := st.st_ub;
      improved := true
    end;
    if !improved then begin
      say "c [portfolio] %s -> global bounds [%d, %s]" st.st_spec.label !best_lb
        (if !best_ub = max_int then "?" else string_of_int !best_ub);
      broadcast ();
      if !best_ub < max_int && !best_lb >= !best_ub then
        cancel_all "bounds met"
    end
  in
  let num_vars_w = Wcnf.num_vars w in
  (* Dedup digest over every clause ever accepted into the shared pool:
     re-exports (from any worker) are dropped, so the rebroadcast fan-out
     is linear in the number of distinct clauses. *)
  let seen_clauses : (string, unit) Hashtbl.t = Hashtbl.create 97 in
  let improves st c = match st.st_model with Some (c0, _) -> c < c0 | None -> true in
  let handle_frame st (f : Frame.t) =
    match f.Frame.tag with
    | Frame.Bracket -> (
        match Ck.of_frame f with
        | exception Frame.Malformed _ -> Obs.Metrics.inc m_shared_rej
        | { Ck.lb; ub; model } -> (
            note_bounds st lb ub;
            (* Streamed incumbent: certified by re-costing against the
               instance here — the claimed cost is only a hint, and a
               model that falsifies a hard clause is rejected outright.
               A frame repeats the model of an unchanged ub, so only a
               claim below the best model so far is re-costed. *)
            match (ub, model) with
            | Some u, Some bits when improves st u ->
                if Array.length bits < num_vars_w then Obs.Metrics.inc m_shared_rej
                else begin
                  let m = Array.sub bits 0 num_vars_w in
                  match Wcnf.cost_of_model w m with
                  | Some c when improves st c ->
                      st.st_model <- Some (c, m);
                      Obs.emit sink ~id:st.st_index (Obs.Event.Incumbent { cost = c });
                      Obs.Metrics.inc m_incumbents;
                      note_bounds st 0 (Some c)
                  | Some _ -> ()
                  | None -> Obs.Metrics.inc m_shared_rej
                end
            | _ -> ()))
    | Frame.Clause when share_clauses -> (
        match Frame.decode Frame.Clause clause_codec f with
        | (lbd, lits) when Array.for_all (fun l -> l lsr 1 < num_vars_w) lits ->
            (* The var bound is a soundness fence: a clause mentioning
               variables past the instance's (selectors, totalizer
               internals) escaped a worker's share-safety tracking and
               must not reach its peers. *)
            let key = clause_key lits in
            if Hashtbl.mem seen_clauses key then Obs.Metrics.inc m_shared_dup
            else begin
              Hashtbl.add seen_clauses key ();
              Obs.emit sink ~id:st.st_index
                (Obs.Event.Clause_shared { lbd; size = Array.length lits });
              Obs.Metrics.inc m_shared;
              let frame = Frame.encode Frame.Clause clause_codec (lbd, lits) in
              List.iter
                (fun (st', wk) ->
                  if st'.st_index <> st.st_index then Workers.send wk frame)
                !states
            end
        | _ | (exception Frame.Malformed _) -> Obs.Metrics.inc m_shared_rej)
    | _ -> ()
  in
  let on_exit st (e : T.result Workers.exit) =
    st.st_result <- e.Workers.result;
    match e.Workers.result with
    | Ok r -> (
        let lb, ub = T.outcome_bounds r.T.outcome in
        note_bounds st lb ub;
        match r.T.outcome with
        | T.Optimum _ | T.Hard_unsat -> cancel_all ("decided by " ^ st.st_spec.label)
        | T.Bounds _ | T.Crashed _ -> ())
    | Error _ -> ()
  in
  let spawn_worker index sp ~seed_ub =
    let st =
      {
        st_index = index;
        st_spec = sp;
        st_lb = 0;
        st_ub = max_int;
        st_model = None;
        st_result = Error "worker not reaped";
      }
    in
    (* When the parent fields Ctrl-C for the whole portfolio, the
       terminal's SIGINT must not also kill the workers directly — the
       parent's SIGTERM ladder is what lets them flush their partial
       bounds first. *)
    let wk =
      Workers.spawn pool ~id:index ~ignore_sigint:handle_sigint ~down:true ~events:sink
        ~deadline ~on_frame:(handle_frame st) ~on_exit:(on_exit st)
        (fun ~up ~down ->
          run_worker ~deadline ~max_conflicts ~down:(Option.get down) ~up ~index
            ~observe ~share:share_clauses ~seed_ub ~trace_ctx sp w)
    in
    states := !states @ [ (st, wk) ];
    wk
  in
  List.iteri
    (fun index sp ->
      ignore (spawn_worker index sp ~seed_ub:(Option.map fst seed_incumbent)))
    specs;
  (* Ctrl-C in the parent cancels the whole race through the ladder:
     workers get SIGTERM, flush their bounds, and the normal merge
     still runs — no orphaned children, no lost partial bounds. *)
  let old_sigint =
    if handle_sigint then
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> cancel_all "interrupt")))
    else None
  in
  let restore_sigint () =
    match old_sigint with
    | Some h -> Sys.set_signal Sys.sigint h
    | None -> ()
  in
  (* Lazy SLS rider.  Forked only if the race outlives the startup
     delay AND nobody holds a model-backed incumbent by then: an
     incomplete solver's one comparative advantage is finding a first
     feasible model fast, so once the pre-seed sprint or a streamed
     incumbent supplies one, further flips on a shared core are pure
     CPU tax against the exact provers.  Instances decided quickly pay
     nothing at all — no fork, no pipes, no reap. *)
  let rider_delay =
    if deadline = infinity then 0.5
    else Float.min 0.5 (0.25 *. Float.max 0. (deadline -. t0))
  in
  let rider_spawned = ref (not sls_worker) in
  let spawn_rider () =
    let wk =
      spawn_worker num_specs (spec M.Sls)
        ~seed_ub:(if !best_ub = max_int then None else Some !best_ub)
    in
    say "c [portfolio] sls rider forked at +%.2fs" (Unix.gettimeofday () -. t0);
    (* Catch the rider up on the bracket it missed. *)
    Workers.send wk (bracket ())
  in
  let rec pump () =
    if
      (not !rider_spawned)
      && (not !cancelling)
      && Workers.running pool > 0
      && Unix.gettimeofday () -. t0 >= rider_delay
    then begin
      (* Decided once, at the delay boundary: incumbents only ever
         accumulate, so "somebody already has one" never reverses. *)
      rider_spawned := true;
      if
        seed_incumbent = None
        && List.for_all (fun (st, _) -> st.st_model = None) !states
      then spawn_rider ()
    end;
    if Workers.running pool > 0 then begin
      (* The pool's ladder cancels workers past [deadline + grace]; the
         short timeout only keeps the rider decision on time. *)
      ignore (Workers.poll pool ~timeout:0.05 ());
      pump ()
    end
  in
  Fun.protect ~finally:restore_sigint pump;
  let states = List.map fst !states in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* ---- merge ---- *)
  let report_of st =
    match st.st_result with
    | Ok r ->
        {
          w_label = st.st_spec.label;
          w_algorithm = st.st_spec.algorithm;
          w_outcome = r.T.outcome;
          w_time = r.T.elapsed;
          w_stats = r.T.stats;
        }
    | Error reason ->
        {
          w_label = st.st_spec.label;
          w_algorithm = st.st_spec.algorithm;
          w_outcome =
            T.Crashed
              {
                reason;
                lb = st.st_lb;
                ub = (if st.st_ub = max_int then None else Some st.st_ub);
              };
          w_time = elapsed;
          w_stats = T.empty_stats;
        }
  in
  let reports = List.map report_of states in
  let stats =
    List.fold_left (fun acc r -> T.merge_stats acc r.w_stats) T.empty_stats reports
  in
  let optima =
    List.filter_map
      (fun r ->
        match r.w_outcome with T.Optimum c -> Some (r.w_label, c) | _ -> None)
      reports
  in
  let hard_unsat =
    List.filter_map
      (fun r ->
        match r.w_outcome with T.Hard_unsat -> Some r.w_label | _ -> None)
      reports
  in
  (* Model-backed upper-bound candidates: only these may decide an
     optimum — a peer's published ub without a surviving model never
     masquerades as a solution.  Streamed incumbents count: they were
     re-costed against the instance on receipt, so they are certified
     even when the worker that found them died before writing a
     report.  The pre-seed sprint's model joins on the same terms: it
     was re-costed at birth, and a worker that proves lb up to the seed
     cost closes the gap through it. *)
  let candidates =
    List.filter_map
      (fun st ->
        match st.st_result with
        | Ok r -> (
            match (r.T.model, snd (T.outcome_bounds r.T.outcome)) with
            | Some m, Some u -> Some (u, m, st.st_spec.label)
            | _ -> None)
        | _ -> None)
      states
    @ List.filter_map
        (fun st ->
          match st.st_model with
          | Some (c, m) -> Some (c, m, st.st_spec.label)
          | None -> None)
        states
    @ (match seed_incumbent with
      | Some (c, m) -> [ (c, m, "sls-seed") ]
      | None -> [])
  in
  let best_candidate =
    List.fold_left
      (fun acc (u, m, l) ->
        match acc with
        | Some (u', _, _) when u' <= u -> acc
        | _ -> Some (u, m, l))
      None candidates
  in
  let disagreements = ref [] in
  let disagree fmt = Printf.ksprintf (fun s -> disagreements := s :: !disagreements) fmt in
  (match optima with
  | (l0, c0) :: rest ->
      List.iter
        (fun (l, c) ->
          if c <> c0 then disagree "%s proved optimum %d but %s proved %d" l0 c0 l c)
        rest;
      if !best_ub < c0 then
        disagree "%s proved optimum %d but a peer published ub %d" l0 c0 !best_ub;
      if !best_lb > c0 then
        disagree "%s proved optimum %d but a peer published lb %d" l0 c0 !best_lb;
      if hard_unsat <> [] then
        disagree "%s proved an optimum but %s reported hard-unsat" l0
          (List.hd hard_unsat)
  | [] ->
      if hard_unsat <> [] && candidates <> [] then
        disagree "%s reported hard-unsat but a peer found a model"
          (List.hd hard_unsat);
      if !best_ub < max_int && !best_lb > !best_ub then
        disagree "published bounds crossed: lb %d > ub %d" !best_lb !best_ub);
  let outcome, model, winner =
    match optima with
    | (l, c) :: rest ->
        let l, c =
          List.fold_left (fun (l, c) (l', c') -> if c' < c then (l', c') else (l, c))
            (l, c) rest
        in
        let model =
          List.find_map
            (fun st ->
              match st.st_result with
              | Ok { T.outcome = T.Optimum c'; model = Some m; _ }
                when c' = c ->
                  Some m
              | _ -> None)
            states
        in
        (T.Optimum c, model, Some l)
    | [] when hard_unsat <> [] -> (T.Hard_unsat, None, Some (List.hd hard_unsat))
    | [] ->
        let lb = !best_lb in
        let all_crashed =
          List.for_all
            (fun r -> match r.w_outcome with T.Crashed _ -> true | _ -> false)
            reports
        in
        if all_crashed then begin
          let ub = if !best_ub = max_int then None else Some !best_ub in
          (* Attach a salvaged model only when its cost matches the
             reported ub, so the merged Crashed still certifies. *)
          let model =
            match (best_candidate, ub) with
            | Some (u, m, _), Some b when u = b -> Some m
            | _ -> None
          in
          (T.Crashed { reason = "all workers crashed"; lb; ub }, model, None)
        end
        else (
          match best_candidate with
          | Some (u, m, l) when lb >= u ->
              (* Gap closed across workers: one proved the lower bound,
                 another holds a model at that cost. *)
              (T.Optimum u, Some m, Some l)
          | Some (u, m, _) -> (T.Bounds { lb; ub = Some u }, Some m, None)
          | None ->
              let ub = if !best_ub = max_int then None else Some !best_ub in
              ( T.Bounds
                  { lb = (match ub with Some u -> min lb u | None -> lb); ub },
                None,
                None ))
  in
  {
    outcome;
    model;
    winner;
    lb = !best_lb;
    ub = (if !best_ub = max_int then None else Some !best_ub);
    reports;
    disagreements = List.rev !disagreements;
    stats;
    elapsed;
  }

let to_result r =
  { T.outcome = r.outcome; model = r.model; stats = r.stats; elapsed = r.elapsed }

let pp_result ppf r =
  Format.fprintf ppf "%a (%.3fs, %d workers%s)" T.pp_outcome r.outcome r.elapsed
    (List.length r.reports)
    (match r.winner with Some w -> ", winner " ^ w | None -> "")
