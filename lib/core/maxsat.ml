type algorithm =
  | Msu4_v1
  | Msu4_v2
  | Msu1
  | Msu2
  | Msu3
  | Oll
  | Wpm1
  | Pbo_linear
  | Pbo_binary
  | Branch_bound
  | Brute
  | Sls

(* The exact algorithms — every member proves optima, so tests and the
   bench can demand agreement across the whole list.  [Sls] is
   deliberately absent: it is incomplete (bounds only) and joins solves
   as a portfolio incumbent-seeder, not as an exact solver. *)
let all_algorithms =
  [
    Msu4_v1;
    Msu4_v2;
    Msu1;
    Msu2;
    Msu3;
    Oll;
    Wpm1;
    Pbo_linear;
    Pbo_binary;
    Branch_bound;
    Brute;
  ]

let algorithm_to_string = function
  | Msu4_v1 -> "msu4-v1"
  | Msu4_v2 -> "msu4-v2"
  | Msu1 -> "msu1"
  | Msu2 -> "msu2"
  | Msu3 -> "msu3"
  | Oll -> "oll"
  | Wpm1 -> "wpm1"
  | Pbo_linear -> "pbo"
  | Pbo_binary -> "pbo-binary"
  | Branch_bound -> "maxsatz"
  | Brute -> "brute"
  | Sls -> "sls"

let algorithm_of_string = function
  | "msu4-v1" -> Some Msu4_v1
  | "msu4-v2" | "msu4" -> Some Msu4_v2
  | "msu1" -> Some Msu1
  | "msu2" -> Some Msu2
  | "msu3" -> Some Msu3
  | "oll" -> Some Oll
  | "wpm1" -> Some Wpm1
  | "pbo" | "pbo-linear" -> Some Pbo_linear
  | "pbo-binary" -> Some Pbo_binary
  | "maxsatz" | "branch-bound" | "bb" -> Some Branch_bound
  | "brute" -> Some Brute
  | "sls" | "local-search" -> Some Sls
  | _ -> None

let describe = function
  | Msu4_v1 -> "msu4 under the paper's v1 (BDD) name; runs the same search as msu4-v2"
  | Msu4_v2 -> "msu4 with its at-most bound on an incremental totalizer"
  | Msu1 -> "Fu & Malik core-guided algorithm with pairwise exactly-one"
  | Msu2 -> "Fu & Malik variant with linear exactly-one encodings"
  | Msu3 -> "core-guided lower-bound search, one blocking variable per clause"
  | Oll -> "OLL: incremental core-guided with soft cardinality sums (RC2 lineage)"
  | Wpm1 -> "weighted Fu & Malik with weight splitting (WPM1)"
  | Pbo_linear -> "PBO formulation, minisat+-style linear minimization"
  | Pbo_binary -> "PBO formulation, binary search over a totalizer"
  | Branch_bound -> "maxsatz-style branch and bound with UP lower bounds"
  | Brute -> "exhaustive enumeration (reference)"
  | Sls -> "WalkSAT-style stochastic local search (incomplete; streams upper bounds)"

let solve ?(config = Types.default_config) algorithm w =
  match algorithm with
  | Msu4_v1 -> Msu4.solve ~config:{ config with encoding = Msu_card.Card.Bdd } w
  | Msu4_v2 -> Msu4.solve ~config:{ config with encoding = Msu_card.Card.Sortnet } w
  | Msu1 -> Msu1.solve ~config w
  | Msu2 -> Msu2.solve ~config w
  | Msu3 -> Msu3.solve ~config w
  | Oll -> Oll.solve ~config w
  | Wpm1 -> Wpm1.solve ~config w
  | Pbo_linear -> Pbo.solve ~config ~search:`Linear w
  | Pbo_binary -> Pbo.solve ~config ~search:`Binary w
  | Branch_bound -> Branch_bound.solve ~config w
  | Brute -> Brute.solve ~config w
  | Sls ->
      (* Under a guard or deadline (supervised runs, the portfolio) the
         flip budget is unbounded but improvement-gated: keep flipping
         while new incumbents arrive, return once the search stalls.  A
         sprinter, not a marathoner — on a loaded box an SLS worker that
         runs to the deadline steals CPU share from the exact workers
         for no further gain.  A bare solve terminates on the flip
         budget alone. *)
      let supervised =
        config.Types.deadline < infinity
        || (match config.Types.guard with Some _ -> true | None -> false)
      in
      Local_search.solve ~config
        ~max_flips:(if supervised then max_int else 100_000)
        ~stagnation:(if supervised then 200_000 else max_int)
        ~seed:config.Types.solve_id w


module G = Msu_guard.Guard
module F = Msu_guard.Fault

(* Apply armed result-corrupting faults (tests only): the certifier must
   catch exactly these lies. *)
let apply_faults r =
  let r =
    if F.consume F.Corrupt_model_bit then
      match r.Types.model with
      | Some m when Array.length m > 0 ->
          let m = Array.copy m in
          m.(0) <- not m.(0);
          { r with Types.model = Some m }
      | _ -> r
    else r
  in
  if F.consume F.Flip_sat_answer then begin
    let outcome =
      match r.Types.outcome with
      | Types.Optimum c when c > 0 -> Types.Optimum (c - 1)
      | Types.Optimum _ -> Types.Hard_unsat
      | Types.Hard_unsat -> Types.Optimum 0
      | (Types.Bounds _ | Types.Crashed _) as o -> o
    in
    let model = match outcome with Types.Hard_unsat -> None | _ -> r.Types.model in
    { r with Types.outcome; model }
  end
  else r

let solve_supervised ?(config = Types.default_config) algorithm w =
  let config = Common.with_guard config in
  let config =
    match config.Types.progress with
    | Some _ -> config
    | None -> { config with Types.progress = Some (G.Progress.create ()) }
  in
  let cell = match config.Types.progress with Some c -> c | None -> assert false in
  (* Warm resume: the checkpointed bracket was certified by a previous
     attempt, so it goes into the guard as external bounds (algorithms
     prune with it) and pre-seeds the progress cell (a second crash
     still reports at least the resumed bracket).  The incumbent model
     is only seeded after re-costing it against this instance. *)
  (match config.Types.resume with
  | Some ck ->
      (match config.Types.guard with
      | Some g -> Msu_guard.Checkpoint.install ck g
      | None -> ());
      G.Progress.note_lb cell ck.Msu_guard.Checkpoint.lb;
      (match Common.checkpoint_incumbent w ck with
      | Some (ub, m) -> G.Progress.note_ub cell ub (Some m)
      | None -> ())
  | None -> ());
  let t0 = Unix.gettimeofday () in
  match G.supervise ~spans:config.Types.spans (fun () -> solve ~config algorithm w) with
  | Ok r -> apply_faults r
  | Error reason ->
      (* The solve died; report the bounds it published before crashing. *)
      Common.finish config ~t0 ~stats:Types.empty_stats
        (Types.Crashed
           { reason; lb = G.Progress.lb cell; ub = G.Progress.ub cell })
        (G.Progress.model cell)
