module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
open Test_util

let wcnf_of_clauses ?(hard = []) n_vars soft =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  List.iter (fun c -> Wcnf.add_hard w (clause c)) hard;
  List.iter (fun c -> ignore (Wcnf.add_soft w (clause c))) soft;
  w

(* The paper's Example 2: eight clauses, MaxSAT solution 6 (cost 2). *)
let example2 () =
  wcnf_of_clauses 4
    [ [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ] ]

let optimum_of r =
  match r.T.outcome with
  | T.Optimum c -> c
  | o -> Alcotest.failf "expected optimum, got %a" T.pp_outcome o

let test_example2_all_algorithms () =
  let w = example2 () in
  List.iter
    (fun alg ->
      let r = M.solve alg w in
      Alcotest.(check int) (M.algorithm_to_string alg) 2 (optimum_of r);
      Alcotest.(check bool)
        (M.algorithm_to_string alg ^ " model verifies")
        true (T.verify_model w r);
      Alcotest.(check (option int))
        (M.algorithm_to_string alg ^ " max satisfied")
        (Some 6) (T.max_satisfied w r))
    M.all_algorithms

let test_example2_msu4_iterations () =
  (* The paper walks msu4 through exactly two cores on this formula. *)
  let r = M.solve M.Msu4_v2 (example2 ()) in
  Alcotest.(check int) "two cores" 2 r.T.stats.T.cores;
  Alcotest.(check int) "six blocking variables" 6 r.T.stats.T.blocking_vars

let test_satisfiable_formula () =
  let w = wcnf_of_clauses 2 [ [ 1 ]; [ -1; 2 ] ] in
  List.iter
    (fun alg ->
      Alcotest.(check int) (M.algorithm_to_string alg) 0 (optimum_of (M.solve alg w)))
    M.all_algorithms

let test_single_contradiction () =
  let w = wcnf_of_clauses 1 [ [ 1 ]; [ -1 ] ] in
  List.iter
    (fun alg ->
      Alcotest.(check int) (M.algorithm_to_string alg) 1 (optimum_of (M.solve alg w)))
    M.all_algorithms

let test_hard_unsat () =
  let w = wcnf_of_clauses ~hard:[ [ 1 ]; [ -1 ] ] 1 [ [ 1 ] ] in
  List.iter
    (fun alg ->
      match (M.solve alg w).T.outcome with
      | T.Hard_unsat -> ()
      | o ->
          Alcotest.failf "%s: expected hard-unsat, got %a" (M.algorithm_to_string alg)
            T.pp_outcome o)
    M.all_algorithms

let test_empty_instance () =
  let w = Wcnf.create () in
  List.iter
    (fun alg ->
      Alcotest.(check int) (M.algorithm_to_string alg) 0 (optimum_of (M.solve alg w)))
    M.all_algorithms

let test_partial_maxsat () =
  (* Hard: x1; soft: -x1 (cost 1), x2, -x2 (one of them falsified). *)
  let w = wcnf_of_clauses ~hard:[ [ 1 ] ] 2 [ [ -1 ]; [ 2 ]; [ -2 ] ] in
  List.iter
    (fun alg ->
      let r = M.solve alg w in
      Alcotest.(check int) (M.algorithm_to_string alg) 2 (optimum_of r);
      Alcotest.(check bool)
        (M.algorithm_to_string alg ^ " model satisfies hard")
        true (T.verify_model w r))
    M.all_algorithms

let weighted_algorithms =
  [ M.Wpm1; M.Pbo_linear; M.Pbo_binary; M.Branch_bound; M.Brute ]

let test_weighted_rejected () =
  (* The paper's unweighted algorithms refuse weights explicitly... *)
  let w = Wcnf.create () in
  ignore (Wcnf.add_soft w ~weight:3 (clause [ 1 ]));
  List.iter
    (fun alg ->
      match M.solve alg w with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted weights" (M.algorithm_to_string alg))
    [ M.Msu4_v1; M.Msu4_v2; M.Msu1; M.Msu2; M.Msu3; M.Oll ];
  (* ...while the weighted ones solve them. *)
  ignore (Wcnf.add_soft w (clause [ -1 ]));
  List.iter
    (fun alg ->
      match (M.solve alg w).T.outcome with
      | T.Optimum 1 -> ()
      | o -> Alcotest.failf "%s: %a" (M.algorithm_to_string alg) T.pp_outcome o)
    weighted_algorithms

let random_weighted_wcnf st =
  let n_vars = 3 + Random.State.int st 7 in
  let n_clauses = 3 + Random.State.int st 20 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to n_clauses do
    let len = 1 + Random.State.int st 3 in
    let c =
      Array.init len (fun _ -> Lit.make (Random.State.int st n_vars) (Random.State.bool st))
    in
    if Random.State.int st 5 = 0 then Wcnf.add_hard w c
    else ignore (Wcnf.add_soft w ~weight:(1 + Random.State.int st 6) c)
  done;
  w

let test_weighted_cross_check () =
  let st = Random.State.make [| 0xCC |] in
  for round = 1 to 50 do
    let w = random_weighted_wcnf st in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter
      (fun alg ->
        let r = M.solve alg w in
        match (r.T.outcome, expected) with
        | T.Optimum c, Some e when c = e ->
            if not (T.verify_model w r) then
              Alcotest.failf "round %d %s: bad model" round (M.algorithm_to_string alg)
        | T.Hard_unsat, None -> ()
        | o, _ ->
            Alcotest.failf "round %d %s: got %a expected %s" round
              (M.algorithm_to_string alg) T.pp_outcome o
              (match expected with Some e -> string_of_int e | None -> "hard-unsat"))
      weighted_algorithms
  done

let test_wpm1_weighted_example () =
  (* Two contradicting units: falsify the cheaper one. *)
  let w = Wcnf.create () in
  ignore (Wcnf.add_soft w ~weight:5 (clause [ 1 ]));
  ignore (Wcnf.add_soft w ~weight:2 (clause [ -1 ]));
  let r = M.solve M.Wpm1 w in
  Alcotest.(check int) "cost 2" 2 (optimum_of r);
  match r.T.model with
  | Some m -> Alcotest.(check bool) "keeps the heavy clause" true m.(0)
  | None -> Alcotest.fail "no model"

let test_pigeonhole_optimum () =
  (* PHP(n+1, n) becomes satisfiable after dropping exactly one clause. *)
  let f = pigeonhole 4 in
  let w = Wcnf.of_formula f in
  List.iter
    (fun alg -> Alcotest.(check int) (M.algorithm_to_string alg) 1 (optimum_of (M.solve alg w)))
    [ M.Msu4_v1; M.Msu4_v2; M.Msu3; M.Pbo_linear; M.Pbo_binary; M.Branch_bound ]

let random_wcnf st ~partial =
  let n_vars = 3 + Random.State.int st 8 in
  let n_clauses = 3 + Random.State.int st 25 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to n_clauses do
    let len = 1 + Random.State.int st 3 in
    let c =
      Array.init len (fun _ -> Lit.make (Random.State.int st n_vars) (Random.State.bool st))
    in
    if partial && Random.State.int st 4 = 0 then Wcnf.add_hard w c
    else ignore (Wcnf.add_soft w c)
  done;
  w

let cross_check ~partial ~rounds ~seed () =
  let st = Random.State.make [| seed |] in
  for round = 1 to rounds do
    let w = random_wcnf st ~partial in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter
      (fun alg ->
        let r = M.solve alg w in
        match (r.T.outcome, expected) with
        | T.Optimum c, Some e when c = e ->
            if not (T.verify_model w r) then
              Alcotest.failf "round %d %s: model verification failed" round
                (M.algorithm_to_string alg)
        | T.Hard_unsat, None -> ()
        | o, _ ->
            Alcotest.failf "round %d %s: got %a expected %s" round
              (M.algorithm_to_string alg) T.pp_outcome o
              (match expected with Some e -> string_of_int e | None -> "hard-unsat"))
      M.all_algorithms
  done

let test_deadline_gives_bounds () =
  (* A formula big enough that brute force cannot finish in the budget;
     outcomes must degrade to sound bounds rather than wrong answers. *)
  let f = pigeonhole 7 in
  let w = Wcnf.of_formula f in
  let config =
    { T.default_config with T.deadline = Unix.gettimeofday () +. 0.05 }
  in
  List.iter
    (fun alg ->
      let r = M.solve ~config alg w in
      match r.T.outcome with
      | T.Optimum 1 -> () (* fast algorithms may still finish *)
      | T.Bounds { lb; ub } ->
          Alcotest.(check bool) "lb sound" true (lb <= 1);
          (match ub with
          | Some ub -> Alcotest.(check bool) "ub sound" true (ub >= 1)
          | None -> ())
      | o -> Alcotest.failf "%s: %a" (M.algorithm_to_string alg) T.pp_outcome o)
    [ M.Msu4_v1; M.Msu4_v2; M.Msu1; M.Msu3; M.Pbo_linear; M.Branch_bound ]

let test_branch_bound_external_ub () =
  (* A peer-installed upper bound prunes branch and bound's search but
     is never claimed as its own.  The instance is built so the greedy
     seed lands on a cost-3 model (x0 loses the polarity vote) while
     the optimum is 2: with an external ub of 2 installed, every
     improving leaf costs >= 2 and is pruned, so a completed run must
     downgrade to Bounds {lb = 2; ub = Some 3} — the lower-bound proof
     survives, the optimal model belongs to the peer.  Without the
     external bound the same run proves the optimum outright. *)
  let w =
    wcnf_of_clauses 3
      [ [ 1 ]; [ 1 ]; [ 1 ]; [ -1; 2 ]; [ -1; 3 ]; [ -1; -2 ]; [ -1; -3 ] ]
  in
  let guard = Msu_guard.Guard.unlimited () in
  Msu_guard.Guard.install_bounds guard ~lb:0 ~ub:(Some 2);
  let config = { T.default_config with T.guard = Some guard } in
  let r = Msu_maxsat.Branch_bound.solve ~config w in
  (match r.T.outcome with
  | T.Bounds { lb = 2; ub = Some 3 } -> ()
  | o -> Alcotest.failf "with external ub: %a" T.pp_outcome o);
  Alcotest.(check bool) "cost-3 model still attached" true
    (T.verify_model w r);
  let r = Msu_maxsat.Branch_bound.solve w in
  match r.T.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "without external ub: %a" T.pp_outcome o

let test_msu4_without_optional_constraint () =
  (* Line 19's >=1 constraint is optional; correctness must not depend
     on it. *)
  let st = Random.State.make [| 4242 |] in
  for _ = 1 to 40 do
    let w = random_wcnf st ~partial:false in
    let expected = Wcnf.brute_force_min_cost w in
    let config = { T.default_config with T.core_geq1 = false } in
    let r = Msu_maxsat.Msu4.solve ~config w in
    match (r.T.outcome, expected) with
    | T.Optimum c, Some e -> Alcotest.(check int) "optimum" e c
    | T.Hard_unsat, None -> ()
    | o, _ -> Alcotest.failf "unexpected %a" T.pp_outcome o
  done

let test_msu4_all_encodings () =
  let st = Random.State.make [| 515 |] in
  for _ = 1 to 15 do
    let w = random_wcnf st ~partial:false in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter
      (fun enc ->
        let config = { T.default_config with T.encoding = enc } in
        let r = Msu_maxsat.Msu4.solve ~config w in
        match (r.T.outcome, expected) with
        | T.Optimum c, Some e ->
            Alcotest.(check int) (Msu_card.Card.encoding_to_string enc) e c
        | T.Hard_unsat, None -> ()
        | o, _ -> Alcotest.failf "unexpected %a" T.pp_outcome o)
      Msu_card.Card.all_encodings
  done

let test_algorithm_names () =
  List.iter
    (fun alg ->
      Alcotest.(check bool)
        "name round trip" true
        (M.algorithm_of_string (M.algorithm_to_string alg) = Some alg))
    M.all_algorithms;
  Alcotest.(check bool) "unknown" true (M.algorithm_of_string "zzz" = None);
  List.iter
    (fun alg ->
      Alcotest.(check bool) "described" true (String.length (M.describe alg) > 10))
    M.all_algorithms

let test_trace_hook () =
  (* The old string-trace hook is now the typed event sink; a solve on a
     non-trivial instance must narrate SAT calls, cores and bounds. *)
  let col = Msu_obs.Obs.Collector.create () in
  let config =
    { T.default_config with T.sink = Msu_obs.Obs.Collector.sink col }
  in
  ignore (Msu_maxsat.Msu4.solve ~config (example2 ()));
  Alcotest.(check bool)
    "events emitted" true
    (Msu_obs.Obs.Collector.length col >= 3)

let test_stats_populated () =
  let r = M.solve M.Msu4_v2 (example2 ()) in
  Alcotest.(check bool) "sat calls" true (r.T.stats.T.sat_calls >= 3);
  Alcotest.(check bool) "encoding clauses" true (r.T.stats.T.encoding_clauses > 0);
  Alcotest.(check bool) "elapsed nonneg" true (r.T.elapsed >= 0.)

let prop_msu4_matches_bruteforce =
  QCheck.Test.make ~name:"msu4 optimum equals brute force" ~count:60 QCheck.small_int
    (fun seed ->
      let st = Random.State.make [| seed; 99 |] in
      let w = random_wcnf st ~partial:false in
      match ((M.solve M.Msu4_v2 w).T.outcome, Wcnf.brute_force_min_cost w) with
      | T.Optimum c, Some e -> c = e
      | T.Hard_unsat, None -> true
      | _ -> false)

let prop_algorithms_agree =
  QCheck.Test.make ~name:"all algorithms find the same optimum" ~count:25
    QCheck.small_int
    (fun seed ->
      let st = Random.State.make [| seed; 123 |] in
      let w = random_wcnf st ~partial:true in
      let outcomes =
        List.map (fun a -> (M.solve a w).T.outcome) M.all_algorithms
      in
      match outcomes with
      | [] -> true
      | first :: rest -> List.for_all (fun o -> o = first) rest)


(* ---------------- local search (incomplete) ---------------- *)

module Ls = Msu_maxsat.Local_search

let test_local_search_sound_bounds () =
  let st = Random.State.make [| 0x15 |] in
  for _ = 1 to 30 do
    let w = random_wcnf st ~partial:false in
    let opt = match Wcnf.brute_force_min_cost w with Some c -> c | None -> assert false in
    let r = Ls.solve ~max_flips:20_000 w in
    (match r.T.outcome with
    | T.Optimum 0 -> Alcotest.(check int) "claimed zero is real" 0 opt
    | T.Bounds { ub = Some ub; _ } ->
        Alcotest.(check bool) (Printf.sprintf "ub %d >= opt %d" ub opt) true (ub >= opt);
        Alcotest.(check bool) "model matches ub" true (T.verify_model w r)
    | o -> Alcotest.failf "unexpected %a" T.pp_outcome o)
  done

let test_local_search_finds_satisfiable () =
  (* On an easily satisfiable instance it should reach cost 0. *)
  let w = wcnf_of_clauses 4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; 4 ]; [ -4; 1 ] ] in
  match (Ls.solve w).T.outcome with
  | T.Optimum 0 -> ()
  | o -> Alcotest.failf "expected optimum 0, got %a" T.pp_outcome o

let test_local_search_respects_hards () =
  let w = wcnf_of_clauses ~hard:[ [ 1 ]; [ 2 ] ] 3 [ [ -1 ]; [ -2 ]; [ 3 ] ] in
  let r = Ls.solve ~max_flips:50_000 w in
  match (r.T.outcome, r.T.model) with
  | T.Bounds { ub = Some ub; _ }, Some m ->
      Alcotest.(check int) "feasible cost found" 2 ub;
      Alcotest.(check bool) "hards satisfied" true (m.(0) && m.(1))
  | o, _ -> Alcotest.failf "unexpected %a" T.pp_outcome (fst (o, ()))

let test_local_search_weighted () =
  let w = Wcnf.create () in
  ignore (Wcnf.add_soft w ~weight:10 (clause [ 1 ]));
  ignore (Wcnf.add_soft w ~weight:1 (clause [ -1 ]));
  match (Ls.solve ~max_flips:5_000 w).T.outcome with
  | T.Bounds { ub = Some 1; _ } -> ()
  | o -> Alcotest.failf "expected ub 1, got %a" T.pp_outcome o

let test_local_search_deterministic () =
  let st = Random.State.make [| 0xDE7 |] in
  let w = random_wcnf st ~partial:false in
  let r1 = Ls.solve ~seed:7 w and r2 = Ls.solve ~seed:7 w in
  Alcotest.(check bool) "same outcome for same seed" true (r1.T.outcome = r2.T.outcome)


(* ---------------- lexicographic / BMO ---------------- *)

module Lex = Msu_maxsat.Lexico

let random_bmo_wcnf st =
  (* Weights 25 / 5 / 1 over few-enough clauses keep the BMO property:
     each level must outweigh everything below it combined. *)
  let n_vars = 3 + Random.State.int st 6 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  List.iter
    (fun (weight, count) ->
      for _ = 1 to count do
        let len = 1 + Random.State.int st 3 in
        let c =
          Array.init len (fun _ ->
              Lit.make (Random.State.int st n_vars) (Random.State.bool st))
        in
        ignore (Wcnf.add_soft w ~weight c)
      done)
    [ (25, 1 + Random.State.int st 3); (5, 1 + Random.State.int st 4); (1, 1 + Random.State.int st 4) ];
  w

let test_bmo_detection () =
  let st = Random.State.make [| 0xB01 |] in
  Alcotest.(check bool) "bmo instance" true (Lex.is_bmo (random_bmo_wcnf st));
  let w = Wcnf.create () in
  ignore (Wcnf.add_soft w ~weight:3 (clause [ 1 ]));
  ignore (Wcnf.add_soft w ~weight:2 (clause [ 2 ]));
  ignore (Wcnf.add_soft w ~weight:2 (clause [ 3 ]));
  Alcotest.(check bool) "not bmo" false (Lex.is_bmo w);
  Alcotest.(check bool) "unit weights are bmo" true (Lex.is_bmo (example2 ()))

let test_lexico_matches_brute () =
  let st = Random.State.make [| 0xB02 |] in
  for _ = 1 to 25 do
    let w = random_bmo_wcnf st in
    let expected = Wcnf.brute_force_min_cost w in
    let r = Lex.solve w in
    match (r.T.outcome, expected) with
    | T.Optimum c, Some e ->
        Alcotest.(check int) "lexico optimum" e c;
        Alcotest.(check bool) "model verifies" true (T.verify_model w r)
    | T.Hard_unsat, None -> ()
    | o, _ -> Alcotest.failf "unexpected %a" T.pp_outcome o
  done

let test_lexico_agrees_with_wpm1 () =
  let st = Random.State.make [| 0xB03 |] in
  for _ = 1 to 15 do
    let w = random_bmo_wcnf st in
    let a = (Lex.solve w).T.outcome and b = (M.solve M.Wpm1 w).T.outcome in
    Alcotest.(check bool) "agree" true (a = b)
  done

let test_lexico_rejects_non_bmo () =
  (* 3 < 2 + 2: the top level does not dominate. *)
  let w = Wcnf.create () in
  ignore (Wcnf.add_soft w ~weight:3 (clause [ 1 ]));
  ignore (Wcnf.add_soft w ~weight:2 (clause [ -1 ]));
  ignore (Wcnf.add_soft w ~weight:2 (clause [ 2 ]));
  match Lex.solve w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_lexico_inner_choice () =
  let w = random_bmo_wcnf (Random.State.make [| 0xB04 |]) in
  let via_oll = Lex.solve ~inner:(fun ?config w -> Msu_maxsat.Oll.solve ?config w) w in
  let via_msu4 = Lex.solve w in
  Alcotest.(check bool) "inner algorithms agree" true
    (via_oll.T.outcome = via_msu4.T.outcome)

(* Seed-fixed search counts of the seed-42 debugging suite, summed over
   its instances per algorithm: conflicts, SAT calls, cores, blocking
   variables and encoding clauses.  Conflicts are the delta of the
   solver's per-call conflict histogram, as perfbench reads them.  A
   change to loading or bookkeeping that must leave every search alone
   keeps these equal. *)
let h_call_conflicts = Msu_obs.Obs.Metrics.histogram "msu_solver_call_conflicts"
let call_conflicts () = int_of_float (Msu_obs.Obs.Metrics.histogram_sum h_call_conflicts)

let check_search_counts ~scale pinned () =
  let ws =
    List.map
      (fun i -> Wcnf.of_formula i.Msu_gen.Suites.formula)
      (Msu_gen.Suites.debugging ~scale ~seed:42 ())
  in
  List.iter
    (fun (alg, expected) ->
      let c0 = call_conflicts () in
      let sums = Array.make 4 0 in
      List.iter
        (fun w ->
          let st = (M.solve alg w).T.stats in
          sums.(0) <- sums.(0) + st.T.sat_calls;
          sums.(1) <- sums.(1) + st.T.cores;
          sums.(2) <- sums.(2) + st.T.blocking_vars;
          sums.(3) <- sums.(3) + st.T.encoding_clauses)
        ws;
      let got = Array.append [| call_conflicts () - c0 |] sums in
      let show a = String.concat "; " (Array.to_list (Array.map string_of_int a)) in
      Alcotest.(check string)
        (M.algorithm_to_string alg
        ^ ": conflicts; sat calls; cores; blocking vars; encoding clauses")
        (show expected) (show got))
    pinned

let test_pinned_counts_small =
  check_search_counts ~scale:0.15
    [
      (M.Msu4_v2, [| 1; 9; 5; 44; 5 |]);
      (M.Msu3, [| 5; 9; 5; 44; 172 |]);
      (M.Oll, [| 6; 9; 5; 1019; 147 |]);
      (M.Msu1, [| 2; 9; 5; 44; 192 |]);
    ]

(* The full-size suite: 29 instances, 170,743 soft clauses. *)
let test_pinned_counts_full =
  check_search_counts ~scale:1.0
    [
      (M.Msu4_v2, [| 382; 108; 67; 3591; 11073 |]);
      (M.Msu3, [| 277; 96; 67; 3591; 24425 |]);
      (M.Oll, [| 242; 96; 67; 170743; 13621 |]);
      (M.Msu1, [| 335; 96; 67; 3591; 107792 |]);
    ]

let suite =
  [
    Alcotest.test_case "paper example 2, all algorithms" `Quick
      test_example2_all_algorithms;
    Alcotest.test_case "paper example 2, msu4 trace shape" `Quick
      test_example2_msu4_iterations;
    Alcotest.test_case "satisfiable instance" `Quick test_satisfiable_formula;
    Alcotest.test_case "single contradiction" `Quick test_single_contradiction;
    Alcotest.test_case "hard clauses unsat" `Quick test_hard_unsat;
    Alcotest.test_case "empty instance" `Quick test_empty_instance;
    Alcotest.test_case "partial maxsat" `Quick test_partial_maxsat;
    Alcotest.test_case "weights rejected/accepted" `Quick test_weighted_rejected;
    Alcotest.test_case "weighted cross-check" `Quick test_weighted_cross_check;
    Alcotest.test_case "wpm1 weighted example" `Quick test_wpm1_weighted_example;
    Alcotest.test_case "pigeonhole optimum" `Quick test_pigeonhole_optimum;
    Alcotest.test_case "branch and bound external ub" `Quick
      test_branch_bound_external_ub;
    Alcotest.test_case "random plain cross-check" `Slow
      (cross_check ~partial:false ~rounds:60 ~seed:0xAA);
    Alcotest.test_case "random partial cross-check" `Slow
      (cross_check ~partial:true ~rounds:60 ~seed:0xBB);
    Alcotest.test_case "deadline gives sound bounds" `Quick test_deadline_gives_bounds;
    Alcotest.test_case "msu4 without optional constraint" `Quick
      test_msu4_without_optional_constraint;
    Alcotest.test_case "msu4 across all encodings" `Quick test_msu4_all_encodings;
    Alcotest.test_case "algorithm names" `Quick test_algorithm_names;
    Alcotest.test_case "trace hook" `Quick test_trace_hook;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    QCheck_alcotest.to_alcotest prop_msu4_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_algorithms_agree;
    Alcotest.test_case "local search sound bounds" `Quick test_local_search_sound_bounds;
    Alcotest.test_case "local search finds sat" `Quick test_local_search_finds_satisfiable;
    Alcotest.test_case "local search respects hards" `Quick test_local_search_respects_hards;
    Alcotest.test_case "local search weighted" `Quick test_local_search_weighted;
    Alcotest.test_case "local search deterministic" `Quick test_local_search_deterministic;
    Alcotest.test_case "bmo detection" `Quick test_bmo_detection;
    Alcotest.test_case "lexico matches brute force" `Quick test_lexico_matches_brute;
    Alcotest.test_case "lexico agrees with wpm1" `Quick test_lexico_agrees_with_wpm1;
    Alcotest.test_case "lexico rejects non-bmo" `Quick test_lexico_rejects_non_bmo;
    Alcotest.test_case "lexico inner choice" `Quick test_lexico_inner_choice;
    Alcotest.test_case "pinned debugging search counts" `Quick test_pinned_counts_small;
    Alcotest.test_case "pinned debugging search counts, full suite" `Slow
      test_pinned_counts_full;
  ]
