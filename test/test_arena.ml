(* Arena-solver coverage: watcher/arena invariants around compaction,
   the retired-clause watcher leak, and seed-swept equivalence of the
   arena solver against brute-force references — directly and through
   every MaxSAT algorithm, under retire_selector-heavy schedules. *)

module Solver = Msu_sat.Solver
module Formula = Msu_cnf.Formula
module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
open Test_util

let check_model_satisfies f s =
  let m = Solver.model s in
  Alcotest.(check int) "model satisfies formula" (Formula.num_clauses f)
    (Formula.count_satisfied f m)

(* Seed-swept SAT-level equivalence against exhaustive enumeration,
   with random assumptions, on a debug solver (strict invariant check
   after every compaction). *)
let test_sat_equivalence () =
  let st = Random.State.make [| 0x51C0FFEE |] in
  for round = 1 to 80 do
    let n_vars = 3 + Random.State.int st 8 in
    let f =
      random_formula st ~n_vars ~n_clauses:(3 + Random.State.int st 30) ~max_len:3
    in
    let s = Solver.create ~debug:true () in
    Solver.ensure_vars s n_vars;
    Formula.iter_clauses (fun i c -> Solver.add_clause ~id:i s c) f;
    let assumptions =
      Array.init (Random.State.int st 3) (fun _ ->
          Lit.make (Random.State.int st n_vars) (Random.State.bool st))
    in
    let expected = brute_force_sat ~assumptions f in
    (match (Solver.solve ~assumptions s, expected) with
    | Solver.Sat, Some _ ->
        check_model_satisfies f s;
        Array.iter
          (fun l ->
            if Solver.model_value s (Lit.var l) <> Lit.sign l then
              Alcotest.failf "round %d: model violates assumption" round)
          assumptions
    | Solver.Unsat, None -> ()
    | r, _ ->
        Alcotest.failf "round %d: solver says %s, brute force says %s" round
          (match r with
          | Solver.Sat -> "sat"
          | Solver.Unsat -> "unsat"
          | Solver.Unknown -> "unknown")
          (match expected with Some _ -> "sat" | None -> "unsat"));
    Solver.check_invariants s
  done

(* Retire-heavy incremental schedule: groups of clauses under fresh
   selectors are enforced by assumption, solved, and randomly retired;
   at every step the answer must match enumeration of exactly the still
   active clauses.  Exercises selector semantics across compactions
   (the debug solver strict-checks after each one). *)
let test_retire_schedule_equivalence () =
  let st = Random.State.make [| 0xA11CE |] in
  for round = 1 to 25 do
    let n_vars = 4 + Random.State.int st 5 in
    let s = Solver.create ~debug:true () in
    Solver.ensure_vars s n_vars;
    let base = List.init (2 + Random.State.int st 5) (fun _ -> random_clause st n_vars 3) in
    List.iter (fun c -> Solver.add_clause s c) base;
    let groups =
      List.init
        (2 + Random.State.int st 4)
        (fun _ ->
          let sel = Lit.pos (Solver.new_var s) in
          let cls =
            List.init (1 + Random.State.int st 4) (fun _ -> random_clause st n_vars 3)
          in
          List.iter (fun c -> Solver.add_clause ~selector:sel s c) cls;
          (sel, cls))
    in
    let active = ref groups in
    let check_step () =
      if Solver.okay s then begin
        let f = Formula.create () in
        Formula.ensure_vars f n_vars;
        List.iter (fun c -> ignore (Formula.add_clause f c)) base;
        List.iter
          (fun (_, cls) -> List.iter (fun c -> ignore (Formula.add_clause f c)) cls)
          !active;
        let assumptions =
          Array.of_list (List.map (fun (sel, _) -> Lit.neg_of (Lit.var sel)) !active)
        in
        let expected = brute_force_sat f in
        match (Solver.solve ~assumptions s, expected) with
        | Solver.Sat, Some _ -> check_model_satisfies f s
        | Solver.Unsat, None -> ()
        | r, _ ->
            Alcotest.failf "round %d: incremental solver says %s, brute force says %s"
              round
              (match r with
              | Solver.Sat -> "sat"
              | Solver.Unsat -> "unsat"
              | Solver.Unknown -> "unknown")
              (match expected with Some _ -> "sat" | None -> "unsat")
      end
    in
    check_step ();
    while !active <> [] do
      let sel, _ = List.nth !active (Random.State.int st (List.length !active)) in
      active := List.filter (fun (sel', _) -> sel' <> sel) !active;
      Solver.retire_selector s sel;
      check_step ()
    done;
    if Solver.okay s then begin
      Solver.gc_arena s;
      Solver.check_invariants ~strict:true s;
      Alcotest.(check int) (Printf.sprintf "round %d: no waste after gc" round) 0
        (Solver.arena_wasted s)
    end
  done

(* Regression for the retired-clause watcher leak: a long add/solve/
   retire loop must not grow the watcher lists monotonically — after a
   final compaction, every surviving size>=2 clause owns exactly two
   watchers and nothing else does. *)
let test_watcher_leak_bounded () =
  let s = Solver.create () in
  let n = 20 in
  Solver.ensure_vars s n;
  let st = Random.State.make [| 77 |] in
  for _round = 1 to 150 do
    let sel = Lit.pos (Solver.new_var s) in
    for _ = 1 to 5 do
      Solver.add_clause ~selector:sel s (random_clause st n 3)
    done;
    ignore (Solver.solve ~assumptions:[| Lit.neg_of (Lit.var sel) |] s);
    Solver.retire_selector s sel
  done;
  Alcotest.(check bool) "schedule stayed consistent" true (Solver.okay s);
  Alcotest.(check bool) "compactions happened" true
    ((Solver.stats s).Solver.compactions > 0);
  Solver.gc_arena s;
  Solver.check_invariants ~strict:true s;
  Alcotest.(check int) "no wasted arena words after gc" 0 (Solver.arena_wasted s);
  let live = Solver.num_clauses s + Solver.num_learnts s in
  let watchers = Solver.live_watchers s in
  if watchers > 2 * live then
    Alcotest.failf "watcher leak: %d watchers for %d live clauses" watchers live;
  (* Idempotent once clean. *)
  Solver.gc_arena s;
  Solver.check_invariants ~strict:true s

(* Seed-swept equivalence of every MaxSAT algorithm (the arena solver
   underneath) against exhaustive minimum cost. *)
let random_wcnf st =
  let n_vars = 3 + Random.State.int st 6 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to 4 + Random.State.int st 16 do
    let c = random_clause st n_vars 3 in
    if Random.State.int st 4 = 0 then Wcnf.add_hard w c
    else ignore (Wcnf.add_soft w c)
  done;
  w

let test_algorithms_equivalence () =
  let st = Random.State.make [| 0xD15EA5E |] in
  for round = 1 to 5 do
    let w = random_wcnf st in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter
      (fun alg ->
        let r = M.solve alg w in
        let tag = Printf.sprintf "round %d %s" round (M.algorithm_to_string alg) in
        match (r.T.outcome, expected) with
        | T.Optimum c, Some e when c = e ->
            if not (T.verify_model w r) then
              Alcotest.failf "%s: model verification failed" tag
        | T.Hard_unsat, None -> ()
        | o, _ ->
            Alcotest.failf "%s: got %a expected %s" tag T.pp_outcome o
              (match expected with Some e -> string_of_int e | None -> "hard-unsat"))
      M.all_algorithms
  done

let suite =
  [
    Alcotest.test_case "sat equivalence (seed sweep)" `Quick test_sat_equivalence;
    Alcotest.test_case "retire-heavy incremental equivalence" `Quick
      test_retire_schedule_equivalence;
    Alcotest.test_case "watcher leak bounded" `Quick test_watcher_leak_bounded;
    Alcotest.test_case "all algorithms vs brute (seed sweep)" `Slow
      test_algorithms_equivalence;
  ]
