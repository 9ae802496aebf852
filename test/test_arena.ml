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

(* ---------------- literal orderings ----------------

   The closure sorts the add paths ran before [Solver.sort_by_key],
   kept as the reference: the watch order fixes every seed-fixed
   search, so the new routine must give exactly these permutations. *)

let old_watch_order score lits = Array.sort (fun a b -> Int.compare (score b) (score a)) lits

let old_distinct (lits : int array) =
  Array.sort Int.compare lits;
  let n = ref 0 and tautology = ref false in
  Array.iter
    (fun l ->
      if !n > 0 && lits.(!n - 1) = l then ()
      else begin
        if !n > 0 && lits.(!n - 1) = l lxor 1 then tautology := true;
        lits.(!n) <- l;
        incr n
      end)
    lits;
  if !tautology then None
  else if !n = Array.length lits then Some lits
  else Some (Array.sub lits 0 !n)

(* A level-0 assignment over a few variables (-1 unassigned, 0 false,
   1 true) and 0–40 packed literals over them: duplicates and both
   polarities are common. *)
let gen_assigned_lits =
  QCheck.Gen.(
    int_range 1 10 >>= fun n_vars ->
    pair (array_size (return n_vars) (int_range (-1) 1))
      (array_size (int_range 0 40) (int_bound ((2 * n_vars) - 1))))

let print_assigned_lits (assign, lits) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "assign [%s] lits [%s]" (ints assign) (ints lits)

let prop_watch_order =
  QCheck.Test.make ~name:"watch order is the old score sort's permutation" ~count:2000
    (QCheck.make ~print:print_assigned_lits gen_assigned_lits)
    (fun (assign, lits) ->
      let s = Solver.create () in
      Solver.ensure_vars s (Array.length assign);
      Array.iteri
        (fun v a -> if a >= 0 then Solver.add_clause s [| Lit.make v (a = 1) |])
        assign;
      let score l =
        match assign.(l lsr 1) with -1 -> 1 | a -> if a lxor (l land 1) = 1 then 2 else 0
      in
      let expected = Array.copy lits in
      old_watch_order score expected;
      let got = Array.copy lits in
      Solver.watch_order s got (Array.length got);
      got = expected)

let prop_distinct =
  QCheck.Test.make ~name:"distinct is the old sort-and-dedupe" ~count:2000
    (QCheck.make ~print:print_assigned_lits gen_assigned_lits)
    (fun (_, lits) ->
      let expected = old_distinct (Array.copy lits) in
      let buf = Array.copy lits in
      let n = Solver.distinct buf (Array.length buf) in
      let got = if n < 0 then None else Some (Array.sub buf 0 n) in
      got = expected)

let prop_sort_by_key =
  QCheck.Test.make ~name:"sort_by_key is Array.sort's permutation" ~count:2000
    QCheck.(array_of_size Gen.(int_range 0 40) (pair (int_range 0 3) small_nat))
    (fun pairs ->
      let expected = Array.copy pairs in
      Array.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) expected;
      let keys = Array.map fst pairs and vals = Array.map snd pairs in
      Solver.sort_by_key keys vals (Array.length pairs);
      Array.map2 (fun k v -> (k, v)) keys vals = expected)

(* Bulk loading registers one selector group per soft clause: retiring
   half the selectors and compacting leaves no group referencing a
   removed clause, and the other half still binds. *)
let test_bulk_retire_compact () =
  let st = Random.State.make [| 0xB0C5 |] in
  let n_vars = 10 and n = 40 in
  let softs = Array.init n (fun _ -> random_clause st n_vars 3) in
  let s = Solver.create ~debug:true () in
  Solver.ensure_vars s n_vars;
  let base = Solver.add_softs s n (fun i -> softs.(i)) in
  let kept = List.filter (fun i -> i mod 2 = 1) (List.init n Fun.id) in
  let assume is = Array.of_list (List.map (fun i -> Lit.neg_of (base + i)) is) in
  ignore (Solver.solve ~assumptions:(assume (List.init n Fun.id)) s);
  for i = 0 to n - 1 do
    if i mod 2 = 0 then Solver.retire_selector s (Lit.pos (base + i))
  done;
  Solver.gc_arena s;
  Solver.check_invariants ~strict:true s;
  Alcotest.(check int) "no wasted arena words after gc" 0 (Solver.arena_wasted s);
  let f = Formula.create () in
  Formula.ensure_vars f n_vars;
  List.iter (fun i -> ignore (Formula.add_clause f softs.(i))) kept;
  match (Solver.solve ~assumptions:(assume kept) s, brute_force_sat f) with
  | Solver.Sat, Some _ -> check_model_satisfies f s
  | Solver.Unsat, None -> ()
  | _ -> Alcotest.fail "kept soft clauses disagree with enumeration"

let suite =
  [
    Alcotest.test_case "sat equivalence (seed sweep)" `Quick test_sat_equivalence;
    Alcotest.test_case "retire-heavy incremental equivalence" `Quick
      test_retire_schedule_equivalence;
    Alcotest.test_case "watcher leak bounded" `Quick test_watcher_leak_bounded;
    Alcotest.test_case "all algorithms vs brute (seed sweep)" `Slow
      test_algorithms_equivalence;
    QCheck_alcotest.to_alcotest prop_watch_order;
    QCheck_alcotest.to_alcotest prop_distinct;
    QCheck_alcotest.to_alcotest prop_sort_by_key;
    Alcotest.test_case "bulk load, retire half, compact" `Quick test_bulk_retire_compact;
  ]
