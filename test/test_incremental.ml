(* The persistent-solver algorithms against enumeration, and sound
   when budgets or crashes cut a run short.  Also unit-level checks for
   the two mechanisms they are built from: solver assumption selectors
   and the lazily-emitted incremental totalizer. *)

module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module Sink = Msu_cnf.Sink
module Solver = Msu_sat.Solver
module Itotalizer = Msu_card.Itotalizer
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module F = Msu_guard.Fault
open Test_util

let with_fault kind f =
  F.arm kind;
  Fun.protect ~finally:F.disarm_all f

let random_wcnf st ~partial ~weighted =
  let n_vars = 3 + Random.State.int st 7 in
  let n_clauses = 3 + Random.State.int st 22 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to n_clauses do
    let len = 1 + Random.State.int st 3 in
    let c =
      Array.init len (fun _ ->
          Lit.make (Random.State.int st n_vars) (Random.State.bool st))
    in
    if partial && Random.State.int st 4 = 0 then Wcnf.add_hard w c
    else
      let weight = if weighted then 1 + Random.State.int st 6 else 1 in
      ignore (Wcnf.add_soft w ~weight c)
  done;
  w

let check_against_enumeration ~round alg w expected =
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
        (match expected with Some e -> string_of_int e | None -> "hard-unsat")

let unweighted_algorithms =
  [ M.Msu1; M.Msu2; M.Msu3; M.Msu4_v1; M.Msu4_v2; M.Oll; M.Pbo_linear; M.Pbo_binary ]

let sweep ~partial ~weighted ~algorithms ~rounds ~seed () =
  let st = Random.State.make [| seed |] in
  for round = 1 to rounds do
    let w = random_wcnf st ~partial ~weighted in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter (fun alg -> check_against_enumeration ~round alg w expected) algorithms
  done

let test_plain =
  sweep ~partial:false ~weighted:false ~algorithms:unweighted_algorithms ~rounds:25
    ~seed:0x1AC1

let test_partial =
  sweep ~partial:true ~weighted:false ~algorithms:unweighted_algorithms ~rounds:25
    ~seed:0x1AC2

let test_weighted =
  sweep ~partial:true ~weighted:true
    ~algorithms:[ M.Wpm1; M.Pbo_linear; M.Pbo_binary ]
    ~rounds:25 ~seed:0x1AC3

(* Budget-limited runs may stop early, but whatever they report must
   bracket the true optimum. *)
let test_budget_bounds () =
  let w = Wcnf.of_formula (pigeonhole 5) in
  (* true optimum: drop exactly one clause *)
  List.iter
    (fun budget ->
      let config = { T.default_config with T.max_conflicts = Some budget } in
      List.iter
        (fun alg ->
          let name = M.algorithm_to_string alg in
          let r = M.solve ~config alg w in
          match r.T.outcome with
          | T.Optimum 1 -> ()
          | T.Bounds { lb; ub } ->
              Alcotest.(check bool) (name ^ " lb sound") true (lb <= 1);
              (match ub with
              | Some u -> Alcotest.(check bool) (name ^ " ub sound") true (u >= 1)
              | None -> ())
          | o -> Alcotest.failf "%s: %a" name T.pp_outcome o)
        [ M.Msu1; M.Msu3; M.Msu4_v2; M.Oll; M.Pbo_linear ])
    [ 1; 10; 100 ]

(* A crash mid-solve must salvage sound bounds. *)
let test_crash_salvage () =
  let w = Wcnf.of_formula (pigeonhole 3) in
  List.iter
    (fun alg ->
      let name = M.algorithm_to_string alg in
      with_fault F.Crash_mid_solve (fun () ->
          let r = M.solve_supervised alg w in
          match r.T.outcome with
          | T.Crashed { lb; ub; _ } ->
              Alcotest.(check bool) (name ^ " lb sound") true (lb <= 1);
              (match ub with
              | Some u -> Alcotest.(check bool) (name ^ " ub sound") true (u >= 1)
              | None -> ())
          | T.Optimum 1 -> () (* crash hook never reached *)
          | o -> Alcotest.failf "%s: %a" name T.pp_outcome o))
    [ M.Msu3; M.Msu4_v2; M.Pbo_linear ]

(* ---------------- solver selectors ---------------- *)

let test_selector_enforce_and_free () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 1;
  let x = Lit.pos 0 in
  let sel = Lit.pos (Solver.new_var s) in
  Solver.add_clause ~selector:sel s [| x |];
  (* enforced under (neg sel): x is forced, so (neg x) contradicts *)
  (match Solver.solve ~assumptions:[| Lit.neg sel; Lit.neg x |] s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "selector assumption did not enforce the clause");
  (* without the assumption the clause is inert *)
  (match Solver.solve ~assumptions:[| Lit.neg x |] s with
  | Solver.Sat -> ()
  | _ -> Alcotest.fail "unselected clause should not constrain")

let test_selector_retire () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 1;
  let x = Lit.pos 0 in
  let sel = Lit.pos (Solver.new_var s) in
  Solver.add_clause ~selector:sel s [| x |];
  Solver.retire_selector s sel;
  (* retired: the clause can never constrain again *)
  (match Solver.solve ~assumptions:[| Lit.neg x |] s with
  | Solver.Sat -> ()
  | _ -> Alcotest.fail "retired clause still constrains");
  (* and learnt clauses mentioning sel stay satisfied: sel is now true *)
  match Solver.solve s with
  | Solver.Sat ->
      let m = Solver.model s in
      Alcotest.(check bool) "retired selector asserted" true m.(Lit.var sel)
  | _ -> Alcotest.fail "retire made the solver unsat"

let test_selector_core_maps_to_assumptions () =
  (* Two contradictory softs under selectors: assuming both must fail
     with a conflict naming only selector assumptions. *)
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 1;
  let x = Lit.pos 0 in
  let s1 = Lit.pos (Solver.new_var s) in
  let s2 = Lit.pos (Solver.new_var s) in
  Solver.add_clause ~selector:s1 s [| x |];
  Solver.add_clause ~selector:s2 s [| Lit.neg x |];
  match Solver.solve ~assumptions:[| Lit.neg s1; Lit.neg s2 |] s with
  | Solver.Unsat ->
      let core = Solver.conflict_assumptions s in
      Alcotest.(check bool) "non-empty assumption core" true (core <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) "core literal is a selector assumption" true
            (Lit.var l = Lit.var s1 || Lit.var l = Lit.var s2))
        core
  | _ -> Alcotest.fail "contradictory selected clauses should be unsat"

(* ---------------- bulk soft loading ---------------- *)

(* Load [w]'s hard clauses, run [prepare], then load its soft clauses
   one by one (a [new_var] and [add_clause ~selector], the way Fu &
   Malik loaded) or in bulk ([add_softs]).  Returns the solver and the
   selectors. *)
let load ~bulk ~prepare w =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause s c) w;
  prepare s;
  let n = Wcnf.num_soft w in
  let sels =
    if bulk then
      let base = Solver.add_softs s n (Wcnf.soft w) in
      Array.init n (fun i -> Lit.pos (base + i))
    else
      Array.init n (fun i ->
          let sel = Lit.pos (Solver.new_var s) in
          Solver.add_clause ~selector:sel s (Wcnf.soft w i);
          sel)
  in
  (s, sels)

(* Everything a search can tell apart: the database's shape, the
   answer, the model or failed assumptions, and the search counters. *)
let observe s assumptions =
  let shape = (Solver.num_vars s, Solver.num_clauses s, Solver.arena_words s) in
  let answer = Solver.solve ~assumptions s in
  let detail =
    match answer with
    | Solver.Sat -> Array.to_list (Array.map Bool.to_int (Solver.model s))
    | Solver.Unsat when Solver.okay s ->
        List.map Lit.to_int (Solver.conflict_assumptions s)
    | Solver.Unsat | Solver.Unknown -> []
  in
  (shape, answer, detail, Solver.stats s)

(* Both loads must agree under every selector's negation, with the
   even-numbered selectors left free, and after those are retired. *)
let check_same_load ?(prepare = ignore) name w =
  let s1, sel1 = load ~bulk:false ~prepare w in
  let s2, sel2 = load ~bulk:true ~prepare w in
  if sel1 <> sel2 then Alcotest.failf "%s: selectors differ" name;
  Array.iter
    (fun l ->
      if not (Solver.frozen s2 (Lit.var l)) then
        Alcotest.failf "%s: selector %d not frozen" name (Lit.var l))
    sel2;
  let round what assumptions =
    let o1 = observe s1 assumptions and o2 = observe s2 assumptions in
    if o1 <> o2 then begin
      let (v1, c1, a1), _, _, st1 = o1 and (v2, c2, a2), _, _, st2 = o2 in
      Alcotest.failf
        "%s (%s): one by one vars=%d clauses=%d words=%d %a / bulk vars=%d \
         clauses=%d words=%d %a"
        name what v1 c1 a1 Solver.pp_stats st1 v2 c2 a2 Solver.pp_stats st2
    end
  in
  round "all selectors" (Array.map Lit.neg sel1);
  let odd =
    Array.of_list (List.filteri (fun i _ -> i mod 2 = 1) (Array.to_list sel1))
  in
  round "even selectors free" (Array.map Lit.neg odd);
  Array.iteri
    (fun i sel ->
      if i mod 2 = 0 then begin
        Solver.retire_selector s1 sel;
        Solver.retire_selector s2 sel
      end)
    sel1;
  round "after retiring" (Array.map Lit.neg odd)

let wcnf_of n_vars clauses =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  List.iter
    (fun (hard, c) -> if hard then Wcnf.add_hard w c else ignore (Wcnf.add_soft w c))
    clauses;
  w

let gen_clauses ~partial =
  QCheck.Gen.(
    int_range 1 8 >>= fun n_vars ->
    let lit = map2 Lit.make (int_bound (n_vars - 1)) bool in
    let soft = map (fun c -> (false, c)) (array_size (int_range 0 3) lit) in
    let hard = map (fun c -> (true, c)) (array_size (int_range 1 3) lit) in
    let clause = if partial then frequency [ (3, soft); (1, hard) ] else soft in
    map (fun cs -> (n_vars, cs)) (list_size (int_range 0 24) clause))

let print_clauses (n_vars, cs) =
  Printf.sprintf "%d vars: %s" n_vars
    (String.concat " "
       (List.map
          (fun (hard, c) ->
            Printf.sprintf "%s[%s]" (if hard then "h" else "s")
              (String.concat ","
                 (Array.to_list (Array.map (fun l -> string_of_int (Lit.to_dimacs l)) c))))
          cs))

let prop_bulk_load ~partial =
  QCheck.Test.make
    ~name:(Printf.sprintf "add_softs matches one-by-one loading (%s)"
             (if partial then "partial" else "plain"))
    ~count:200
    (QCheck.make ~print:print_clauses (gen_clauses ~partial))
    (fun (n_vars, cs) ->
      check_same_load "random" (wcnf_of n_vars cs);
      true)

let test_bulk_load_edge_cases () =
  let x = Lit.pos 0 and y = Lit.pos 1 in
  check_same_load "duplicate literal"
    (wcnf_of 2 [ (false, [| x; y; x |]); (false, [| Lit.neg x |]) ]);
  check_same_load "tautology"
    (wcnf_of 2 [ (false, [| x; Lit.neg x |]); (false, [| Lit.neg y |]) ]);
  check_same_load "literal fixed by a hard unit"
    (wcnf_of 2
       [ (true, [| x |]); (false, [| Lit.neg x; y |]); (false, [| x; y |]);
         (false, [| Lit.neg x |]) ]);
  check_same_load "no soft clauses" (wcnf_of 2 [ (true, [| x; y |]) ]);
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Alcotest.(check int) "zero softs: base is the variable count" 3
    (Solver.add_softs s 0 (fun _ -> assert false));
  Alcotest.(check int) "zero softs: no variable added" 3 (Solver.num_vars s);
  (* a=0 b=1 frozen; x=2 is eliminated before the soft clauses arrive,
     and the first one names it.  The solve in between takes x off the
     decision heap; re-introducing it must put it back. *)
  let a = Lit.pos 0 and b = Lit.pos 1 and x = Lit.pos 2 in
  let prepare s =
    Solver.freeze s 0;
    Solver.freeze s 1;
    ignore (Solver.inprocess s);
    Alcotest.(check bool) "control: x eliminated" true (Solver.is_eliminated s 2);
    ignore (Solver.solve s)
  in
  check_same_load ~prepare "eliminated variable"
    (wcnf_of 3
       [ (true, [| x; a |]); (true, [| Lit.neg x; b |]); (false, [| Lit.neg x; Lit.neg a |]);
         (false, [| Lit.neg b |]) ])

(* ---------------- incremental totalizer ---------------- *)

let solver_sink s =
  Sink.{ fresh_var = (fun () -> Solver.new_var s); emit = Solver.add_clause s }

let counting_sink s count =
  Sink.
    {
      fresh_var = (fun () -> Solver.new_var s);
      emit =
        (fun c ->
          incr count;
          Solver.add_clause s c);
    }

(* Force exactly [m] of [lits] true via assumptions. *)
let force lits m =
  Array.to_list (Array.mapi (fun i l -> if i < m then l else Lit.neg l) lits)

let test_itotalizer_bound_semantics () =
  let n = 6 in
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s n;
  let lits = Array.init n Lit.pos in
  let t = Itotalizer.create (solver_sink s) lits in
  Alcotest.(check int) "size" n (Itotalizer.size t);
  for k = 0 to n - 1 do
    match Itotalizer.at_most (solver_sink s) t k with
    | None -> Alcotest.failf "bound %d should not be vacuous" k
    | Some b ->
        for m = 0 to n do
          let assumptions = Array.of_list (b :: force lits m) in
          let expect_sat = m <= k in
          match Solver.solve ~assumptions s with
          | Solver.Sat when expect_sat -> ()
          | Solver.Unsat when not expect_sat -> ()
          | _ -> Alcotest.failf "k=%d m=%d: wrong answer" k m
        done
  done;
  (* vacuous and invalid bounds *)
  Alcotest.(check bool) "k >= size vacuous" true
    (Itotalizer.at_most (solver_sink s) t n = None);
  match Itotalizer.at_most (solver_sink s) t (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bound accepted"

let test_itotalizer_lazy_emission () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 8;
  let lits = Array.init 8 Lit.pos in
  let count = ref 0 in
  let sink = counting_sink s count in
  let t = Itotalizer.create sink lits in
  Alcotest.(check int) "create emits nothing" 0 !count;
  ignore (Itotalizer.at_most sink t 2);
  let after_first = !count in
  Alcotest.(check bool) "first bound emits clauses" true (after_first > 0);
  ignore (Itotalizer.at_most sink t 2);
  Alcotest.(check int) "same bound re-queried emits nothing" after_first !count;
  ignore (Itotalizer.at_most sink t 1);
  Alcotest.(check int) "looser-covered bound emits nothing" after_first !count;
  ignore (Itotalizer.at_most sink t 5);
  Alcotest.(check bool) "tighter coverage emits only the delta" true
    (!count > after_first)

let test_itotalizer_extend () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 7;
  let all = Array.init 7 Lit.pos in
  let first = Array.sub all 0 4 in
  let rest = Array.sub all 4 3 in
  let sink = solver_sink s in
  let t = Itotalizer.create sink first in
  ignore (Itotalizer.at_most sink t 1);
  Itotalizer.extend sink t rest;
  Alcotest.(check int) "size grows" 7 (Itotalizer.size t);
  (* after extension the bound counts the union *)
  for k = 0 to 6 do
    match Itotalizer.at_most sink t k with
    | None -> Alcotest.failf "bound %d vacuous after extend" k
    | Some b ->
        for m = 0 to 7 do
          let assumptions = Array.of_list (b :: force all m) in
          let expect_sat = m <= k in
          match Solver.solve ~assumptions s with
          | Solver.Sat when expect_sat -> ()
          | Solver.Unsat when not expect_sat -> ()
          | _ -> Alcotest.failf "after extend k=%d m=%d: wrong answer" k m
        done
  done

let test_itotalizer_empty_then_extend () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 3;
  let sink = solver_sink s in
  let t = Itotalizer.create sink [||] in
  Alcotest.(check bool) "all bounds vacuous on empty" true
    (Itotalizer.at_most sink t 0 = None);
  let lits = Array.init 3 Lit.pos in
  Itotalizer.extend sink t lits;
  match Itotalizer.at_most sink t 0 with
  | None -> Alcotest.fail "bound vacuous after extending the empty counter"
  | Some b -> (
      match Solver.solve ~assumptions:[| b; lits.(0) |] s with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "at-most-0 did not forbid an input")

let suite =
  [
    Alcotest.test_case "modes agree: plain MaxSAT" `Quick test_plain;
    Alcotest.test_case "modes agree: partial MaxSAT" `Quick test_partial;
    Alcotest.test_case "modes agree: weighted partial" `Quick test_weighted;
    Alcotest.test_case "budget runs give sound bounds" `Quick test_budget_bounds;
    Alcotest.test_case "crash salvages sound bounds" `Quick test_crash_salvage;
    Alcotest.test_case "selector enforces and frees" `Quick
      test_selector_enforce_and_free;
    Alcotest.test_case "selector retires" `Quick test_selector_retire;
    Alcotest.test_case "conflict core names selectors" `Quick
      test_selector_core_maps_to_assumptions;
    QCheck_alcotest.to_alcotest (prop_bulk_load ~partial:false);
    QCheck_alcotest.to_alcotest (prop_bulk_load ~partial:true);
    Alcotest.test_case "add_softs edge cases" `Quick test_bulk_load_edge_cases;
    Alcotest.test_case "itotalizer bound semantics" `Quick
      test_itotalizer_bound_semantics;
    Alcotest.test_case "itotalizer lazy emission" `Quick
      test_itotalizer_lazy_emission;
    Alcotest.test_case "itotalizer extend" `Quick test_itotalizer_extend;
    Alcotest.test_case "itotalizer empty then extend" `Quick
      test_itotalizer_empty_then_extend;
  ]
