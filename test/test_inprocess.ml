(* Inprocessing: the restart-boundary BVE/subsumption/probing passes
   must be invisible to every caller — same optima with the passes on or
   off, models transparently extended over eliminated variables, frozen
   variables (explicit or selector-implied) never touched, eliminated
   variables resurrected when a new clause names them, and the whole
   machinery refused while a DRUP log is attached. *)

module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module Formula = Msu_cnf.Formula
module Solver = Msu_sat.Solver
module Inprocess = Msu_sat.Inprocess
module Drup = Msu_sat.Drup
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
open Test_util

(* Both modes are spelled out: the default is off, and the "on" runs
   must not silently follow it. *)
let on = { T.default_config with T.inprocess = true }
let off = { T.default_config with T.inprocess = false }

let satisfied m c =
  Array.exists (fun l -> if Lit.sign l then m.(Lit.var l) else not m.(Lit.var l)) c

(* ---------------- mode equivalence ---------------- *)

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

let check_both ~round alg w expected =
  List.iter
    (fun (mode, config) ->
      let r = M.solve ~config alg w in
      match (r.T.outcome, expected) with
      | T.Optimum c, Some e when c = e ->
          if not (T.verify_model w r) then
            Alcotest.failf "round %d %s (%s): model verification failed" round
              (M.algorithm_to_string alg) mode
      | T.Hard_unsat, None -> ()
      | o, _ ->
          Alcotest.failf "round %d %s (%s): got %a expected %s" round
            (M.algorithm_to_string alg) mode T.pp_outcome o
            (match expected with Some e -> string_of_int e | None -> "hard-unsat"))
    [ ("inprocess-on", on); ("inprocess-off", off) ]

let cross_modes ~partial ~weighted ~algorithms ~rounds ~seed () =
  let st = Random.State.make [| seed |] in
  for round = 1 to rounds do
    let w = random_wcnf st ~partial ~weighted in
    let expected = Wcnf.brute_force_min_cost w in
    List.iter (fun alg -> check_both ~round alg w expected) algorithms
  done

let unweighted_algorithms =
  [ M.Msu1; M.Msu2; M.Msu3; M.Msu4_v1; M.Msu4_v2; M.Oll; M.Pbo_linear; M.Pbo_binary ]

let test_modes_agree_plain =
  cross_modes ~partial:false ~weighted:false ~algorithms:unweighted_algorithms
    ~rounds:20 ~seed:0x1B01

let test_modes_agree_partial =
  cross_modes ~partial:true ~weighted:false ~algorithms:unweighted_algorithms
    ~rounds:20 ~seed:0x1B02

let test_modes_agree_weighted =
  cross_modes ~partial:true ~weighted:true
    ~algorithms:[ M.Wpm1; M.Pbo_linear ]
    ~rounds:20 ~seed:0x1B03

(* The default configuration runs no inprocessing pass, while the
   same solves with [on] do (the control). *)
let test_default_runs_no_pass () =
  let passes = Msu_obs.Obs.Metrics.counter "msu_inprocess_passes_total" in
  let w = Wcnf.of_formula (pigeonhole 5) in
  let passes_in config =
    let before = Msu_obs.Obs.Metrics.counter_value passes in
    List.iter
      (fun alg ->
        match (M.solve ~config alg w).T.outcome with
        | T.Optimum 1 -> ()
        | o -> Alcotest.failf "%s: %a" (M.algorithm_to_string alg) T.pp_outcome o)
      (M.Wpm1 :: unweighted_algorithms);
    Msu_obs.Obs.Metrics.counter_value passes - before
  in
  Alcotest.(check bool) "control: inprocess = true runs passes" true (passes_in on > 0);
  Alcotest.(check int) "default config runs no pass" 0 (passes_in T.default_config)

(* ---------------- frozen discipline ---------------- *)

(* Vars a=0 b=1 x=2 f=3: x and f have identical eliminable shapes
   ((v|a)(-v|b), two occurrences, one short resolvent); f is frozen and
   must survive the pass that eliminates x.  A selector-guarded clause
   checks that [add_clause ~selector] freezes the selector implicitly. *)
let test_frozen_never_eliminated () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 4;
  List.iter (Solver.freeze s) [ 0; 1; 3 ];
  Solver.add_clause s [| Lit.pos 3; Lit.pos 0 |];
  Solver.add_clause s [| Lit.neg_of 3; Lit.pos 1 |];
  Solver.add_clause s [| Lit.pos 2; Lit.pos 0 |];
  Solver.add_clause s [| Lit.neg_of 2; Lit.pos 1 |];
  let sel = Lit.pos (Solver.new_var s) in
  Solver.add_clause ~selector:sel s [| Lit.pos 0; Lit.pos 1 |];
  Alcotest.(check bool) "selector auto-frozen" true (Solver.frozen s (Lit.var sel));
  (match Solver.inprocess s with
  | None -> Alcotest.fail "pass refused without DRUP"
  | Some st ->
      Alcotest.(check bool)
        "control: elimination fired" true
        (st.Inprocess.eliminated_vars >= 1));
  Alcotest.(check bool) "unfrozen twin eliminated" true (Solver.is_eliminated s 2);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "frozen var %d survives" v)
        false (Solver.is_eliminated s v))
    [ 0; 1; 3; Lit.var sel ]

(* ---------------- model restore over eliminated vars ---------------- *)

let random_clauses st n_vars n_clauses =
  List.init n_clauses (fun _ ->
      let len = 1 + Random.State.int st 3 in
      Array.init len (fun _ ->
          Lit.make (Random.State.int st n_vars) (Random.State.bool st)))

let formula_of n_vars clauses =
  let f = Formula.create () in
  Formula.ensure_vars f n_vars;
  List.iter (fun c -> ignore (Formula.add_clause f c)) clauses;
  f

(* Incremental round-trip: add clauses, inprocess, solve, add more
   clauses (re-introducing eliminated vars when they are named),
   inprocess again, solve again.  Every reported model must satisfy
   every clause ever added — the witness replay in [Solver.model] is
   what makes eliminated vars invisible here. *)
let test_model_restore_roundtrip () =
  let st = Random.State.make [| 0x1B04 |] in
  for _round = 1 to 150 do
    let n_vars = 4 + Random.State.int st 8 in
    let s = Solver.create ~track_proof:false () in
    Solver.ensure_vars s n_vars;
    let added = ref [] in
    let step n_new =
      let clauses = random_clauses st n_vars n_new in
      List.iter (fun c -> Solver.add_clause s c) clauses;
      added := clauses @ !added;
      ignore (Solver.inprocess s);
      Solver.check_invariants s;
      match Solver.solve s with
      | Solver.Sat ->
          let m = Solver.model s in
          List.iter
            (fun c ->
              if not (satisfied m c) then
                Alcotest.fail "model violates a clause after inprocessing")
            !added
      | Solver.Unsat ->
          if brute_force_sat (formula_of n_vars !added) <> None then
            Alcotest.fail "inprocessing made a satisfiable formula unsat"
      | _ -> Alcotest.fail "unexpected solver outcome"
    in
    step (5 + Random.State.int st 25);
    if Solver.okay s then step (1 + Random.State.int st 10)
  done

let test_reintroduction () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 3;
  (* a=0 b=1 frozen; x=2 is the only elimination candidate *)
  Solver.freeze s 0;
  Solver.freeze s 1;
  let c1 = [| Lit.pos 2; Lit.pos 0 |] in
  let c2 = [| Lit.neg_of 2; Lit.pos 1 |] in
  Solver.add_clause s c1;
  Solver.add_clause s c2;
  ignore (Solver.inprocess s);
  Alcotest.(check bool) "x eliminated" true (Solver.is_eliminated s 2);
  (* A new clause naming x must resurrect it (and its saved clauses). *)
  let c3 = [| Lit.neg_of 2; Lit.neg_of 0 |] in
  Solver.add_clause s c3;
  Alcotest.(check bool) "x re-introduced" false (Solver.is_eliminated s 2);
  match Solver.solve s with
  | Solver.Sat ->
      let m = Solver.model s in
      List.iter
        (fun c -> Alcotest.(check bool) "clause satisfied" true (satisfied m c))
        [ c1; c2; c3 ]
  | _ -> Alcotest.fail "satisfiable formula"

(* ---------------- scheduling and refusal ---------------- *)

let test_min_dirty_skips () =
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s 3;
  Solver.add_clause s (clause [ 1; 2 ]);
  Solver.add_clause s (clause [ -1; 3 ]);
  match Solver.inprocess ~min_dirty:1_000_000 s with
  | Some st -> Alcotest.(check int) "skipped: no pass ran" 0 st.Inprocess.passes
  | None -> Alcotest.fail "a dirty-threshold skip is not a refusal"

let test_drup_refuses_inprocess () =
  let f = pigeonhole 3 in
  let log = Drup.create () in
  let s = Solver.create () in
  Solver.set_drup s log;
  Solver.ensure_vars s (Formula.num_vars f);
  Formula.iter_clauses (fun i c -> Solver.add_clause ~id:i s c) f;
  Alcotest.(check bool) "explicit pass refused" true (Solver.inprocess s = None);
  (* The auto restart-boundary pass must be refused too: the solve below
     still has to produce a checkable refutation. *)
  Solver.set_inprocess s true;
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole is unsat");
  Alcotest.(check bool) "proof still checks" true
    (Drup.check ~require_empty:true f log)

let suite =
  [
    Alcotest.test_case "modes agree: plain MaxSAT" `Quick test_modes_agree_plain;
    Alcotest.test_case "modes agree: partial MaxSAT" `Quick test_modes_agree_partial;
    Alcotest.test_case "modes agree: weighted partial" `Quick
      test_modes_agree_weighted;
    Alcotest.test_case "default config runs no pass" `Quick test_default_runs_no_pass;
    Alcotest.test_case "frozen vars never eliminated" `Quick
      test_frozen_never_eliminated;
    Alcotest.test_case "model restore round-trip" `Quick test_model_restore_roundtrip;
    Alcotest.test_case "eliminated var re-introduced" `Quick test_reintroduction;
    Alcotest.test_case "min_dirty skip is not a refusal" `Quick test_min_dirty_skips;
    Alcotest.test_case "DRUP refuses inprocessing" `Quick test_drup_refuses_inprocess;
  ]
