module R = Msu_harness.Runner
module M = Msu_maxsat.Maxsat
module Wcnf = Msu_cnf.Wcnf
open Test_util

let tiny_instances () =
  [
    ("contradiction", "toy", Wcnf.of_formula (formula_of_clauses 1 [ [ 1 ]; [ -1 ] ]));
    ("php3", "php", Wcnf.of_formula (pigeonhole 3));
    ( "example2",
      "paper",
      Wcnf.of_formula
        (formula_of_clauses 4
           [ [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ] ])
    );
  ]

let test_run_one_solves () =
  let r = R.run_one ~timeout:5.0 M.Msu4_v2 (List.hd (tiny_instances ())) in
  Alcotest.(check bool) "solved cost 1" true (r.R.outcome = R.Solved 1);
  Alcotest.(check bool) "time recorded" true (r.R.time >= 0. && r.R.time <= 5.0)

let test_run_one_abort () =
  (* Brute force on PHP(8,7): 56 variables is beyond enumeration, so it
     must hit the timeout and report Aborted at the budget. *)
  let w = Wcnf.of_formula (pigeonhole 5) in
  let r = R.run_one ~timeout:0.05 M.Branch_bound ("php5", "php", w) in
  match r.R.outcome with
  | R.Aborted { why; lb; _ } ->
      Alcotest.(check (float 0.0001)) "time = budget" 0.05 r.R.time;
      (match why with
      | R.Crash reason -> Alcotest.failf "abort classified as crash: %s" reason
      | _ -> ());
      Alcotest.(check bool) "salvaged lb is sound" true (lb <= 5)
  | R.Solved _ -> () (* fast machines may solve php5 within 50 ms *)
  | R.Unsat_hard -> Alcotest.fail "unexpected hard-unsat"

let test_run_suite_and_counts () =
  let algorithms = [ M.Msu4_v2; M.Pbo_linear ] in
  let seen = ref 0 in
  let runs =
    R.run_suite ~progress:(fun _ -> incr seen) ~timeout:5.0 ~algorithms (tiny_instances ())
  in
  Alcotest.(check int) "all pairs ran" 6 (List.length runs);
  Alcotest.(check int) "progress called" 6 !seen;
  let counts = R.aborted_counts algorithms runs in
  List.iter (fun (_, n) -> Alcotest.(check int) "no aborts" 0 n) counts;
  Alcotest.(check (list string)) "consistent" [] (R.consistency_errors runs)

let test_consistency_detection () =
  let mk alg outcome =
    R.{ instance = "i"; family = "f"; algorithm = alg; outcome; time = 0.1; attempts = 1 }
  in
  let runs = [ mk M.Msu4_v2 (R.Solved 2); mk M.Pbo_linear (R.Solved 3) ] in
  Alcotest.(check int) "disagreement flagged" 1 (List.length (R.consistency_errors runs))

let test_scatter () =
  let algorithms = [ M.Msu4_v2; M.Branch_bound ] in
  let runs = R.run_suite ~timeout:5.0 ~algorithms (tiny_instances ()) in
  let points = R.scatter ~x:M.Msu4_v2 ~y:M.Branch_bound ~timeout:5.0 runs in
  Alcotest.(check int) "one point per instance" 3 (List.length points);
  List.iter
    (fun (_, tx, ty) ->
      Alcotest.(check bool) "times within budget" true (tx <= 5.0 && ty <= 5.0))
    points

let test_scatter_pins_aborts_at_timeout () =
  let mk alg outcome time =
    R.{ instance = "i"; family = "f"; algorithm = alg; outcome; time; attempts = 1 }
  in
  let runs =
    [
      mk M.Msu4_v2 (R.Solved 1) 0.2;
      mk M.Branch_bound (R.Aborted { why = R.Timeout; lb = 0; ub = None }) 3.0;
    ]
  in
  match R.scatter ~x:M.Msu4_v2 ~y:M.Branch_bound ~timeout:3.0 runs with
  | [ (_, tx, ty) ] ->
      Alcotest.(check (float 1e-9)) "x is solve time" 0.2 tx;
      Alcotest.(check (float 1e-9)) "y pinned at timeout" 3.0 ty
  | pts -> Alcotest.failf "expected one point, got %d" (List.length pts)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_format () =
  let counts = [ (M.Branch_bound, 554); (M.Pbo_linear, 248); (M.Msu4_v1, 212); (M.Msu4_v2, 163) ] in
  let out = Format.asprintf "%a" (R.pp_aborted_table ~total:691) counts in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("table mentions " ^ s) true (contains_substring out s))
    [ "691"; "554"; "248"; "212"; "163"; "maxsatz"; "msu4-v2"; "Total" ]

let test_csv_outputs () =
  let points = [ ("a", 0.1, 0.2); ("b", 1.0, 3.0) ] in
  let out = Format.asprintf "%a" R.pp_scatter_csv points in
  Alcotest.(check bool) "csv header" true
    (String.length out > 0 && String.sub out 0 8 = "instance");
  let runs =
    [
      R.{ instance = "a"; family = "f"; algorithm = M.Msu4_v2; outcome = R.Solved 1; time = 0.5; attempts = 1 };
      R.{
          instance = "b";
          family = "f";
          algorithm = M.Msu4_v2;
          outcome = R.Aborted { why = R.Out_of_conflicts; lb = 2; ub = Some 4 };
          time = 1.0;
          attempts = 1;
        };
    ]
  in
  let out = Format.asprintf "%a" R.pp_runs_csv runs in
  Alcotest.(check bool) "runs csv has rows" true (List.length (String.split_on_char '\n' out) >= 3)

let suite =
  [
    Alcotest.test_case "run_one solves" `Quick test_run_one_solves;
    Alcotest.test_case "run_one aborts at budget" `Quick test_run_one_abort;
    Alcotest.test_case "run_suite and aborted counts" `Quick test_run_suite_and_counts;
    Alcotest.test_case "consistency detection" `Quick test_consistency_detection;
    Alcotest.test_case "scatter points" `Quick test_scatter;
    Alcotest.test_case "scatter pins aborts" `Quick test_scatter_pins_aborts_at_timeout;
    Alcotest.test_case "aborted table format" `Quick test_table_format;
    Alcotest.test_case "csv outputs" `Quick test_csv_outputs;
  ]
