(* Benchmark harness reproducing the evaluation of "Algorithms for
   Maximum Satisfiability using Unsatisfiable Cores" (DATE 2008).

   Artifacts (see DESIGN.md and EXPERIMENTS.md):
     table1        aborted-instance counts on the industrial suite
     table2        aborted-instance counts on the design-debugging suite
     fig1/2/3      per-instance runtime scatter pairs (CSV)
     ablation-opt  msu4 with/without the optional line-19 constraint
     ablation-msu  msu1 / msu2 / msu3 / msu4 head to head
     ablation-wpm1 weighted algorithms on weighted debugging instances
     ablation-inprocess
                   inprocessing (BVE, subsumption, failed-literal
                   probing at restart boundaries) on vs off across the
                   core-guided algorithms, with pass counters, optima
                   cross-checks and a per-suite conflicts+propagations /
                   wall-clock gate (BENCH_inprocess.json)
     ablation-portfolio
                   bound-sharing portfolio vs its constituent single
                   algorithms, incl. a complementary-hardness mixed
                   suite (BENCH_portfolio.json)
     ablation-service
                   closed-loop load test of the mserve daemon: duplicate-
                   heavy mixed workload, cache hit-rate and latency
                   percentiles vs cold solves (BENCH_service.json)
     ablation-trace
                   observability cross-check: per-instance LB/UB-vs-time
                   convergence timelines reconstructed from the typed
                   event stream, checked monotone and consistent with
                   the stats records (BENCH_trace.json)
     ablation-chaos
                   crash-recovery closed loop: warm-resume vs cold SAT
                   calls, a journalling daemon SIGKILL'd mid-load and
                   replayed with zero lost jobs, corrupt-file
                   tolerance (BENCH_chaos.json)
     ablation-propagation
                   CDCL hot-path microbenchmark on conflict-heavy
                   instances: propagations/sec, conflicts/sec and GC
                   minor words per SAT call, with per-instance answers
                   asserted byte-equal against a committed baseline and
                   a soft throughput regression guard
                   (BENCH_propagation.json)
     ablation-profile
                   span-profiling overhead: the disabled-tracer hot path
                   gated within 2% of the committed pre-instrumentation
                   throughput (--guard-perf), tracing-on asserted not to
                   change answers or conflict/propagation counts, and a
                   traced specimen exported + validated as Chrome
                   trace_event JSON (BENCH_profile.json)
     micro         Bechamel micro-benchmarks, one per table/figure
     all           everything above (default)

   Every ablation-* mode writes results/BENCH_<name>.json through one
   shared JSON emitter (write_bench_json), so the artifacts are
   uniformly shaped and comparable across PRs.

   The paper ran 691 instances with a 1000 s timeout on 2007 hardware;
   the defaults here are scaled down (--scale/--timeout raise them) so
   the whole harness finishes in minutes.  Absolute numbers differ; the
   claims being reproduced are the orderings and the gaps. *)

module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module R = Msu_harness.Runner
module P = Msu_portfolio.Portfolio
module Suites = Msu_gen.Suites
module Obs = Msu_obs.Obs

let scale = ref 1.0
let timeout = ref 2.0
let seed = ref 42
let out_dir = ref "results"
let verbose = ref false
let isolate = ref false
let retries = ref 1
let conflict_budget = ref 0
let smoke = ref false
let baseline_file = ref ""
let guard_perf = ref false
let command = ref "all"

let usage = "main.exe [COMMAND] [--scale S] [--timeout T] [--seed N] [--out DIR]"

let spec =
  [
    ("--scale", Arg.Set_float scale, "instance size/count scale (default 1.0)");
    ("--timeout", Arg.Set_float timeout, "per-run budget in seconds (default 2.0)");
    ("--seed", Arg.Set_int seed, "suite generation seed (default 42)");
    ("--out", Arg.Set_string out_dir, "directory for CSV artifacts (default results/)");
    ("--verbose", Arg.Set verbose, "print one line per run");
    ( "--isolate",
      Arg.Set isolate,
      "fork each run into its own process (a crash or hang costs one run, not the \
       suite)" );
    ("--retries", Arg.Set_int retries, "attempts per run; extras fire on crashes only");
    ( "--conflicts",
      Arg.Set_int conflict_budget,
      "per-run SAT-conflict budget, 0 = unlimited (default 0)" );
    ( "--smoke",
      Arg.Set smoke,
      "shrink suites and timeouts so the command finishes in seconds (CI mode)" );
    ( "--baseline",
      Arg.Set_string baseline_file,
      "committed baseline for ablation-propagation (answers + throughput guard)" );
    ( "--guard-perf",
      Arg.Set guard_perf,
      "fail if propagations/sec drops >20% below the baseline (answers and minor \
       words are always guarded; the wall-clock guard is opt-in because it is \
       machine-dependent)" );
  ]

let ensure_out_dir () = if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755

let write_file name content =
  ensure_out_dir ();
  let path = Filename.concat !out_dir name in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Printf.printf "  [wrote %s]\n%!" path

(* ----- shared JSON emission for the BENCH_* artifacts -----

   Every ablation writes its aggregates through [write_bench_json] so
   the artifacts share one shape: a top-level object carrying the knobs
   that shaped the run (smoke/timeout/scale/seed — without them numbers
   from different PRs are not comparable) plus the mode's own fields. *)

module Json = struct
  type t =
    | Int of int
    | Num of float
    | Bool of bool
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let rec render ~ind t =
    let pad n = String.make n ' ' in
    match t with
    | Int i -> string_of_int i
    | Num f -> Printf.sprintf "%g" f
    | Bool b -> string_of_bool b
    | Str s -> Printf.sprintf "%S" s
    | List [] -> "[]"
    | List xs ->
        "[\n"
        ^ String.concat ",\n"
            (List.map (fun x -> pad (ind + 2) ^ render ~ind:(ind + 2) x) xs)
        ^ "\n" ^ pad ind ^ "]"
    | Obj [] -> "{}"
    | Obj kvs ->
        "{\n"
        ^ String.concat ",\n"
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s%S: %s" (pad (ind + 2)) k
                   (render ~ind:(ind + 2) v))
               kvs)
        ^ "\n" ^ pad ind ^ "}"
end

let write_bench_json name fields =
  let doc =
    Json.Obj
      ([
         ("smoke", Json.Bool !smoke);
         ("timeout_s", Json.Num !timeout);
         ("scale", Json.Num !scale);
         ("seed", Json.Int !seed);
       ]
      @ fields)
  in
  write_file ("BENCH_" ^ name ^ ".json") (Json.render ~ind:0 doc ^ "\n")

let paper_algorithms = [ M.Branch_bound; M.Pbo_linear; M.Msu4_v1; M.Msu4_v2 ]

let to_wcnf instances =
  List.map
    (fun i -> (i.Suites.name, i.Suites.family, Msu_cnf.Wcnf.of_formula i.Suites.formula))
    instances

let progress r =
  if !verbose then
    Printf.printf "    %-28s %-10s %s (%.2fs)\n%!" r.R.instance
      (M.algorithm_to_string r.R.algorithm)
      (match r.R.outcome with
      | R.Solved c -> Printf.sprintf "opt=%d" c
      | R.Aborted { why; lb; ub } ->
          Printf.sprintf "ABORTED %s [%d, %s]"
            (R.abort_reason_to_string why)
            lb
            (match ub with Some u -> string_of_int u | None -> "?")
      | R.Unsat_hard -> "hard-unsat")
      r.R.time
  else print_char '.';
  if not !verbose then flush stdout

let suite_options () =
  let retry =
    { R.max_attempts = max 1 !retries; retry_conflict_budget = None }
  in
  let budget = if !conflict_budget > 0 then Some !conflict_budget else None in
  (retry, budget)

let print_breakdown runs =
  let parts =
    List.filter_map
      (fun (cause, n) -> if n > 0 then Some (Printf.sprintf "%s %d" cause n) else None)
      (R.aborted_breakdown runs)
  in
  if parts <> [] then
    Printf.printf "  aborts by cause: %s\n%!" (String.concat ", " parts)

let run_on suite_name instances algorithms =
  Printf.printf "  running %d instances x %d algorithms (timeout %.1fs%s) "
    (List.length instances) (List.length algorithms) !timeout
    (if !isolate then ", isolated" else "");
  let retry, budget = suite_options () in
  let runs =
    R.run_suite ~progress ~isolate:!isolate ~retry ?conflict_budget:budget
      ~timeout:!timeout ~algorithms instances
  in
  print_newline ();
  print_breakdown runs;
  (match R.consistency_errors runs with
  | [] -> ()
  | errors ->
      Printf.printf "  CONSISTENCY ERRORS (%s):\n" suite_name;
      List.iter (fun e -> Printf.printf "    %s\n" e) errors);
  runs

(* Memoized suite runs so `all` computes each suite once. *)
let memoized f =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some v -> v
    | None ->
        let v = f () in
        memo := Some v;
        v

let industrial_runs =
  memoized (fun () ->
      let instances = to_wcnf (Suites.industrial ~scale:!scale ~seed:!seed ()) in
      (instances, run_on "industrial" instances paper_algorithms))

let debugging_runs =
  memoized (fun () ->
      let instances = to_wcnf (Suites.debugging ~scale:!scale ~seed:!seed ()) in
      (instances, run_on "debugging" instances paper_algorithms))

let print_table title paper_note instances runs =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-');
  R.pp_aborted_table ~total:(List.length instances) Format.std_formatter
    (R.aborted_counts paper_algorithms runs);
  Printf.printf "%s\n%!" paper_note

let table1 () =
  let instances, runs = industrial_runs () in
  print_table "Table 1 - aborted instances, industrial suite"
    "(paper, 691 instances at 1000s: Total 691 | maxsatz 554 | pbo 248 | msu4-v1 212 \
     | msu4-v2 163)"
    instances runs;
  write_file "table1_runs.csv" (Format.asprintf "%a" R.pp_runs_csv runs)

let table2 () =
  let instances, runs = debugging_runs () in
  print_table "Table 2 - aborted instances, design-debugging suite"
    "(paper, 29 instances at 1000s: Total 29 | maxsatz 26 | pbo 21 | msu4-v1 3 | \
     msu4-v2 3)"
    instances runs;
  write_file "table2_runs.csv" (Format.asprintf "%a" R.pp_runs_csv runs)

let summarize_scatter name ~x ~y points =
  let count p = List.length (List.filter p points) in
  let wins_y = count (fun (_, tx, ty) -> ty < tx) in
  let wins_x = count (fun (_, tx, ty) -> tx < ty) in
  (* The paper's reading: competitors win mostly on instances where
     both finish under 0.1 s; look above that threshold separately. *)
  let big_wins_x = count (fun (_, tx, ty) -> tx < ty && Float.max tx ty >= 0.1) in
  let big_wins_y = count (fun (_, tx, ty) -> ty < tx && Float.max tx ty >= 0.1) in
  let aborts_only_y = count (fun (_, tx, ty) -> ty >= !timeout && tx < !timeout) in
  let aborts_only_x = count (fun (_, tx, ty) -> tx >= !timeout && ty < !timeout) in
  let ratios =
    List.filter_map
      (fun (_, tx, ty) ->
        if tx > 0. && ty > 0. then Some (log (ty /. tx)) else None)
      points
  in
  let geomean =
    if ratios = [] then 1.0
    else exp (List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios))
  in
  let nx = M.algorithm_to_string x and ny = M.algorithm_to_string y in
  Printf.printf
    "%s: %d points; %s faster on %d, %s faster on %d; geomean t(%s)/t(%s) = %.2fx\n"
    name (List.length points) nx wins_x ny wins_y ny nx geomean;
  Printf.printf
    "  above 0.1s: %s faster on %d, %s on %d; aborts only %s: %d, only %s: %d\n%!"
    nx big_wins_x ny big_wins_y ny aborts_only_y nx aborts_only_x

let figure n ~x ~y () =
  let _, runs = industrial_runs () in
  let points = R.scatter ~x ~y ~timeout:!timeout runs in
  (* As in the paper's plots: msu4-v2 on the x axis, the competitor on
     the y axis; points above the diagonal favour msu4-v2. *)
  Printf.printf "\nFigure %d - scatter: x = %s, y = %s\n" n (M.algorithm_to_string x)
    (M.algorithm_to_string y);
  summarize_scatter (Printf.sprintf "fig%d" n) ~x ~y points;
  write_file (Printf.sprintf "fig%d.csv" n) (Format.asprintf "%a" R.pp_scatter_csv points)

let fig1 = figure 1 ~x:M.Msu4_v2 ~y:M.Branch_bound
let fig2 = figure 2 ~x:M.Msu4_v2 ~y:M.Pbo_linear
let fig3 = figure 3 ~x:M.Msu4_v2 ~y:M.Msu4_v1

(* ----- ablations (extensions; indexed in DESIGN.md) ----- *)

let generic_suite_run ~tag name solvers =
  (* Ablations subsample every other instance to keep total time down. *)
  let instances =
    to_wcnf (Suites.industrial ~scale:!scale ~seed:!seed ())
    |> List.filteri (fun i _ -> i mod 2 = 0)
  in
  Printf.printf "\n%s (%d instances, timeout %.1fs)\n" name (List.length instances)
    !timeout;
  let results =
    List.map
      (fun (label, solve) ->
        let aborted = ref 0 in
        let total_time = ref 0. in
        List.iter
          (fun (_, _, w) ->
            let t0 = Unix.gettimeofday () in
            let config = { T.default_config with T.deadline = t0 +. !timeout } in
            let solved =
              (* Encoding blow-ups (e.g. binomial over a huge core) are
                 failures of the variant, counted as aborts. *)
              match solve config w with
              | { T.outcome = T.Optimum _; _ } -> true
              | _ -> false
              | exception Invalid_argument _ -> false
            in
            let dt = Float.min (Unix.gettimeofday () -. t0) !timeout in
            total_time := !total_time +. dt;
            if not solved then incr aborted)
          instances;
        (label, !aborted, !total_time))
      solvers
  in
  Printf.printf "  %-22s %8s %12s\n" "variant" "aborted" "total time";
  List.iter
    (fun (label, aborted, time) ->
      Printf.printf "  %-22s %8d %11.1fs\n%!" label aborted time)
    results;
  write_bench_json tag
    [
      ("instances", Json.Int (List.length instances));
      ( "variants",
        Json.List
          (List.map
             (fun (label, aborted, time) ->
               Json.Obj
                 [
                   ("variant", Json.Str label);
                   ("aborted", Json.Int aborted);
                   ("wall_clock_s", Json.Num time);
                 ])
             results) );
    ]

let ablation_opt () =
  generic_suite_run ~tag:"opt" "Ablation B - msu4 line-19 optional constraint"
    [
      ( "msu4-v2/geq1 on",
        fun (config : T.config) w ->
          Msu_maxsat.Msu4.solve ~config:{ config with T.core_geq1 = true } w );
      ( "msu4-v2/geq1 off",
        fun (config : T.config) w ->
          Msu_maxsat.Msu4.solve ~config:{ config with T.core_geq1 = false } w );
    ]

let ablation_msu () =
  generic_suite_run ~tag:"msu" "Ablation C - core-guided algorithm generations"
    [
      ("msu1", fun config w -> Msu_maxsat.Msu1.solve ~config w);
      ("msu2", fun config w -> Msu_maxsat.Msu2.solve ~config w);
      ("msu3", fun config w -> Msu_maxsat.Msu3.solve ~config w);
      ("msu4-v2", fun config w -> Msu_maxsat.Msu4.solve ~config w);
    ]

(* Weighted instances exercise WPM1, the weighted PBO paths and the
   weighted branch and bound — the algorithms' natural extension the
   paper lists as future work. *)
let ablation_wpm1 () =
  let instances = Suites.weighted_debugging ~scale:!scale ~seed:!seed () in
  let algorithms = [ M.Wpm1; M.Pbo_linear; M.Pbo_binary; M.Branch_bound ] in
  Printf.printf "\nAblation D - weighted debugging (cheapest repair) ";
  let retry, budget = suite_options () in
  let runs =
    R.run_suite ~progress ~isolate:!isolate ~retry ?conflict_budget:budget
      ~timeout:!timeout ~algorithms instances
  in
  print_newline ();
  print_breakdown runs;
  (match R.consistency_errors runs with
  | [] -> ()
  | errors -> List.iter (fun e -> Printf.printf "  CONSISTENCY ERROR: %s\n" e) errors);
  R.pp_aborted_table ~total:(List.length instances) Format.std_formatter
    (R.aborted_counts algorithms runs);
  write_file "ablation_wpm1_runs.csv" (Format.asprintf "%a" R.pp_runs_csv runs);
  write_bench_json "wpm1"
    [
      ("instances", Json.Int (List.length instances));
      ( "aborted",
        Json.Obj
          (List.map
             (fun (alg, n) -> (M.algorithm_to_string alg, Json.Int n))
             (R.aborted_counts algorithms runs)) );
      ("consistency_errors", Json.Int (List.length (R.consistency_errors runs)));
    ]

(* Inprocessing ablation.  Every instance is solved by each core-guided
   algorithm twice — inprocessing (BVE + subsumption + failed-literal
   probing at restart boundaries) on and off — under identical
   per-instance guards.  Wall clock, guard conflicts and propagations
   are aggregated per mode, the engine's pass counters are read as
   deltas from the Msu_obs registry, and optima are cross-checked per
   instance.  The per-suite "improved" flag is the acceptance gate:
   inprocessing must strictly reduce conflicts+propagations and must not
   raise wall clock, with optima identical — less work bought with more
   time is no improvement.  Aggregates land in BENCH_inprocess.json. *)

type inpro_totals = {
  ip_wall : float;
  ip_conflicts : int;
  ip_propagations : int;
  ip_solved : int;
  ip_optima : (string * int option) list;
  ip_passes : int;
  ip_eliminated : int;
  ip_subsumed : int;
  ip_strengthened : int;
  ip_failed : int;
}

(* Handles onto the counters Msu_sat.Inprocess bumps; [Metrics.counter]
   is idempotent per name, so these alias the solver's own counters. *)
let inpro_counters =
  lazy
    (List.map
       (fun name -> Obs.Metrics.counter name)
       [
         "msu_inprocess_passes_total";
         "msu_inprocess_eliminated_vars_total";
         "msu_inprocess_subsumed_clauses_total";
         "msu_inprocess_strengthened_lits_total";
         "msu_inprocess_failed_literals_total";
       ])

let run_inpro ~inprocess solve instances =
  let snapshot () = List.map Obs.Metrics.counter_value (Lazy.force inpro_counters) in
  let before = snapshot () in
  let wall = ref 0. in
  let conflicts = ref 0 in
  let props = ref 0 in
  let solved = ref 0 in
  let optima =
    List.map
      (fun (name, _, w) ->
        let t0 = Unix.gettimeofday () in
        let deadline = t0 +. !timeout in
        let g = Msu_guard.Guard.create ~deadline () in
        let config =
          {
            T.default_config with
            T.deadline;
            T.guard = Some g;
            T.inprocess = inprocess;
          }
        in
        let r = solve config w in
        wall := !wall +. (Unix.gettimeofday () -. t0);
        conflicts := !conflicts + Msu_guard.Guard.conflicts g;
        props := !props + Msu_guard.Guard.propagations g;
        match r.T.outcome with
        | T.Optimum c ->
            incr solved;
            (name, Some c)
        | _ -> (name, None))
      instances
  in
  let deltas = List.map2 (fun a b -> a - b) (snapshot ()) before in
  match deltas with
  | [ passes; eliminated; subsumed; strengthened; failed ] ->
      {
        ip_wall = !wall;
        ip_conflicts = !conflicts;
        ip_propagations = !props;
        ip_solved = !solved;
        ip_optima = optima;
        ip_passes = passes;
        ip_eliminated = eliminated;
        ip_subsumed = subsumed;
        ip_strengthened = strengthened;
        ip_failed = failed;
      }
  | _ -> assert false

let inpro_mismatches on off =
  List.filter_map
    (fun (name, a) ->
      match (a, List.assoc_opt name off.ip_optima) with
      | Some x, Some (Some y) when x <> y -> Some (name, x, y)
      | _ -> None)
    on.ip_optima

let json_inpro m =
  Json.Obj
    [
      ("wall_clock_s", Json.Num m.ip_wall);
      ("conflicts", Json.Int m.ip_conflicts);
      ("propagations", Json.Int m.ip_propagations);
      ("solved", Json.Int m.ip_solved);
      ("passes", Json.Int m.ip_passes);
      ("eliminated_vars", Json.Int m.ip_eliminated);
      ("subsumed_clauses", Json.Int m.ip_subsumed);
      ("strengthened_lits", Json.Int m.ip_strengthened);
      ("failed_literals", Json.Int m.ip_failed);
    ]

let ablation_inprocess () =
  let subsample l = if !smoke then List.filteri (fun i _ -> i mod 3 = 0) l else l in
  let suites =
    [
      ("industrial", subsample (to_wcnf (Suites.industrial ~scale:!scale ~seed:!seed ())));
      ("debugging", subsample (to_wcnf (Suites.debugging ~scale:!scale ~seed:!seed ())));
    ]
  in
  let algorithms =
    [
      ("msu1", fun config w -> Msu_maxsat.Msu1.solve ~config w);
      ("msu3", fun config w -> Msu_maxsat.Msu3.solve ~config w);
      ("msu4-v2", fun config w -> Msu_maxsat.Msu4.solve ~config w);
      ("oll", fun config w -> Msu_maxsat.Oll.solve ~config w);
      ("wpm1", fun config w -> Msu_maxsat.Wpm1.solve ~config w);
    ]
  in
  let suite_docs =
    List.map
      (fun (suite_name, instances) ->
        Printf.printf
          "\nAblation I - inprocessing on vs off: %s suite (%d instances, timeout %.1fs)\n"
          suite_name (List.length instances) !timeout;
        Printf.printf "  %-10s %-5s %7s %9s %11s %13s %6s %6s %6s %6s %6s\n" "algorithm"
          "mode" "solved" "wall" "conflicts" "propagations" "passes" "elim" "subs"
          "str" "fail";
        let on_wall = ref 0. and off_wall = ref 0. in
        let on_work = ref 0 and off_work = ref 0 in
        let all_match = ref true in
        let alg_docs =
          List.map
            (fun (alg_name, solve) ->
              let on = run_inpro ~inprocess:true solve instances in
              let off = run_inpro ~inprocess:false solve instances in
              let show label (m : inpro_totals) =
                Printf.printf "  %-10s %-5s %3d/%-3d %8.2fs %11d %13d %6d %6d %6d %6d %6d\n%!"
                  alg_name label m.ip_solved (List.length instances) m.ip_wall
                  m.ip_conflicts m.ip_propagations m.ip_passes m.ip_eliminated
                  m.ip_subsumed m.ip_strengthened m.ip_failed
              in
              show "on" on;
              show "off" off;
              on_wall := !on_wall +. on.ip_wall;
              off_wall := !off_wall +. off.ip_wall;
              on_work := !on_work + on.ip_conflicts + on.ip_propagations;
              off_work := !off_work + off.ip_conflicts + off.ip_propagations;
              let mismatches = inpro_mismatches on off in
              if mismatches <> [] then all_match := false;
              List.iter
                (fun (name, a, b) ->
                  Printf.printf "  OPTIMA MISMATCH %s/%s: inprocess-on %d vs off %d\n%!"
                    alg_name name a b)
                mismatches;
              Json.Obj
                [
                  ("algorithm", Json.Str alg_name);
                  ("inprocess_on", json_inpro on);
                  ("inprocess_off", json_inpro off);
                  ("optima_match", Json.Bool (mismatches = []));
                ])
            algorithms
        in
        let improved =
          !all_match && !on_work < !off_work && !on_wall <= !off_wall
        in
        Printf.printf
          "  suite totals: on %.2fs / %d conflicts+propagations, off %.2fs / %d -> %s\n%!"
          !on_wall !on_work !off_wall !off_work
          (if improved then "IMPROVED" else "not improved");
        Json.Obj
          [
            ("suite", Json.Str suite_name);
            ("instances", Json.Int (List.length instances));
            ("algorithms", Json.List alg_docs);
            ( "totals",
              Json.Obj
                [
                  ("on_wall_clock_s", Json.Num !on_wall);
                  ("on_conflicts_plus_propagations", Json.Int !on_work);
                  ("off_wall_clock_s", Json.Num !off_wall);
                  ("off_conflicts_plus_propagations", Json.Int !off_work);
                ] );
            ("optima_match", Json.Bool !all_match);
            ("improved", Json.Bool improved);
          ])
      suites
  in
  write_bench_json "inprocess" [ ("suites", Json.List suite_docs) ]

(* Portfolio-vs-singles ablation, v2.  Every instance is solved by each
   constituent algorithm alone and by the portfolio in four variants —
   bound-sharing only, + learnt-clause sharing, + an SLS incumbent
   worker, and both — under the same wall-clock budget; optima are
   cross-checked between every portfolio variant, every single that
   proved one, and brute-force enumeration on small instances, and every
   shared-clause run must additionally pass Certify (imported clauses
   may speed a worker up but never change what it proves).  Aggregates
   land in BENCH_portfolio.json. *)

let ablation_portfolio () =
  let module Certify = Msu_maxsat.Certify in
  let subsample l = if !smoke then List.filteri (fun i _ -> i mod 3 = 0) l else l in
  (* Per-suite configuration: the homogeneous suites race the four
     core-guided algorithms; the mixed complementary-hardness suite
     races core-guided against branch and bound, where the portfolio's
     diversity (not raw parallelism) is what pays — two workers keep
     the CPU-share penalty low on small machines. *)
  let suites =
    [
      ( "industrial",
        subsample (to_wcnf (Suites.industrial ~scale:!scale ~seed:!seed ())),
        [ M.Msu4_v2; M.Msu3; M.Oll; M.Msu4_v1 ],
        List.map P.spec [ M.Msu4_v2; M.Msu3; M.Oll; M.Msu4_v1 ] );
      ( "debugging",
        subsample (to_wcnf (Suites.debugging ~scale:!scale ~seed:!seed ())),
        [ M.Msu4_v2; M.Msu3; M.Oll; M.Msu4_v1 ],
        List.map P.spec [ M.Msu4_v2; M.Msu3; M.Oll; M.Msu4_v1 ] );
      ( "mixed",
        subsample (to_wcnf (Suites.mixed ~scale:!scale ~seed:!seed ())),
        [ M.Msu4_v2; M.Msu3; M.Oll; M.Branch_bound ],
        List.map P.spec [ M.Msu4_v2; M.Branch_bound ] );
    ]
  in
  (* Focused reruns during perf work: BENCH_SUITE=mixed narrows the
     ablation to one suite without touching the committed artifact's
     shape (the JSON then only carries that suite's document). *)
  let suites =
    match Sys.getenv_opt "BENCH_SUITE" with
    | Some s -> List.filter (fun (n, _, _, _) -> String.equal n s) suites
    | None -> suites
  in
  let run_single alg w =
    let t0 = Unix.gettimeofday () in
    let config = { T.default_config with T.deadline = t0 +. !timeout } in
    let r = M.solve_supervised ~config alg w in
    let wall = Float.min (Unix.gettimeofday () -. t0) !timeout in
    (wall, match r.T.outcome with T.Optimum c -> Some c | _ -> None)
  in
  let suite_docs =
    List.map
      (fun (suite_name, instances, singles, specs) ->
      Printf.printf
        "\nAblation F - portfolio vs singles: %s suite (%d instances, %d workers, \
         timeout %.1fs)\n"
        suite_name (List.length instances) (List.length specs) !timeout;
      let mismatches = ref [] in
      let totals = Hashtbl.create 8 in
      (* label -> (wall, solved) *)
      let add label wall solved =
        let w0, s0 = Option.value ~default:(0., 0) (Hashtbl.find_opt totals label) in
        Hashtbl.replace totals label (w0 +. wall, s0 + if solved then 1 else 0)
      in
      let certify_failures = ref 0 in
      let variants =
        [
          ("bound-only", false, false);
          ("sharing", true, false);
          ("sls", false, true);
          ("both", true, true);
        ]
      in
      List.iteri
        (fun inst_idx (name, _, w) ->
          let single_optima =
            List.map
              (fun alg ->
                let wall, opt = run_single alg w in
                add (M.algorithm_to_string alg) wall (opt <> None);
                (M.algorithm_to_string alg, opt))
              singles
          in
          let brute_opt =
            if Msu_cnf.Wcnf.num_vars w <= 14 then snd (run_single M.Brute w)
            else None
          in
          (* Two noise controls, applied to every variant equally.
             Rotating the variant order per instance removes position
             bias: with a fixed order the last variant systematically
             runs against the most drifted machine state (heap growth,
             cache pollution from the certify pass between variants).
             Compacting before each variant's timed window matters
             because every worker is forked from this process: a fat
             dirty parent heap taxes the children with copy-on-write
             faults and a bigger inherited major heap to walk. *)
          let rot = inst_idx mod List.length variants in
          let variants_rotated =
            let rec split k = function
              | l when k = 0 -> ([], l)
              | x :: tl ->
                  let a, b = split (k - 1) tl in
                  (x :: a, b)
              | [] -> ([], [])
            in
            let front, back = split rot variants in
            back @ front
          in
          List.iter
            (fun (vlabel, share_clauses, sls_worker) ->
              Gc.compact ();
              (* Best-of-2 per (instance, variant): the variant gate
                 compares sub-second margins on forked-process wall
                 times, and a single shot carries enough scheduler
                 noise to flip a close comparison either way.  Applied
                 to every variant equally, min-of-k estimates the
                 deterministic floor the comparison is actually
                 about. *)
              let attempt () =
                let t0 = Unix.gettimeofday () in
                let pr =
                  P.solve ~specs ~timeout:!timeout ~share_clauses ~sls_worker w
                in
                (pr, Float.min (Unix.gettimeofday () -. t0) !timeout)
              in
              let a = attempt () in
              let b = attempt () in
              let decided (pr, _) =
                match pr.P.outcome with T.Optimum _ -> true | _ -> false
              in
              let pr, pwall =
                match (decided a, decided b) with
                | true, false -> a
                | false, true -> b
                | _ -> if snd a <= snd b then a else b
              in
              let popt =
                match pr.P.outcome with T.Optimum c -> Some c | _ -> None
              in
              add vlabel pwall (popt <> None);
              List.iter
                (fun d ->
                  mismatches :=
                    Printf.sprintf "%s[%s]: %s" name vlabel d :: !mismatches)
                pr.P.disagreements;
              let check who a b =
                match (a, b) with
                | Some x, Some y when x <> y ->
                    mismatches :=
                      Printf.sprintf "%s[%s]: portfolio optimum %d vs %s %d" name
                        vlabel x who y
                      :: !mismatches
                | _ -> ()
              in
              List.iter (fun (who, opt) -> check who popt opt) single_optima;
              check "brute" popt brute_opt;
              (* Every shared-clause run faces the independent judge: a
                 foreign clause that survived the share-safety fence must
                 never move an optimum. *)
              if share_clauses then begin
                let report =
                  Certify.certify ~encoding:Msu_card.Card.Sortnet w
                    (P.to_result pr)
                in
                if not (Certify.ok report) then begin
                  incr certify_failures;
                  List.iter
                    (fun f ->
                      mismatches :=
                        Printf.sprintf "%s[%s]: certify: %s" name vlabel f
                        :: !mismatches)
                    report.Certify.failures
                end
              end;
              if !verbose then
                Printf.printf "    %-28s %-10s %s (%.2fs)\n%!" name vlabel
                  (match popt with Some c -> string_of_int c | None -> "?")
                  pwall)
            variants_rotated)
        instances;
      Printf.printf "  %-12s %7s %9s\n" "config" "solved" "wall";
      let row label =
        let wall, solved = Option.value ~default:(0., 0) (Hashtbl.find_opt totals label) in
        Printf.printf "  %-12s %3d/%-3d %8.2fs\n%!" label solved
          (List.length instances) wall;
        (label, wall, solved)
      in
      let single_rows = List.map (fun a -> row (M.algorithm_to_string a)) singles in
      let variant_rows = List.map (fun (vl, _, _) -> row vl) variants in
      let variant_stats label =
        let _, wall, solved =
          List.find (fun (l, _, _) -> l = label) variant_rows
        in
        (wall, solved)
      in
      let bo_wall, bo_solved = variant_stats "bound-only" in
      let both_wall, both_solved = variant_stats "both" in
      let best_single_wall =
        List.fold_left (fun acc (_, w, _) -> Float.min acc w) infinity single_rows
      in
      List.iter (fun m -> Printf.printf "  OPTIMA MISMATCH %s\n%!" m) !mismatches;
      Json.Obj
        [
          ("suite", Json.Str suite_name);
          ("instances", Json.Int (List.length instances));
          ("workers", Json.Int (List.length specs));
          ( "singles",
            Json.List
              (List.map
                 (fun (label, wall, solved) ->
                   Json.Obj
                     [
                       ("algorithm", Json.Str label);
                       ("wall_clock_s", Json.Num wall);
                       ("solved", Json.Int solved);
                     ])
                 single_rows) );
          ( "portfolio_variants",
            Json.List
              (List.map
                 (fun (label, wall, solved) ->
                   Json.Obj
                     [
                       ("variant", Json.Str label);
                       ("wall_clock_s", Json.Num wall);
                       ("solved", Json.Int solved);
                     ])
                 variant_rows) );
          ( "portfolio",
            Json.Obj
              [ ("wall_clock_s", Json.Num bo_wall); ("solved", Json.Int bo_solved) ]
          );
          ("best_single_wall_s", Json.Num best_single_wall);
          ("portfolio_beats_best_single", Json.Bool (bo_wall < best_single_wall));
          ( "sharing_sls_beats_bound_only",
            Json.Bool
              (both_solved > bo_solved
              || (both_solved = bo_solved && both_wall < bo_wall)) );
          ("shared_runs_certified", Json.Bool (!certify_failures = 0));
          ("optima_match", Json.Bool (!mismatches = []));
        ])
      suites
  in
  write_bench_json "portfolio" [ ("suites", Json.List suite_docs) ]

(* Service closed-loop load test.  One forked daemon on a temp socket,
   [n_clients] forked closed-loop clients (each waits for a result
   before submitting the next request) replaying the mixed suite with
   every instance duplicated [dup] times, so the fingerprint cache sees
   real repeats.  Per-request latencies come back from the clients as
   temp files of frames; the daemon's own stats give the hit-rate; every
   distinct instance is also solved cold in-process and the optima are
   cross-checked.  Aggregates land in BENCH_service.json. *)

let sorted_latencies l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let percentile a q =
  match Array.length a with
  | 0 -> 0.
  | n ->
      let i = int_of_float ((q *. float_of_int (n - 1)) +. 0.5) in
      a.(max 0 (min (n - 1) i))

let mean a =
  match Array.length a with
  | 0 -> 0.
  | n -> Array.fold_left ( +. ) 0. a /. float_of_int n

let latency_doc a =
  Json.Obj
    [
      ("count", Json.Int (Array.length a));
      ("mean_s", Json.Num (mean a));
      ("p50_s", Json.Num (percentile a 0.5));
      ("p95_s", Json.Num (percentile a 0.95));
    ]

(* One client-side request: instance, seconds, cached, optimum. *)
let client_result =
  let module Frame = Msu_frame.Frame in
  let rest = Frame.pair Frame.float (Frame.pair Frame.bool (Frame.option Frame.nat)) in
  {
    Frame.write = (fun b (name, t, cached, opt) -> Frame.string.write b name; rest.write b (t, (cached, opt)));
    read =
      (fun s ->
        let name = Frame.string.read s in
        let t, (cached, opt) = rest.read s in
        (name, t, cached, opt));
  }

let ablation_service () =
  let module Service = Msu_service.Service in
  let module Frame = Msu_frame.Frame in
  let module Client = Msu_service.Client in
  let module Proto = Msu_service.Protocol in
  let subsample l = if !smoke then List.filteri (fun i _ -> i mod 3 = 0) l else l in
  let instances = subsample (to_wcnf (Suites.mixed ~scale:!scale ~seed:!seed ())) in
  let n_clients = 2 and dup = 3 in
  Printf.printf
    "\nAblation G - solve service: %d distinct instances x %d duplicates x %d \
     closed-loop clients (timeout %.1fs)\n%!"
    (List.length instances) dup n_clients !timeout;
  let sock = Filename.temp_file "msu-bench-service" ".sock" in
  let client_files =
    List.init n_clients (fun ci ->
        Filename.temp_file (Printf.sprintf "msu-bench-client%d-" ci) ".bin")
  in
  (* Each client submits an instance's duplicates consecutively: the
     first solve populates the cache, the repeats should hit it. *)
  let requests =
    List.concat_map
      (fun (name, _, w) -> List.init dup (fun _ -> (name, w)))
      instances
  in
  flush stdout;
  flush stderr;
  let server_pid = Unix.fork () in
  if server_pid = 0 then begin
    let cfg =
      {
        (Service.default_config ~socket_path:sock) with
        Service.workers = 2;
        default_timeout = !timeout;
        grace = 0.5;
      }
    in
    (try Service.run cfg with _ -> ());
    Unix._exit 0
  end;
  let client_pids =
    List.map
      (fun out_path ->
        let pid = Unix.fork () in
        if pid = 0 then begin
          let results =
            try
              let fd = Client.connect sock in
              let rs =
                List.map
                  (fun (name, w) ->
                    let t0 = Unix.gettimeofday () in
                    let options =
                      { Proto.default_options with Proto.timeout = Some !timeout }
                    in
                    match Client.submit fd ~options w with
                    | Ok id ->
                        let r = Client.wait fd id in
                        ( name,
                          Unix.gettimeofday () -. t0,
                          r.Client.cached,
                          match r.Client.outcome with
                          | T.Optimum c -> Some c
                          | _ -> None )
                    | Error _ -> (name, Unix.gettimeofday () -. t0, false, None))
                  requests
              in
              Client.close fd;
              rs
            with _ -> []
          in
          (try
             Frame.write_file out_path
               (List.map (Frame.encode Frame.Result client_result) results)
           with _ -> ());
          Unix._exit 0
        end
        else pid)
      client_files
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) client_pids;
  let stats = Client.stats ~socket:sock in
  Client.shutdown ~drain:true ~socket:sock ();
  ignore (Unix.waitpid [] server_pid);
  (try Sys.remove sock with Sys_error _ -> ());
  let client_results =
    List.concat_map
      (fun path ->
        let r = Frame.read_file Frame.Result client_result path in
        (try Sys.remove path with Sys_error _ -> ());
        r)
      client_files
  in
  let cold =
    List.map
      (fun (name, _, w) ->
        let t0 = Unix.gettimeofday () in
        let config = { T.default_config with T.deadline = t0 +. !timeout } in
        let r = M.solve_supervised ~config M.Msu4_v2 w in
        ( name,
          Unix.gettimeofday () -. t0,
          match r.T.outcome with T.Optimum c -> Some c | _ -> None ))
      instances
  in
  let cold_optima = List.map (fun (n, _, o) -> (n, o)) cold in
  let mismatches =
    List.filter_map
      (fun (name, _, _, opt) ->
        match (opt, List.assoc_opt name cold_optima) with
        | Some a, Some (Some b) when a <> b ->
            Some (Printf.sprintf "%s: service %d vs cold %d" name a b)
        | _ -> None)
      client_results
  in
  List.iter (fun m -> Printf.printf "  OPTIMA MISMATCH %s\n%!" m) mismatches;
  let all_lat = sorted_latencies (List.map (fun (_, t, _, _) -> t) client_results) in
  let hit_lat =
    sorted_latencies
      (List.filter_map (fun (_, t, c, _) -> if c then Some t else None) client_results)
  in
  let cold_lat = sorted_latencies (List.map (fun (_, t, _) -> t) cold) in
  let hit_rate =
    float_of_int stats.Proto.hits
    /. float_of_int (max 1 (stats.Proto.hits + stats.Proto.misses))
  in
  Printf.printf
    "  service: %d results, hit-rate %.2f (%d hits / %d misses), %d crashes, %d \
     rejected\n"
    (List.length client_results) hit_rate stats.Proto.hits stats.Proto.misses
    stats.Proto.crashes stats.Proto.rejected;
  Printf.printf "  latency: service p50 %.4fs p95 %.4fs | cache hits p50 %.4fs | \
                 cold in-process p50 %.4fs p95 %.4fs\n%!"
    (percentile all_lat 0.5) (percentile all_lat 0.95) (percentile hit_lat 0.5)
    (percentile cold_lat 0.5) (percentile cold_lat 0.95);
  write_bench_json "service"
    [
      ("clients", Json.Int n_clients);
      ("dup_factor", Json.Int dup);
      ("distinct_instances", Json.Int (List.length instances));
      ("requests_sent", Json.Int (n_clients * List.length requests));
      ("results_received", Json.Int (List.length client_results));
      ("server_requests", Json.Int stats.Proto.requests);
      ("server_completed", Json.Int stats.Proto.completed);
      ("hits", Json.Int stats.Proto.hits);
      ("misses", Json.Int stats.Proto.misses);
      ("hit_rate", Json.Num hit_rate);
      ("rejected", Json.Int stats.Proto.rejected);
      ("crashes", Json.Int stats.Proto.crashes);
      ("service_latency", latency_doc all_lat);
      ("cache_hit_latency", latency_doc hit_lat);
      ("cold_latency", latency_doc cold_lat);
      ("optima_match", Json.Bool (mismatches = []));
    ]

(* Chaos ablation.  Closed-loop abuse of the crash-recovery subsystem:

     1. warm-vs-cold — every instance is solved cold, then re-solved
        seeded with its own certified checkpoint; the warm solve must
        spend strictly fewer SAT calls (the measurable payoff of
        checkpoint resume);
     2. daemon chaos — a journalling daemon is loaded up (the first
        job's worker is SIGKILL'd mid-solve by an armed fault), then
        SIGKILL'd itself with the queue still full; a second daemon on
        the same journal must replay and finish every admitted job,
        crash-retry probes must come back as optima, every resubmitted
        instance must match the cold optimum and pass Certify.recost,
        and the journal must end with zero pending records — no
        accepted job lost;
     3. corruption — torn, bit-flipped, and alien journals, a corrupt
        cache snapshot, and a torn checkpoint frame must degrade
        (shorter replay, empty cache, dropped frame), never crash.

   Emits BENCH_chaos.json plus the mid-crash journal as a CI specimen;
   exits nonzero on any violation. *)

let ablation_chaos () =
  let module Service = Msu_service.Service in
  let module Client = Msu_service.Client in
  let module Proto = Msu_service.Protocol in
  let module Journal = Msu_service.Journal in
  let module Cache = Msu_service.Cache in
  let module Ck = Msu_guard.Checkpoint in
  let module Certify = Msu_maxsat.Certify in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let subsample l = if !smoke then List.filteri (fun i _ -> i mod 3 = 0) l else l in
  let instances = subsample (to_wcnf (Suites.mixed ~scale:!scale ~seed:!seed ())) in
  Printf.printf
    "\nAblation H - chaos: crash recovery under worker kills, daemon kills, and \
     corrupt files (%d instances, timeout %.1fs)\n%!"
    (List.length instances) !timeout;

  (* -- phase 1: a warm-resumed solve must beat its cold run ----------- *)
  let cold =
    List.map
      (fun (name, _, w) ->
        let config =
          { T.default_config with T.deadline = Unix.gettimeofday () +. !timeout }
        in
        (name, w, M.solve_supervised ~config M.Pbo_linear w))
      instances
  in
  let reference =
    List.filter_map
      (fun (name, _, r) ->
        match r.T.outcome with T.Optimum c -> Some (name, c) | _ -> None)
      cold
  in
  let warm_pairs =
    List.filter_map
      (fun (name, w, r) ->
        match (r.T.outcome, r.T.model) with
        | T.Optimum c, Some m when r.T.stats.T.sat_calls > 1 ->
            let ck = { Ck.lb = c; ub = Some c; model = Some m } in
            let config =
              {
                T.default_config with
                T.deadline = Unix.gettimeofday () +. !timeout;
                resume = Some ck;
              }
            in
            let wr = M.solve_supervised ~config M.Pbo_linear w in
            (match wr.T.outcome with
            | T.Optimum c' when c' <> c ->
                complain "%s: warm resume changed the optimum (%d vs %d)" name c' c
            | T.Optimum _ -> ()
            | _ -> complain "%s: warm resume failed to re-prove the optimum" name);
            Some (name, r.T.stats.T.sat_calls, wr.T.stats.T.sat_calls)
        | _ -> None)
      cold
  in
  let warm_wins = List.length (List.filter (fun (_, c, w) -> w < c) warm_pairs) in
  if warm_pairs <> [] && warm_wins = 0 then
    complain "no warm-resumed solve spent fewer SAT calls than its cold run";
  let cold_calls = List.fold_left (fun a (_, c, _) -> a + c) 0 warm_pairs in
  let warm_calls = List.fold_left (fun a (_, _, w) -> a + w) 0 warm_pairs in
  Printf.printf
    "  warm resume: %d/%d instances strictly cheaper (%d cold SAT calls -> %d warm)\n%!"
    warm_wins (List.length warm_pairs) cold_calls warm_calls;

  (* -- phase 2: kill a worker, then SIGKILL the daemon mid-load ------- *)
  let sock = Filename.temp_file "msu-bench-chaos" ".sock" in
  let jpath = Filename.temp_file "msu-bench-chaos" ".wal" in
  let spawn_daemon () =
    flush stdout;
    flush stderr;
    let pid = Unix.fork () in
    if pid = 0 then begin
      let cfg =
        {
          (Service.default_config ~socket_path:sock) with
          Service.workers = 2;
          default_timeout = !timeout;
          grace = 0.3;
          journal_file = Some jpath;
          max_attempts = 3;
          retry_backoff = 0.2;
        }
      in
      (try Service.run cfg with _ -> ());
      Unix._exit 0
    end;
    pid
  in
  let pid_a = spawn_daemon () in
  let fd = Client.connect sock in
  let accepted = ref 0 in
  List.iteri
    (fun i (name, _, w) ->
      let options =
        {
          Proto.default_options with
          Proto.timeout = Some !timeout;
          fault = (if i = 0 then Some Msu_guard.Fault.Kill_mid_solve else None);
        }
      in
      match Client.submit fd ~options w with
      | Ok _ -> incr accepted
      | Error e -> complain "daemon A rejected %s: %s" name e)
    instances;
  (* The queue is still full and job 0's worker was just SIGKILL'd by
     its armed fault (its retry parked on a 0.2 s backoff): kill the
     daemon outright — the no-flush crash the journal exists for. *)
  Unix.kill pid_a Sys.sigkill;
  ignore (Unix.waitpid [] pid_a);
  (try Client.close fd with Unix.Unix_error _ -> ());
  let replayed0 = Journal.replay jpath in
  let admitted0 =
    List.length
      (List.filter
         (function Journal.Admitted _ -> true | Journal.Completed _ -> false)
         replayed0)
  in
  let pending0 = Journal.pending replayed0 in
  Printf.printf
    "  daemon A SIGKILL'd mid-load: journal holds %d records (%d admitted), %d \
     jobs pending\n%!"
    (List.length replayed0) admitted0 (List.length pending0);
  if admitted0 <> !accepted then
    complain "journal lost admitted records: %d accepted, %d journalled" !accepted
      admitted0;
  if pending0 = [] then
    complain "daemon A finished everything before the kill - nothing exercised replay";
  (* Archive the mid-crash journal as a CI specimen before daemon B
     compacts it away. *)
  let specimen =
    let ic = open_in_bin jpath in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  write_file "chaos_journal_specimen.wal" specimen;
  let pid_b = spawn_daemon () in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec settle () =
    let s = Client.stats ~socket:sock in
    if
      s.Proto.queue_depth = 0 && s.Proto.running = 0
      && s.Proto.completed >= List.length pending0
    then s
    else if Unix.gettimeofday () > deadline then begin
      complain "daemon B failed to drain the replayed jobs within 60 s";
      s
    end
    else begin
      Unix.sleepf 0.05;
      settle ()
    end
  in
  let s_replay = settle () in
  Printf.printf "  daemon B replayed the journal: %d jobs completed\n%!"
    s_replay.Proto.completed;
  (* Crash-retry probes: a worker is SIGKILL'd mid-solve, the retry
     must warm-resume from its checkpoint and still prove the optimum. *)
  List.iteri
    (fun i (name, _, w) ->
      if i < 2 then
        let options =
          {
            Proto.default_options with
            Proto.timeout = Some !timeout;
            use_cache = false;
            fault = Some Msu_guard.Fault.Kill_mid_solve;
          }
        in
        match Client.solve ~options ~socket:sock w with
        | Error e -> complain "crash probe %s rejected: %s" name e
        | Ok r -> (
            match (r.Client.outcome, List.assoc_opt name reference) with
            | T.Optimum c, Some c' when c <> c' ->
                complain "crash probe %s: optimum %d after retry, cold proved %d"
                  name c c'
            | T.Optimum _, _ -> ()
            | _, None -> ()
            | o, _ ->
                complain "crash probe %s: retry did not re-prove the optimum (%s)"
                  name
                  (Format.asprintf "%a" T.pp_outcome o)))
    instances;
  (* Every admitted instance, resubmitted: the answer (replayed into
     the cache or re-solved) must match the cold optimum and survive
     re-costing against the instance. *)
  let resubmitted = ref 0 and certified = ref 0 in
  List.iter
    (fun (name, _, w) ->
      let options = { Proto.default_options with Proto.timeout = Some !timeout } in
      match Client.solve ~options ~socket:sock w with
      | Error e -> complain "resubmit %s rejected: %s" name e
      | Ok r -> (
          incr resubmitted;
          match r.Client.outcome with
          | T.Optimum c ->
              (match List.assoc_opt name reference with
              | Some c' when c <> c' ->
                  complain "%s: served optimum %d, cold solve proved %d" name c c'
              | _ -> ());
              let report =
                Certify.recost w
                  {
                    T.outcome = r.Client.outcome;
                    model = r.Client.model;
                    stats = T.empty_stats;
                    elapsed = r.Client.elapsed;
                  }
              in
              if Certify.ok report then incr certified
              else complain "%s: served result failed certification" name
          | T.Bounds { lb; ub } -> (
              match List.assoc_opt name reference with
              | Some c'
                when lb > c'
                     || (match ub with Some u -> u < c' | None -> false) ->
                  complain "%s: served bounds [%d, %s] exclude the optimum %d" name
                    lb
                    (match ub with Some u -> string_of_int u | None -> "?")
                    c'
              | _ -> ())
          | o ->
              complain "%s: resubmission served %s" name
                (Format.asprintf "%a" T.pp_outcome o)))
    instances;
  let s_final = Client.stats ~socket:sock in
  if s_final.Proto.crashes < 1 then
    complain "no worker crash recorded despite Kill_mid_solve probes";
  Client.shutdown ~drain:true ~socket:sock ();
  ignore (Unix.waitpid [] pid_b);
  let final_pending = Journal.pending (Journal.replay jpath) in
  if final_pending <> [] then
    complain "%d accepted jobs still pending in the journal after drain - lost work"
      (List.length final_pending);
  Printf.printf
    "  resubmitted %d instances: %d certified optima, %d worker crashes survived, \
     %d jobs pending at exit\n%!"
    !resubmitted !certified s_final.Proto.crashes
    (List.length final_pending);
  (try Sys.remove sock with Sys_error _ -> ());

  (* -- phase 3: corrupt files must degrade, never crash --------------- *)
  let w0 = match instances with (_, _, w) :: _ -> w | [] -> assert false in
  let admitted id =
    Journal.Admitted
      {
        id;
        wcnf = Proto.to_wire w0;
        options = Proto.default_options;
        submitted = 0.0;
      }
  in
  let mk_journal records =
    let j = Journal.restart jpath ~keep:[] in
    List.iter (Journal.append j) records;
    Journal.close j
  in
  let file_size p = (Unix.stat p).Unix.st_size in
  mk_journal [ admitted 1; admitted 2; admitted 3 ];
  let fdj = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fdj (file_size jpath - 5);
  Unix.close fdj;
  let ok_torn = List.length (Journal.replay jpath) = 2 in
  if not ok_torn then complain "torn journal tail lost more than the torn record";
  mk_journal [ admitted 1; admitted 2; admitted 3 ];
  let fdj = Unix.openfile jpath [ Unix.O_RDWR ] 0o644 in
  let mid = file_size jpath / 2 in
  ignore (Unix.lseek fdj mid Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fdj b 0 1);
  ignore (Unix.lseek fdj mid Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.write fdj b 0 1);
  Unix.close fdj;
  let ok_flip =
    match Journal.replay jpath with l -> List.length l < 3 | exception _ -> false
  in
  if not ok_flip then complain "bit-flipped journal was not detected";
  let oc = open_out jpath in
  output_string oc "not a journal at all\n";
  close_out oc;
  let ok_alien = Journal.replay jpath = [] in
  if not ok_alien then complain "alien journal file replayed as non-empty";
  let ok_cache =
    match Cache.load ~capacity:8 jpath with
    | c -> Cache.length c = 0
    | exception _ -> false
  in
  if not ok_cache then complain "corrupt cache snapshot did not load as empty";
  (try Sys.remove jpath with Sys_error _ -> ());
  (* A whole bracket frame, then half of the next one: the whole frame
     decodes and the torn tail never reads as a frame. *)
  let ck = { Ck.lb = 1; ub = Some 3; model = None } in
  let whole = Bytes.to_string (Ck.frame ck) in
  let torn = String.sub whole 0 (String.length whole / 2) in
  let stream = whole ^ torn in
  let ok_ck =
    match Msu_frame.Frame.parse stream 0 with
    | Some (f, next) -> Ck.of_frame f = ck && Msu_frame.Frame.parse stream next = None
    | None | (exception _) -> false
  in
  if not ok_ck then complain "torn checkpoint frame corrupted the kept checkpoint";
  Printf.printf "  corruption: torn/flipped/alien journals, cache, checkpoint all \
                 degraded cleanly\n%!";

  write_bench_json "chaos"
    [
      ("instances", Json.Int (List.length instances));
      ( "warm_resume",
        Json.Obj
          [
            ("compared", Json.Int (List.length warm_pairs));
            ("strictly_cheaper", Json.Int warm_wins);
            ("cold_sat_calls", Json.Int cold_calls);
            ("warm_sat_calls", Json.Int warm_calls);
          ] );
      ( "daemon",
        Json.Obj
          [
            ("accepted", Json.Int !accepted);
            ("journal_records_at_kill", Json.Int (List.length replayed0));
            ("pending_at_kill", Json.Int (List.length pending0));
            ("completed_after_restart", Json.Int s_replay.Proto.completed);
            ("worker_crashes", Json.Int s_final.Proto.crashes);
            ("resubmitted", Json.Int !resubmitted);
            ("certified", Json.Int !certified);
            ("final_pending", Json.Int (List.length final_pending));
          ] );
      ( "corruption",
        Json.Obj
          [
            ("journal_torn_tail", Json.Bool ok_torn);
            ("journal_bit_flip", Json.Bool ok_flip);
            ("journal_alien", Json.Bool ok_alien);
            ("cache_snapshot", Json.Bool ok_cache);
            ("checkpoint_frame", Json.Bool ok_ck);
          ] );
      ("violations", Json.List (List.map (fun m -> Json.Str m) (List.rev !violations)));
    ];
  if !violations <> [] then begin
    Printf.printf "  CHAOS VIOLATIONS:\n";
    List.iter (fun m -> Printf.printf "    %s\n" m) (List.rev !violations);
    exit 1
  end
  else
    Printf.printf
      "  chaos: no accepted job lost, every served optimum certified, corrupt \
       files tolerated\n%!"

(* ----- Bechamel micro-benchmarks: one Test.make per table/figure ----- *)

let micro () =
  let open Bechamel in
  let st = Random.State.make [| !seed |] in
  let industrial =
    Msu_cnf.Wcnf.of_formula (Msu_gen.Equiv.instance st ~n_inputs:6 ~n_gates:60 ~n_outputs:3)
  in
  let debug_inst =
    let inst =
      Msu_gen.Debug.instance st ~n_inputs:4 ~n_gates:15 ~n_outputs:2 ~n_vectors:3
        ~encoding:`Plain
    in
    inst.Msu_gen.Debug.wcnf
  in
  let solve alg w () = ignore (M.solve alg w) in
  let tests =
    Test.make_grouped ~name:"msu4"
      [
        Test.make ~name:"table1/msu4-v2-industrial"
          (Staged.stage (solve M.Msu4_v2 industrial));
        Test.make ~name:"table2/msu4-v2-debugging"
          (Staged.stage (solve M.Msu4_v2 debug_inst));
        Test.make ~name:"fig1/maxsatz-industrial"
          (Staged.stage (solve M.Branch_bound industrial));
        Test.make ~name:"fig2/pbo-industrial"
          (Staged.stage (solve M.Pbo_linear industrial));
        Test.make ~name:"fig3/msu4-v1-industrial"
          (Staged.stage (solve M.Msu4_v1 industrial));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  Printf.printf "\nBechamel micro-benchmarks (monotonic clock per solve):\n";
  let rows = ref [] in
  Hashtbl.iter (fun name ols -> rows := (name, ols) :: !rows) results;
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-36s %10.3f ms/solve\n" name (t /. 1e6)
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    (List.sort compare !rows)

(* Observability trace ablation.  Every (core-guided algorithm x
   instance) pair is solved once with a collector sink; the event
   stream is folded into an LB/UB-vs-time timeline and cross-checked:

     - the timeline is monotone (LB nondecreasing, UB nonincreasing,
       timestamps nondecreasing) — the progress-cell filter at work;
     - a solve that proves an optimum ends its timeline exactly at the
       certified bracket [opt, opt];
     - the event-derived SAT-call and core counts equal the stats
       record's (counting and emission share call sites, so any drift
       is a bug).

   The per-instance series land in BENCH_trace.json, and one
   representative solve is also written as a JSONL trace
   (trace_smoke.trace.jsonl) so CI archives a parseable specimen of the
   schema documented in DESIGN.md §12. *)

let trace_algorithms =
  [ M.Msu1; M.Msu2; M.Msu3; M.Msu4_v1; M.Msu4_v2; M.Oll; M.Wpm1; M.Pbo_linear ]

let ablation_trace () =
  Printf.printf "\nAblation - event timelines vs stats (observability cross-check)\n";
  Printf.printf "---------------------------------------------------------------\n";
  let instances = to_wcnf (Suites.debugging ~scale:!scale ~seed:!seed ()) in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let smoke_trace_written = ref false in
  let series =
    List.concat_map
      (fun (name, family, w) ->
        List.map
          (fun alg ->
            let col = Obs.Collector.create () in
            let deadline = Unix.gettimeofday () +. !timeout in
            let config =
              {
                T.default_config with
                T.deadline;
                T.sink = Obs.Collector.sink col;
              }
            in
            let t0 = Unix.gettimeofday () in
            let r = M.solve ~config alg w in
            let events = Obs.Collector.events col in
            let tl = Obs.Timeline.of_events events in
            let label = Printf.sprintf "%s/%s" name (M.algorithm_to_string alg) in
            if not (Obs.Timeline.monotone tl) then
              complain "%s: timeline not monotone" label;
            if tl.Obs.Timeline.sat_calls <> r.T.stats.T.sat_calls then
              complain "%s: %d Sat_call events vs %d stats.sat_calls" label
                tl.Obs.Timeline.sat_calls r.T.stats.T.sat_calls;
            if tl.Obs.Timeline.cores <> r.T.stats.T.cores then
              complain "%s: %d Core events vs %d stats.cores" label
                tl.Obs.Timeline.cores r.T.stats.T.cores;
            (match r.T.outcome with
            | T.Optimum c -> (
                match Obs.Timeline.final tl with
                | Some lb, Some ub when lb = c && ub = c -> ()
                | lb, ub ->
                    complain "%s: optimum %d but timeline ends at [%s, %s]" label c
                      (match lb with Some v -> string_of_int v | None -> "?")
                      (match ub with Some v -> string_of_int v | None -> "?"))
            | _ -> ());
            if (not !smoke_trace_written) && events <> [] then begin
              smoke_trace_written := true;
              ensure_out_dir ();
              let path = Filename.concat !out_dir "trace_smoke.trace.jsonl" in
              let oc = open_out path in
              List.iter (Obs.Jsonl.write oc) events;
              close_out oc;
              Printf.printf "  [wrote %s]\n%!" path
            end;
            let points =
              List.map
                (fun (p : Obs.Timeline.point) ->
                  Json.Obj
                    (("t", Json.Num (Float.max 0. (p.Obs.Timeline.at -. t0)))
                     :: List.filter_map
                          (fun (k, v) -> Option.map (fun v -> (k, Json.Int v)) v)
                          [ ("lb", p.Obs.Timeline.lb); ("ub", p.Obs.Timeline.ub) ]))
                tl.Obs.Timeline.points
            in
            if !verbose then
              Printf.printf "    %-24s %-10s %4d events, %3d points\n%!" name
                (M.algorithm_to_string alg)
                (List.length events) (List.length points)
            else begin
              print_char '.';
              flush stdout
            end;
            Json.Obj
              [
                ("instance", Json.Str name);
                ("family", Json.Str family);
                ("algorithm", Json.Str (M.algorithm_to_string alg));
                ( "outcome",
                  Json.Str
                    (match r.T.outcome with
                    | T.Optimum c -> Printf.sprintf "optimum %d" c
                    | T.Bounds _ -> "bounds"
                    | T.Hard_unsat -> "hard_unsat"
                    | T.Crashed _ -> "crashed") );
                ("sat_calls", Json.Int r.T.stats.T.sat_calls);
                ("cores", Json.Int r.T.stats.T.cores);
                ("events", Json.Int (List.length events));
                ("timeline", Json.List points);
              ])
          trace_algorithms)
      instances
  in
  print_newline ();
  write_bench_json "trace"
    [
      ("algorithms", Json.Int (List.length trace_algorithms));
      ("instances", Json.Int (List.length instances));
      ("violations", Json.List (List.map (fun m -> Json.Str m) !violations));
      ("series", Json.List series);
    ];
  if !violations <> [] then begin
    Printf.printf "  OBSERVABILITY VIOLATIONS:\n";
    List.iter (fun m -> Printf.printf "    %s\n" m) (List.rev !violations);
    exit 1
  end
  else
    Printf.printf "  %d series checked: timelines monotone, counts match stats\n%!"
      (List.length series)

(* Propagation microbenchmark.  Raw CDCL throughput on conflict-heavy
   instances (pigeonhole + over-constrained random 3-SAT), measured
   directly against [Msu_sat.Solver] — no MaxSAT layer in the way.

   Three numbers per variant: propagations/sec, conflicts/sec, and GC
   minor words per SAT call ([Gc.minor_words] delta across [solve]).
   Instances are deterministic in [--seed] and bounded by a *conflict*
   budget (not a deadline), so the per-instance answers are
   machine-independent; they are asserted byte-equal against the
   committed baseline file ([--baseline]), which also carries the
   reference throughput for a soft regression guard: the run fails if
   propagations/sec drops more than 20% below the baseline.  Answers
   differing is a hard failure either way — that is the
   result-equivalence oracle every later hot-path PR must pass. *)

let ablation_propagation () =
  let module S = Msu_sat.Solver in
  let module F = Msu_cnf.Formula in
  let st = Random.State.make [| !seed; 0x9E3779B9 |] in
  (* The smoke suite still needs a second or so of wall clock per
     variant: the regression guard divides by measured time, and
     sub-millisecond runs would make the props/sec ratio pure noise. *)
  let php_sizes = if !smoke then [ 6 ] else [ 7; 8 ] in
  let rand_specs =
    (* (n_vars, clauses-per-var ratio, instance count): at or above the
       3-SAT threshold, so conflict-heavy (mostly UNSAT) refutations.
       Instances the conflict budget caps still measure throughput —
       the budget, not the clock, bounds them, so the "unknown" answer
       is deterministic. *)
    if !smoke then [ (200, 4.6, 2) ] else [ (200, 4.8, 4); (250, 4.4, 4) ]
  in
  let conflict_budget = if !smoke then 40_000 else 150_000 in
  let instances =
    List.map
      (fun n -> (Printf.sprintf "php-%d" n, "php", Msu_gen.Php.formula n))
      php_sizes
    @ List.concat_map
        (fun (n, ratio, count) ->
          List.init count (fun i ->
              let n_clauses = int_of_float (ratio *. float_of_int n) in
              let f = Msu_gen.Random_cnf.ksat st ~n_vars:n ~n_clauses ~k:3 in
              (Printf.sprintf "rnd%d-%.1f-%d" n ratio i, "random", f)))
        rand_specs
  in
  Printf.printf "\nAblation H - propagation microbench (%d instances, %d-conflict budget)\n%!"
    (List.length instances) conflict_budget;
  let result_string = function
    | S.Sat -> "sat"
    | S.Unsat -> "unsat"
    | S.Unknown -> "unknown"
  in
  (* One run = fresh solver, load, solve once under the conflict budget. *)
  let run_one ~track_proof f =
    let s = S.create ~track_proof () in
    S.ensure_vars s (F.num_vars f);
    F.iter_clauses (fun _ c -> S.add_clause s c) f;
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = S.solve ~conflict_budget s in
    let dt = Unix.gettimeofday () -. t0 in
    let mw = Gc.minor_words () -. mw0 in
    let model_ok =
      match r with
      | S.Sat -> F.count_satisfied f (S.model s) = F.num_clauses f
      | S.Unsat | S.Unknown -> true
    in
    (r, dt, mw, S.stats s, model_ok)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let variants = [ ("proof", true); ("noproof", false) ] in
  let rows =
    (* (variant, instance, family, result, dt, minor_words, stats) *)
    List.concat_map
      (fun (vname, track_proof) ->
        List.map
          (fun (iname, family, f) ->
            let r, dt, mw, stats, model_ok = run_one ~track_proof f in
            if not model_ok then
              fail "SAT model of %s does not satisfy the formula" iname;
            if !verbose then
              Printf.printf "    %-14s %-16s %-7s %8.3fs %12d props %10.0f minor\n%!"
                vname iname (result_string r) dt stats.S.propagations mw;
            (iname, family, vname, r, dt, mw, stats))
          instances)
      variants
  in
  (* The proof/noproof variants must agree instance by instance (proof
     tracking may not change the search). *)
  List.iter
    (fun (iname, _, _, r, _, _, _) ->
      List.iter
        (fun (iname', _, _, r', _, _, _) ->
          if String.equal iname iname' && r <> r' then
            fail "variant disagreement on %s" iname)
        rows)
    rows;
  let aggregate pred =
    let sel = List.filter pred rows in
    let calls = List.length sel in
    let tot f = List.fold_left (fun acc r -> acc +. f r) 0. sel in
    let time = tot (fun (_, _, _, _, dt, _, _) -> dt) in
    let props = tot (fun (_, _, _, _, _, _, st) -> float_of_int st.S.propagations) in
    let confls = tot (fun (_, _, _, _, _, _, st) -> float_of_int st.S.conflicts) in
    let minor = tot (fun (_, _, _, _, _, mw, _) -> mw) in
    let per t = if time > 0. then t /. time else 0. in
    ( calls,
      per props,
      per confls,
      (if calls > 0 then minor /. float_of_int calls else 0.),
      time )
  in
  let headline = aggregate (fun (_, _, v, _, _, _, _) -> String.equal v "proof") in
  let _, props_sec, confls_sec, minor_per_call, total_time = headline in
  Printf.printf "  %-10s %14s %14s %16s %8s\n" "variant" "props/sec" "conflicts/sec"
    "minor words/call" "time";
  let variant_rows =
    List.map
      (fun (vname, _) ->
        let _, ps, cs, mw, t =
          aggregate (fun (_, _, v, _, _, _, _) -> String.equal v vname)
        in
        Printf.printf "  %-10s %14.3e %14.3e %16.1f %7.2fs\n%!" vname ps cs mw t;
        (vname, ps, cs, mw))
      variants
  in
  (* Per-instance answers, from the "proof" variant. *)
  let answers =
    List.filter_map
      (fun (iname, _, v, r, _, _, _) ->
        if String.equal v "proof" then Some (iname, result_string r) else None)
      rows
  in
  (* ----- committed-baseline comparison (answers + throughput) ----- *)
  let mode = if !smoke then "smoke" else "full" in
  let baseline =
    (* Flat key-value file next to the JSON artifact: trivially
       parseable without a JSON reader.  Regenerated by every run into
       [--out]; the committed copy under results/ is the reference. *)
    if !baseline_file = "" || not (Sys.file_exists !baseline_file) then None
    else begin
      let ic = open_in !baseline_file in
      let tbl = Hashtbl.create 64 in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | [ "answer"; name; r ] -> Hashtbl.replace tbl ("answer " ^ name) r
           | [ key; v ] -> Hashtbl.replace tbl key v
           | _ -> ()
         done
       with End_of_file -> close_in ic);
      Some tbl
    end
  in
  let baseline_props = ref None in
  let baseline_minor = ref None in
  (match baseline with
  | None ->
      Printf.printf "  (no baseline file%s: guard skipped)\n%!"
        (if !baseline_file = "" then "" else " " ^ !baseline_file)
  | Some tbl ->
      let find k = Hashtbl.find_opt tbl k in
      if find "mode" <> Some mode || find "seed" <> Some (string_of_int !seed) then
        Printf.printf "  (baseline mode/seed mismatch: guard skipped)\n%!"
      else begin
        List.iter
          (fun (iname, r) ->
            match find ("answer " ^ iname) with
            | Some r' when r' <> r ->
                fail "answer changed vs baseline on %s: %s -> %s" iname r' r
            | _ -> ())
          answers;
        (match find "props_per_sec" with
        | Some v ->
            let bp = float_of_string v in
            baseline_props := Some bp;
            let ratio = props_sec /. bp in
            Printf.printf "  baseline props/sec %.3e -> %.3e (%.2fx)%s\n%!" bp
              props_sec ratio
              (if (not !guard_perf) && ratio < 0.8 then
                 "  ** >20% below baseline (soft: pass --guard-perf to enforce) **"
               else "");
            if !guard_perf && ratio < 0.8 then
              fail "propagation throughput regressed >20%% vs baseline (%.2fx)" ratio
        | None -> ());
        match find "minor_words_per_call" with
        | Some v ->
            let bm = float_of_string v in
            baseline_minor := Some bm;
            Printf.printf "  baseline minor words/call %.0f -> %.0f (%.1fx fewer)\n%!"
              bm minor_per_call
              (if minor_per_call > 0. then bm /. minor_per_call else infinity);
            (* Allocation counts are deterministic for a fixed seed and
               code, so unlike wall-clock throughput this guard is safe
               to enforce everywhere, including `dune runtest`. *)
            if minor_per_call > bm *. 1.2 then
              fail "minor words/call regressed >20%% vs baseline (%.0f -> %.0f)" bm
                minor_per_call
        | None -> ()
      end);
  (* Fresh baseline snapshot into --out (commit it under results/ to
     ratchet the reference). *)
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "mode %s\nseed %d\nconflict_budget %d\n" mode !seed conflict_budget;
  Printf.bprintf buf "props_per_sec %.6e\nminor_words_per_call %.6e\n" props_sec
    minor_per_call;
  List.iter (fun (n, r) -> Printf.bprintf buf "answer %s %s\n" n r) answers;
  write_file
    (if !smoke then "propagation_answers_smoke.txt" else "propagation_answers.txt")
    (Buffer.contents buf);
  write_bench_json "propagation"
    [
      ("mode", Json.Str mode);
      ("conflict_budget", Json.Int conflict_budget);
      ("instances", Json.Int (List.length instances));
      ("props_per_sec", Json.Num props_sec);
      ("conflicts_per_sec", Json.Num confls_sec);
      ("minor_words_per_call", Json.Num minor_per_call);
      ("total_time_s", Json.Num total_time);
      ( "baseline",
        match (!baseline_props, !baseline_minor) with
        | Some bp, Some bm ->
            Json.Obj
              [
                ("props_per_sec", Json.Num bp);
                ("minor_words_per_call", Json.Num bm);
                ("speedup", Json.Num (props_sec /. bp));
                ( "minor_words_reduction",
                  Json.Num (if minor_per_call > 0. then bm /. minor_per_call else 0.)
                );
              ]
        | _ -> Json.Str "none" );
      ( "variants",
        Json.List
          (List.map
             (fun (vname, ps, cs, mw) ->
               Json.Obj
                 [
                   ("variant", Json.Str vname);
                   ("props_per_sec", Json.Num ps);
                   ("conflicts_per_sec", Json.Num cs);
                   ("minor_words_per_call", Json.Num mw);
                 ])
             variant_rows) );
      ( "answers",
        Json.Obj (List.map (fun (n, r) -> (n, Json.Str r)) answers) );
    ];
  if !failures <> [] then begin
    Printf.printf "  PROPAGATION BENCH FAILURES:\n";
    List.iter (fun m -> Printf.printf "    %s\n" m) (List.rev !failures);
    exit 1
  end
  else Printf.printf "  answers stable, models verified, guard satisfied\n%!"

(* Span-profiling overhead ablation.  Two claims are gated here:

   1. {e Tracing off costs nothing.}  The solver hot loop now carries
      span hooks (a [prof_on] flag, reduce_db/restart brackets); with
      the Null sink they must be invisible.  The gate compares the
      disabled-tracer variant's throughput on the propagation smoke
      bench against the committed pre-instrumentation baseline
      ([results/profile_baseline_smoke.txt]) and fails under
      [--guard-perf] if it dropped more than 2% — within timing noise
      on a quiet machine, which is why the wall-clock gate is opt-in
      like ablation-propagation's.

   2. {e Tracing on does not change the search.}  Per instance, the
      disabled and profiled variants must report byte-identical answers
      and identical conflict/propagation counts — enforced always,
      machine-independent.

   One representative MaxSAT solve also runs fully traced; its span
   stream must export to Chrome trace_event JSON that [Chrome.validate]
   accepts (matched B/E, monotone timestamps), its parent chains must
   reach the root, and every phase's self time must not exceed its
   total time.  The trace is written as profile_smoke.trace.json so CI
   archives a loadable specimen, and the phase table lands in
   BENCH_profile.json. *)

let ablation_profile () =
  let module S = Msu_sat.Solver in
  let module F = Msu_cnf.Formula in
  let st = Random.State.make [| !seed; 0x9E3779B9 |] in
  let php_sizes = if !smoke then [ 6 ] else [ 7; 8 ] in
  let rand_specs =
    if !smoke then [ (200, 4.6, 2) ] else [ (200, 4.8, 4); (250, 4.4, 4) ]
  in
  let conflict_budget = if !smoke then 40_000 else 150_000 in
  let instances =
    List.map
      (fun n -> (Printf.sprintf "php-%d" n, Msu_gen.Php.formula n))
      php_sizes
    @ List.concat_map
        (fun (n, ratio, count) ->
          List.init count (fun i ->
              let n_clauses = int_of_float (ratio *. float_of_int n) in
              let f = Msu_gen.Random_cnf.ksat st ~n_vars:n ~n_clauses ~k:3 in
              (Printf.sprintf "rnd%d-%.1f-%d" n ratio i, f)))
        rand_specs
  in
  Printf.printf
    "\nAblation J - span profiling overhead (%d instances, %d-conflict budget)\n%!"
    (List.length instances) conflict_budget;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let result_string = function
    | S.Sat -> "sat"
    | S.Unsat -> "unsat"
    | S.Unknown -> "unknown"
  in
  (* One run = fresh solver with the given tracer attached.  The
     profiled variant streams into a collector (discarded afterwards);
     the null variant exercises the exact disabled-path branches the
     production Null-sink configuration takes. *)
  let run_one ~spans f =
    let s = S.create () in
    S.ensure_vars s (F.num_vars f);
    F.iter_clauses (fun _ c -> S.add_clause s c) f;
    S.set_tracer s spans;
    let t0 = Unix.gettimeofday () in
    let r = S.solve ~conflict_budget s in
    let dt = Unix.gettimeofday () -. t0 in
    (r, dt, S.stats s)
  in
  let measure variant_spans =
    List.map
      (fun (iname, f) ->
        let spans = variant_spans () in
        let r, dt, stats = run_one ~spans f in
        (iname, result_string r, dt, stats.S.conflicts, stats.S.propagations))
      instances
  in
  let null_rows = measure (fun () -> Obs.Span.disabled) in
  let profiled_rows =
    measure (fun () ->
        let col = Obs.Collector.create () in
        Obs.Span.create ~sink:(Obs.Collector.sink col) ~id:0 ())
  in
  (* Search equivalence: tracing may not perturb the solver. *)
  List.iter2
    (fun (n, r, _, c, p) (n', r', _, c', p') ->
      assert (String.equal n n');
      if r <> r' then fail "%s: answer changed under tracing (%s -> %s)" n r r';
      if c <> c' then fail "%s: conflicts changed under tracing (%d -> %d)" n c c';
      if p <> p' then fail "%s: propagations changed under tracing (%d -> %d)" n p p')
    null_rows profiled_rows;
  let throughput rows =
    let time = List.fold_left (fun a (_, _, dt, _, _) -> a +. dt) 0. rows in
    let confls =
      List.fold_left (fun a (_, _, _, c, _) -> a + c) 0 rows |> float_of_int
    in
    let props =
      List.fold_left (fun a (_, _, _, _, p) -> a + p) 0 rows |> float_of_int
    in
    let per t = if time > 0. then t /. time else 0. in
    (per props, per confls, per (props +. confls), time)
  in
  let n_props, n_confls, n_combined, n_time = throughput null_rows in
  let p_props, _, p_combined, p_time = throughput profiled_rows in
  Printf.printf "  %-10s %14s %14s %8s\n" "variant" "props/sec" "conflicts/sec"
    "time";
  Printf.printf "  %-10s %14.3e %14.3e %7.2fs\n" "null" n_props n_confls n_time;
  Printf.printf "  %-10s %14.3e %14.3e %7.2fs\n%!" "profiled" p_props
    (p_combined -. p_props) p_time;
  let traced_ratio = if n_combined > 0. then p_combined /. n_combined else 1. in
  Printf.printf "  tracing-on throughput: %.2fx of null (informational)\n%!"
    traced_ratio;
  (* ----- committed-baseline gate (pre-instrumentation throughput) ----- *)
  let mode = if !smoke then "smoke" else "full" in
  let baseline_combined = ref None in
  (if !baseline_file = "" || not (Sys.file_exists !baseline_file) then
     Printf.printf "  (no baseline file%s: overhead gate skipped)\n%!"
       (if !baseline_file = "" then "" else " " ^ !baseline_file)
   else begin
     let ic = open_in !baseline_file in
     let tbl = Hashtbl.create 16 in
     (try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ key; v ] -> Hashtbl.replace tbl key v
          | _ -> ()
        done
      with End_of_file -> close_in ic);
     let find k = Hashtbl.find_opt tbl k in
     if find "mode" <> Some mode || find "seed" <> Some (string_of_int !seed)
     then Printf.printf "  (baseline mode/seed mismatch: gate skipped)\n%!"
     else
       match find "props_conflicts_per_sec" with
       | Some v ->
           let base = float_of_string v in
           baseline_combined := Some base;
           let ratio = n_combined /. base in
           Printf.printf
             "  null-sink vs pre-instrumentation baseline: %.3e -> %.3e (%.3fx)%s\n%!"
             base n_combined ratio
             (if (not !guard_perf) && ratio < 0.98 then
                "  ** >2% below baseline (soft: pass --guard-perf to enforce) **"
              else "");
           if !guard_perf && ratio < 0.98 then
             fail
               "null-sink instrumentation overhead exceeds 2%% vs baseline (%.3fx)"
               ratio
       | None -> ()
   end);
  (* ----- traced MaxSAT specimen: export, validate, phase table ----- *)
  let specimen_phases, specimen_spans =
    let w =
      match to_wcnf (Suites.debugging ~scale:!scale ~seed:!seed ()) with
      | (_, _, w) :: _ -> w
      | [] -> Msu_cnf.Wcnf.of_formula (Msu_gen.Php.formula 4)
    in
    let col = Obs.Collector.create () in
    let sink = Obs.Collector.sink col in
    let spans = Obs.Span.create ~sink ~id:0 () in
    let root = Obs.Span.start spans "request" in
    Obs.Span.set_anchor spans (Obs.Span.span_of root);
    let config =
      {
        T.default_config with
        T.deadline = Unix.gettimeofday () +. !timeout;
        T.sink = sink;
        T.spans = spans;
      }
    in
    (match (M.solve_supervised ~config M.Msu3 w).T.outcome with
    | T.Optimum _ | T.Bounds _ | T.Hard_unsat -> ()
    | T.Crashed { reason; _ } -> fail "specimen solve crashed: %s" reason);
    Obs.Span.stop spans root;
    let events = Obs.Collector.events col in
    let json = Obs.Chrome.of_events ~process_name:"bench" events in
    ensure_out_dir ();
    let path = Filename.concat !out_dir "profile_smoke.trace.json" in
    let oc = open_out path in
    output_string oc json;
    close_out oc;
    Printf.printf "  [wrote %s]\n%!" path;
    let n_spans =
      match Obs.Chrome.validate json with
      | Ok 0 ->
          fail "Chrome trace validated but contains no spans";
          0
      | Ok n ->
          Printf.printf "  Chrome trace valid: %d spans\n%!" n;
          n
      | Error msg ->
          fail "Chrome trace invalid: %s" msg;
          0
    in
    if not (Obs.Span.Report.rooted ~root:(Obs.Span.span_of root) events) then
      fail "specimen spans do not all re-parent under the request span";
    let rows = Obs.Span.Report.of_events events in
    if rows = [] then fail "empty phase report from the specimen solve";
    List.iter
      (fun (row : Obs.Span.Report.row) ->
        (* Clock granularity can make a leaf's recorded elapsed a hair
           over the parent's; allow a microsecond of slack. *)
        if row.Obs.Span.Report.self_s > row.Obs.Span.Report.total_s +. 1e-6 then
          fail "phase %s: self %.6fs exceeds total %.6fs"
            row.Obs.Span.Report.phase row.Obs.Span.Report.self_s
            row.Obs.Span.Report.total_s)
      rows;
    (rows, n_spans)
  in
  (* Fresh baseline snapshot into --out (commit under results/ to
     ratchet the reference). *)
  let buf = Buffer.create 256 in
  Printf.bprintf buf "mode %s\nseed %d\nconflict_budget %d\n" mode !seed
    conflict_budget;
  Printf.bprintf buf
    "props_per_sec %.6e\nconflicts_per_sec %.6e\nprops_conflicts_per_sec %.6e\n"
    n_props n_confls n_combined;
  write_file
    (if !smoke then "profile_baseline_smoke.txt" else "profile_baseline.txt")
    (Buffer.contents buf);
  write_bench_json "profile"
    [
      ("mode", Json.Str mode);
      ("conflict_budget", Json.Int conflict_budget);
      ("instances", Json.Int (List.length instances));
      ("null_props_per_sec", Json.Num n_props);
      ("null_conflicts_per_sec", Json.Num n_confls);
      ("null_props_conflicts_per_sec", Json.Num n_combined);
      ("profiled_props_per_sec", Json.Num p_props);
      ("traced_throughput_ratio", Json.Num traced_ratio);
      ( "baseline",
        match !baseline_combined with
        | Some base ->
            Json.Obj
              [
                ("props_conflicts_per_sec", Json.Num base);
                ("null_ratio", Json.Num (n_combined /. base));
                ("gate", Json.Str (if !guard_perf then "enforced" else "soft"));
              ]
        | None -> Json.Str "none" );
      ("specimen_spans", Json.Int specimen_spans);
      ( "phases",
        Json.List
          (List.map
             (fun (row : Obs.Span.Report.row) ->
               Json.Obj
                 [
                   ("phase", Json.Str row.Obs.Span.Report.phase);
                   ("count", Json.Int row.Obs.Span.Report.count);
                   ("total_s", Json.Num row.Obs.Span.Report.total_s);
                   ("self_s", Json.Num row.Obs.Span.Report.self_s);
                 ])
             specimen_phases) );
    ];
  if !failures <> [] then begin
    Printf.printf "  PROFILE BENCH FAILURES:\n";
    List.iter (fun m -> Printf.printf "    %s\n" m) (List.rev !failures);
    exit 1
  end
  else
    Printf.printf
      "  search unchanged under tracing, trace valid, self <= total\n%!"

let () =
  let anon a = command := a in
  Arg.parse spec anon usage;
  if !smoke then begin
    scale := Float.min !scale 0.2;
    timeout := Float.min !timeout 0.4
  end;
  Printf.printf "msu4 reproduction bench: command=%s scale=%.2f timeout=%.1fs seed=%d%s\n%!"
    !command !scale !timeout !seed
    (if !smoke then " (smoke)" else "");
  match !command with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "fig1" -> fig1 ()
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "figures" ->
      fig1 ();
      fig2 ();
      fig3 ()
  | "ablation-opt" -> ablation_opt ()
  | "ablation-msu" -> ablation_msu ()
  | "ablation-wpm1" -> ablation_wpm1 ()
  | "ablation-inprocess" -> ablation_inprocess ()
  | "ablation-portfolio" -> ablation_portfolio ()
  | "ablation-service" -> ablation_service ()
  | "ablation-trace" -> ablation_trace ()
  | "ablation-chaos" -> ablation_chaos ()
  | "ablation-propagation" -> ablation_propagation ()
  | "ablation-profile" -> ablation_profile ()
  | "micro" -> micro ()
  | "all" ->
      table1 ();
      fig1 ();
      fig2 ();
      fig3 ();
      table2 ();
      ablation_opt ();
      ablation_msu ();
      ablation_wpm1 ();
      ablation_inprocess ();
      ablation_portfolio ();
      ablation_service ();
      ablation_trace ();
      ablation_chaos ();
      ablation_propagation ();
      ablation_profile ();
      micro ()
  | other ->
      Printf.eprintf "unknown command %S\n%s\n" other usage;
      exit 2
