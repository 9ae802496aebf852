(* Robustness subsystem: budgets, supervision, fault injection,
   certification, and the hardened runner. *)

module G = Msu_guard.Guard
module F = Msu_guard.Fault
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module C = Msu_maxsat.Certify
module R = Msu_harness.Runner
module Wcnf = Msu_cnf.Wcnf
open Test_util

(* Hard: x1, (-x1 or -x2).  Soft: x2, x3, -x3.  Optimum 2, unique model
   x1=T x2=F (x3 either way); flipping model bit 0 violates a hard
   clause, which makes the model-corruption fault detectable for sure. *)
let paper_wcnf () =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w 3;
  Wcnf.add_hard w (clause [ 1 ]);
  Wcnf.add_hard w (clause [ -1; -2 ]);
  ignore (Wcnf.add_soft w (clause [ 2 ]));
  ignore (Wcnf.add_soft w (clause [ 3 ]));
  ignore (Wcnf.add_soft w (clause [ -3 ]));
  w

let random_wcnf st =
  let w = Wcnf.create () in
  let n_vars = 3 + Random.State.int st 3 in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to Random.State.int st 3 do
    Wcnf.add_hard w (random_clause st n_vars 3)
  done;
  for _ = 1 to 4 + Random.State.int st 5 do
    ignore (Wcnf.add_soft w (random_clause st n_vars 3))
  done;
  w

let property_instances () =
  let st = Random.State.make [| 7 |] in
  [
    ("contradiction", Wcnf.of_formula (formula_of_clauses 1 [ [ 1 ]; [ -1 ] ]));
    ("php3", Wcnf.of_formula (pigeonhole 3));
    ("paper", paper_wcnf ());
  ]
  @ List.init 8 (fun i -> (Printf.sprintf "random-%d" i, random_wcnf st))

(* ---------------- guard primitives ---------------- *)

let test_guard_conflicts_trip () =
  let g = G.create ~max_conflicts:10 () in
  G.add_conflicts g 5;
  Alcotest.(check bool) "under budget" true (G.poll g = None);
  G.add_conflicts g 6;
  Alcotest.(check bool) "over budget" true (G.poll g = Some G.Conflicts);
  (* monotone: the reason sticks even though no more conflicts arrive *)
  Alcotest.(check bool) "stays tripped" true (G.tripped g = Some G.Conflicts);
  Alcotest.(check (option int)) "no conflicts left" (Some 0) (G.remaining_conflicts g)

let test_guard_deadline_trip () =
  let g = G.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  (* the clock is sampled once every 64 polls *)
  let rec loop n = if n > 0 && G.poll g = None then loop (n - 1) in
  loop 200;
  Alcotest.(check bool) "deadline tripped" true (G.tripped g = Some G.Timeout);
  Alcotest.(check bool) "breached agrees" true (G.breached g = Some G.Timeout)

let test_guard_check_raises () =
  let g = G.unlimited () in
  G.trip g G.Memory;
  match G.check g with
  | () -> Alcotest.fail "check did not raise"
  | exception G.Interrupt G.Memory -> ()
  | exception G.Interrupt r -> Alcotest.failf "wrong reason %s" (G.reason_to_string r)

let test_progress_monotone () =
  let c = G.Progress.create () in
  G.Progress.note_lb c 3;
  G.Progress.note_lb c 1;
  Alcotest.(check int) "lb only rises" 3 (G.Progress.lb c);
  let m5 = [| true |] and m7 = [| false |] in
  G.Progress.note_ub c 5 (Some m5);
  G.Progress.note_ub c 7 (Some m7);
  Alcotest.(check (option int)) "ub only falls" (Some 5) (G.Progress.ub c);
  (match G.Progress.model c with
  | Some m -> Alcotest.(check bool) "model matches best ub" true m.(0)
  | None -> Alcotest.fail "model lost");
  m5.(0) <- false;
  (match G.Progress.model c with
  | Some m -> Alcotest.(check bool) "model was copied" true m.(0)
  | None -> Alcotest.fail "model lost")

let test_supervise () =
  Alcotest.(check bool) "ok path" true (G.supervise (fun () -> 42) = Ok 42);
  Alcotest.(check bool) "stack overflow caught" true
    (G.supervise (fun () -> raise Stack_overflow) = Error "stack overflow");
  (match G.supervise (fun () -> G.check (let g = G.unlimited () in G.trip g G.Timeout; g)) with
  | exception G.Interrupt _ -> ()
  | _ -> Alcotest.fail "Interrupt must not be swallowed");
  match G.supervise (fun () -> invalid_arg "caller bug") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Invalid_argument must not be swallowed"

(* ---------------- budget-soundness property ----------------

   Every algorithm, starved to a 2-conflict budget, must return a sound
   answer: the true optimum, or bounds that bracket it — and never
   raise.  This is the paper's "anytime" contract under the new guard. *)

let test_budget_soundness () =
  List.iter
    (fun (iname, w) ->
      let opt = Wcnf.brute_force_min_cost w in
      List.iter
        (fun alg ->
          let config = { T.default_config with T.max_conflicts = Some 2 } in
          let r = M.solve_supervised ~config alg w in
          let name what =
            Printf.sprintf "%s/%s %s" iname (M.algorithm_to_string alg) what
          in
          match (r.T.outcome, opt) with
          | T.Optimum c, Some o -> Alcotest.(check int) (name "optimum") o c
          | T.Optimum _, None -> Alcotest.fail (name "optimum on hard-unsat")
          | T.Hard_unsat, None -> ()
          | T.Hard_unsat, Some _ -> Alcotest.fail (name "spurious hard-unsat")
          | (T.Bounds { lb; ub } | T.Crashed { lb; ub; _ }), Some o ->
              Alcotest.(check bool) (name "lb sound") true (lb <= o);
              Alcotest.(check bool)
                (name "ub sound") true
                (match ub with Some u -> u >= o | None -> true)
          | (T.Bounds _ | T.Crashed _), None -> ())
        M.all_algorithms)
    (property_instances ())

(* ---------------- fault-injection matrix ----------------

   Arm a lie, run a solve, and the certifier must reject the answer;
   with nothing armed it must accept every clean answer.  Teardown
   disarms so a failing assertion cannot poison later tests. *)

let with_fault kind f =
  F.arm kind;
  Fun.protect ~finally:F.disarm_all f

let test_certify_clean_runs () =
  List.iter
    (fun (iname, w) ->
      List.iter
        (fun alg ->
          let r = M.solve_supervised alg w in
          let report = C.certify w r in
          if not (C.ok report) then
            Alcotest.failf "%s/%s falsely rejected: %s" iname
              (M.algorithm_to_string alg)
              (String.concat "; " report.C.failures))
        [ M.Msu4_v1; M.Msu4_v2; M.Msu3; M.Oll; M.Branch_bound; M.Brute ])
    (property_instances ())

let test_certify_rejects_corrupt_model () =
  with_fault F.Corrupt_model_bit (fun () ->
      let w = paper_wcnf () in
      let r = M.solve_supervised M.Msu4_v2 w in
      Alcotest.(check bool) "fault consumed" false (F.armed F.Corrupt_model_bit);
      let report = C.certify w r in
      Alcotest.(check bool) "corrupt model rejected" false (C.ok report))

let test_certify_rejects_flipped_answer () =
  with_fault F.Flip_sat_answer (fun () ->
      let w = paper_wcnf () in
      let r = M.solve_supervised M.Msu4_v2 w in
      let report = C.certify w r in
      Alcotest.(check bool) "flipped answer rejected" false (C.ok report))

(* A probe that runs out of conflicts proves nothing: its check lands
   among the unproved ones, not the passed ones, and is no failure
   either.  Pigeonhole(4) as plain MaxSAT has optimum 1, and refuting
   "cost <= 0" takes more than one conflict. *)
let test_certify_budget_out_unproved () =
  let w = Wcnf.of_formula (pigeonhole 4) in
  let r = M.solve_supervised M.Msu4_v2 w in
  Alcotest.(check bool) "optimum 1" true (r.T.outcome = T.Optimum 1);
  let starved = C.certify ~max_conflicts:1 w r in
  Alcotest.(check (list (pair string string)))
    "optimality unproved" [ ("optimality", "probe budget out") ] starved.C.unproved;
  Alcotest.(check bool) "optimality not passed" false
    (List.exists (String.starts_with ~prefix:"optimality") starved.C.passed);
  Alcotest.(check bool) "no failure" true (C.ok starved);
  let full = C.certify w r in
  Alcotest.(check (list (pair string string))) "proved with budget" [] full.C.unproved;
  Alcotest.(check bool) "optimality passed" true
    (List.mem "optimality (DRUP-checked)" full.C.passed)

let test_certify_rejects_truncated_proof () =
  (* Solve honestly; sabotage the refutation log the certifier replays.
     A checker that accepted this would accept an unsound "proof". *)
  let w = paper_wcnf () in
  let r = M.solve_supervised M.Msu4_v2 w in
  with_fault F.Drop_core_clause (fun () ->
      let report = C.certify w r in
      Alcotest.(check bool) "truncated proof rejected" false (C.ok report));
  (* and the same result certifies once the log is honest again *)
  Alcotest.(check bool) "clean replay accepted" true (C.ok (C.certify w r))

let test_crash_salvages_bounds () =
  with_fault F.Crash_mid_solve (fun () ->
      let w = paper_wcnf () in
      let r = M.solve_supervised M.Msu4_v2 w in
      match r.T.outcome with
      | T.Crashed { reason; lb; ub } ->
          Alcotest.(check string) "reason" "stack overflow" reason;
          Alcotest.(check bool) "lb sound" true (lb <= 2);
          (match ub with
          | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
          | None -> Alcotest.fail "published upper bound lost");
          Alcotest.(check bool) "crashed result certifies" true (C.ok (C.certify w r))
      | o -> Alcotest.failf "expected Crashed, got %s" (Format.asprintf "%a" T.pp_outcome o))

(* ---------------- hardened runner ---------------- *)

let test_runner_retries_crash () =
  with_fault F.Crash_mid_solve (fun () ->
      let retry = { R.max_attempts = 2; retry_conflict_budget = None } in
      let r = R.run_one ~retry ~timeout:10.0 M.Msu4_v2 ("paper", "toy", paper_wcnf ()) in
      (* the fault is one-shot: attempt 1 crashes, attempt 2 solves *)
      Alcotest.(check bool) "second attempt solved" true (r.R.outcome = R.Solved 2))

let test_runner_isolated_solve () =
  let r =
    R.run_one ~isolate:true ~timeout:10.0 M.Msu4_v2 ("paper", "toy", paper_wcnf ())
  in
  Alcotest.(check bool) "solved across the fork" true (r.R.outcome = R.Solved 2)

let test_isolated_suite_survives_crashes () =
  (* Each forked child inherits the armed fault and dies mid-solve; the
     parent's suite must still complete.  On this instance the child has
     already certified lb = ub = 2 by the time the crash fires, and the
     checkpoint pipe carries the bracket and its model across the fork —
     so the salvage collapses the crash into a verified Solved 2. *)
  with_fault F.Crash_mid_solve (fun () ->
      let instances =
        [ ("paper", "toy", paper_wcnf ()); ("paper2", "toy", paper_wcnf ()) ]
      in
      let runs =
        R.run_suite ~isolate:true ~timeout:10.0 ~algorithms:[ M.Msu4_v2 ] instances
      in
      Alcotest.(check int) "suite completed" 2 (List.length runs);
      List.iter
        (fun r ->
          match r.R.outcome with
          | R.Solved c ->
              Alcotest.(check int) "checkpoint salvage proved the optimum" 2 c
          | R.Aborted { why = R.Crash _; ub = Some u; _ } ->
              Alcotest.(check bool) "salvaged ub crossed the fork" true (u >= 2)
          | R.Aborted { why = R.Crash _; ub = None; _ } ->
              Alcotest.fail "bounds lost in the crash report"
          | _ -> Alcotest.fail "expected a crash abort or salvaged solve")
        runs)

(* ---------------- warm-resume checkpoints ---------------- *)

module Ck = Msu_guard.Checkpoint

module Frame = Msu_frame.Frame

let test_checkpoint_wire () =
  let ck = { Ck.lb = 3; ub = Some 5; model = Some [| true; false; true |] } in
  let frame = Bytes.to_string (Ck.frame ck) in
  let decode s = Option.map (fun (f, _) -> Ck.of_frame f) (Frame.parse s 0) in
  Alcotest.(check bool) "round-trips" true (decode frame = Some ck);
  (* flipping one model bit breaks the digest *)
  let corrupt = Bytes.of_string frame in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  Alcotest.(check bool) "bit flip rejected" true
    (match decode (Bytes.to_string corrupt) with
    | _ -> false
    | exception Frame.Malformed _ -> true);
  Alcotest.(check bool) "short frame is not a frame yet" true
    (decode (String.sub frame 0 (String.length frame - 1)) = None);
  Alcotest.(check bool) "garbage rejected" true
    (match decode "hello world" with _ -> false | exception Frame.Malformed _ -> true);
  (* a whole frame whose bracket is crossed decodes to nothing *)
  let crossed = Ck.frame { Ck.lb = 6; ub = Some 5; model = None } in
  Alcotest.(check bool) "crossed bracket rejected" true
    (match decode (Bytes.to_string crossed) with
    | _ -> false
    | exception Frame.Malformed _ -> true)

(* The frames read from a nonblocking pipe so far, decoded. *)
let read_brackets reader fd =
  let got = ref [] in
  ignore (Frame.drain reader fd (fun f -> got := Ck.of_frame f :: !got) : bool);
  List.rev !got

let test_checkpoint_reader_keeps_intact () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
  let reader = Frame.reader () in
  let send b = ignore (Unix.write w b 0 (Bytes.length b)) in
  let a = { Ck.empty with Ck.lb = 1; ub = Some 4 } in
  let b = { a with Ck.lb = 2 } in
  send (Ck.frame a);
  Alcotest.(check bool) "first frame lands" true (read_brackets reader r = [ a ]);
  send (Ck.frame b);
  Alcotest.(check bool) "next frame lands" true (read_brackets reader r = [ b ]);
  (* a frame torn mid-write stays buffered, never decoded... *)
  let c = { b with Ck.lb = 3 } in
  let fc = Ck.frame c in
  let half = Bytes.length fc / 2 in
  ignore (Unix.write w fc 0 half);
  Alcotest.(check bool) "torn frame not delivered" true (read_brackets reader r = []);
  Alcotest.(check int) "torn bytes pending" half (Frame.pending reader);
  (* ...and completes when the rest arrives *)
  ignore (Unix.write w fc half (Bytes.length fc - half));
  Alcotest.(check bool) "stream recovers" true (read_brackets reader r = [ c ]);
  Alcotest.(check int) "nothing pending" 0 (Frame.pending reader)

let test_checkpoint_merge () =
  let a = { Ck.lb = 2; ub = Some 5; model = Some [| true |] } in
  let b = { Ck.lb = 3; ub = Some 6; model = Some [| false |] } in
  let m = Ck.merge a b in
  Alcotest.(check int) "max lb" 3 m.Ck.lb;
  Alcotest.(check bool) "min ub" true (m.Ck.ub = Some 5);
  Alcotest.(check bool) "model follows the winning ub" true
    (m.Ck.model = Some [| true |]);
  (* an ub tie keeps whichever side actually holds the incumbent *)
  let bare = { Ck.lb = 0; ub = Some 5; model = None } in
  Alcotest.(check bool) "tie keeps the model" true
    ((Ck.merge a bare).Ck.model = Some [| true |]
    && (Ck.merge bare a).Ck.model = Some [| true |])

(* The ticker fires on every 64th guard poll, but the bounds move only
   when a SAT call ends: the writer sends one frame per change, and a
   tick that finds the cell unchanged allocates nothing. *)
let test_checkpoint_writer_once_per_change () =
  let r, w = Unix.pipe () in
  (* Non-blocking on both ends: a writer that sent a frame per tick
     would fill the pipe and fail with EAGAIN instead of hanging. *)
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let reader = Frame.reader () in
  (* The whole frames written since the last call. *)
  let frames () = read_brackets reader r in
  let cell = G.Progress.create () in
  let tick = Ck.writer w cell in
  let ticks n =
    for _ = 1 to n do
      tick ()
    done
  in
  ticks 10_000;
  Alcotest.(check int) "an empty cell writes nothing" 0 (List.length (frames ()));
  let one_frame what =
    ticks 10_000;
    match frames () with
    | [ ck ] ->
        Alcotest.(check bool)
          (what ^ ": the frame decodes to the cell")
          true
          (ck = Ck.of_cell cell)
    | cks ->
        Alcotest.failf "%s: %d frames in 10000 ticks, expected 1" what
          (List.length cks)
  in
  G.Progress.note_lb cell 1;
  one_frame "first lb";
  G.Progress.note_lb cell 2;
  one_frame "lb raise";
  G.Progress.note_ub cell 9 (Some [| true; false; true |]);
  one_frame "first ub with a model";
  G.Progress.note_ub cell 7 (Some [| false; true; true |]);
  one_frame "ub drop with a model";
  G.Progress.note_lb cell 4;
  G.Progress.note_ub cell 5 (Some [| true; true; false |]);
  one_frame "lb raise and ub drop between two ticks";
  (* Bounds that do not improve leave the cell, and the stream, as is. *)
  G.Progress.note_lb cell 1;
  G.Progress.note_ub cell 6 (Some [| false; false; false |]);
  let before = Gc.minor_words () in
  ticks 10_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "an unchanged cell writes nothing" 0 (List.length (frames ()));
  Alcotest.(check bool)
    (Printf.sprintf "10000 unchanged ticks allocate nothing (%.0f words)" words)
    true (words < 64.);
  (* A parent that went away ends the stream without raising. *)
  Unix.close r;
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe previous;
      Unix.close w)
    (fun () ->
      G.Progress.note_lb cell 5;
      tick ();
      G.Progress.note_ub cell 5 (Some [| true; false; false |]);
      tick ())

(* The Torn_checkpoint fault SIGKILLs the worker halfway through a
   frame — after at least one intact frame went out.  Whatever the
   parent salvages must come from an intact frame, so the run either
   solves (collapsed bracket) or aborts with a sound bracket; a torn
   tail must never surface as bounds. *)
let test_torn_checkpoint_crash () =
  with_fault F.Torn_checkpoint (fun () ->
      let retry = { R.max_attempts = 2; retry_conflict_budget = None } in
      let r =
        R.run_one ~isolate:true ~retry ~timeout:10.0 M.Msu4_v2
          ("paper", "toy", paper_wcnf ())
      in
      match r.R.outcome with
      | R.Solved c -> Alcotest.(check int) "optimum" 2 c
      | R.Aborted { why = R.Crash _; lb; ub } ->
          Alcotest.(check bool) "an intact frame crossed the torn stream" true
            (lb > 0 || ub <> None);
          Alcotest.(check bool) "lb sound" true (lb <= 2);
          (match ub with
          | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
          | None -> ())
      | o ->
          Alcotest.failf "expected solve or crash abort, got %s"
            (match o with
            | R.Aborted { why; _ } -> R.abort_reason_to_string why
            | R.Unsat_hard -> "hard-unsat"
            | R.Solved _ -> "solved"))

(* Warm resume must measurably reuse checkpointed progress: seeding a
   fresh linear-search solve with the certified bracket of a finished
   one turns the descent into a single UNSAT probe. *)
let test_warm_resume_reuses_progress () =
  let w = paper_wcnf () in
  let cold = M.solve_supervised M.Pbo_linear w in
  match (cold.T.outcome, cold.T.model) with
  | T.Optimum opt, Some model ->
      let ck = { Ck.lb = opt; ub = Some opt; model = Some model } in
      let config = { T.default_config with T.resume = Some ck } in
      let warm = M.solve_supervised ~config M.Pbo_linear w in
      (match warm.T.outcome with
      | T.Optimum c -> Alcotest.(check int) "warm optimum agrees" opt c
      | o -> Alcotest.failf "warm run: %s" (Format.asprintf "%a" T.pp_outcome o));
      Alcotest.(check bool)
        (Printf.sprintf "warm run does less SAT work (%d < %d)"
           warm.T.stats.T.sat_calls cold.T.stats.T.sat_calls)
        true
        (warm.T.stats.T.sat_calls < cold.T.stats.T.sat_calls)
  | _ -> Alcotest.fail "cold pbo solve did not reach the optimum"

let test_runner_budget_abort_reason () =
  let w = Wcnf.of_formula (pigeonhole 4) in
  let r = R.run_one ~conflict_budget:1 ~timeout:10.0 M.Msu4_v2 ("php4", "php", w) in
  match r.R.outcome with
  | R.Aborted { why = R.Out_of_conflicts; _ } -> ()
  | R.Solved _ -> Alcotest.fail "php4 cannot be solved in one conflict"
  | o ->
      Alcotest.failf "expected conflict abort, got %s"
        (match o with
        | R.Aborted { why; _ } -> R.abort_reason_to_string why
        | R.Unsat_hard -> "hard-unsat"
        | R.Solved _ -> "solved")

let suite =
  [
    Alcotest.test_case "guard conflict budget" `Quick test_guard_conflicts_trip;
    Alcotest.test_case "guard deadline" `Quick test_guard_deadline_trip;
    Alcotest.test_case "guard check raises" `Quick test_guard_check_raises;
    Alcotest.test_case "progress cell monotone" `Quick test_progress_monotone;
    Alcotest.test_case "supervise exception policy" `Quick test_supervise;
    Alcotest.test_case "budget soundness, all algorithms" `Quick test_budget_soundness;
    Alcotest.test_case "certifier accepts clean runs" `Quick test_certify_clean_runs;
    Alcotest.test_case "certifier rejects corrupt model" `Quick
      test_certify_rejects_corrupt_model;
    Alcotest.test_case "certifier rejects flipped answer" `Quick
      test_certify_rejects_flipped_answer;
    Alcotest.test_case "certifier rejects truncated proof" `Quick
      test_certify_rejects_truncated_proof;
    Alcotest.test_case "certifier: budget-out probe is unproved" `Quick
      test_certify_budget_out_unproved;
    Alcotest.test_case "crash salvages bounds" `Quick test_crash_salvages_bounds;
    Alcotest.test_case "checkpoint wire codec" `Quick test_checkpoint_wire;
    Alcotest.test_case "checkpoint reader keeps intact frames" `Quick
      test_checkpoint_reader_keeps_intact;
    Alcotest.test_case "checkpoint merge" `Quick test_checkpoint_merge;
    Alcotest.test_case "checkpoint writer publishes once per change" `Quick
      test_checkpoint_writer_once_per_change;
    Alcotest.test_case "torn checkpoint frame" `Quick test_torn_checkpoint_crash;
    Alcotest.test_case "warm resume reuses progress" `Quick
      test_warm_resume_reuses_progress;
    Alcotest.test_case "runner retries a crash" `Quick test_runner_retries_crash;
    Alcotest.test_case "runner isolated solve" `Quick test_runner_isolated_solve;
    Alcotest.test_case "isolated suite survives crashes" `Quick
      test_isolated_suite_survives_crashes;
    Alcotest.test_case "runner classifies budget aborts" `Quick
      test_runner_budget_abort_reason;
  ]
