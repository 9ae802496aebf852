module Wcnf = Msu_cnf.Wcnf
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module P = Msu_portfolio.Portfolio
module Fault = Msu_guard.Fault
open Test_util

let wcnf_of_clauses ?(hard = []) n_vars soft =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  List.iter (fun c -> Wcnf.add_hard w (clause c)) hard;
  List.iter (fun c -> ignore (Wcnf.add_soft w (clause c))) soft;
  w

(* The paper's Example 2: optimum cost 2. *)
let example2 () =
  wcnf_of_clauses 4
    [ [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ] ]

let random_wcnf st =
  let n_vars = 3 + Random.State.int st 6 in
  let n_clauses = 4 + Random.State.int st 18 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w n_vars;
  for _ = 1 to n_clauses do
    let len = 1 + Random.State.int st 3 in
    let c =
      Array.init len (fun _ ->
          Msu_cnf.Lit.make (Random.State.int st n_vars) (Random.State.bool st))
    in
    if Random.State.int st 6 = 0 then Wcnf.add_hard w c
    else ignore (Wcnf.add_soft w c)
  done;
  w

let check_against_reference name w (pr : P.result) =
  Alcotest.(check (list string)) (name ^ ": no disagreements") [] pr.P.disagreements;
  let r = P.to_result pr in
  Alcotest.(check bool) (name ^ ": model verifies") true (T.verify_model w r);
  match (pr.P.outcome, Wcnf.brute_force_min_cost w) with
  | T.Optimum c, Some e ->
      Alcotest.(check int) (name ^ ": optimum matches brute force") e c
  | T.Hard_unsat, None -> ()
  | o, e ->
      Alcotest.failf "%s: portfolio says %a, brute force says %s" name T.pp_outcome o
        (match e with Some c -> string_of_int c | None -> "hard-unsat")

(* Mode equivalence: the portfolio proves the same optimum as brute
   force (and hence as every sequential algorithm, which test_maxsat
   pins to brute force) on paper examples and random instances across
   seeds. *)
let test_matches_brute_force () =
  check_against_reference "example2" (example2 ())
    (P.solve ~jobs:4 (example2 ()));
  let w = wcnf_of_clauses 1 [ [ 1 ]; [ -1 ] ] in
  check_against_reference "contradiction" w (P.solve ~jobs:4 w);
  let w = wcnf_of_clauses ~hard:[ [ 1 ] ] 2 [ [ -1 ]; [ 2 ]; [ -2 ] ] in
  check_against_reference "partial" w (P.solve ~jobs:4 w);
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for round = 1 to 6 do
        let w = random_wcnf st in
        let name = Printf.sprintf "seed %d round %d" seed round in
        check_against_reference name w (P.solve ~jobs:3 w)
      done)
    [ 11; 42 ]

(* Every single-worker portfolio agrees too: the spec plumbing
   (algorithm, encoding) reaches the worker intact. *)
let test_singleton_specs_agree () =
  let w = example2 () in
  List.iter
    (fun sp ->
      let pr = P.solve ~specs:[ sp ] w in
      match pr.P.outcome with
      | T.Optimum 2 ->
          Alcotest.(check bool)
            (sp.P.label ^ " model verifies")
            true
            (T.verify_model w (P.to_result pr))
      | o -> Alcotest.failf "%s: %a" sp.P.label T.pp_outcome o)
    [
      P.spec M.Msu4_v2;
      P.spec M.Msu3;
      P.spec M.Oll;
      P.spec M.Msu4_v1;
      P.spec ~encoding:Msu_card.Card.Totalizer M.Msu3;
    ]

(* A crashing worker must not poison the race: the survivor decides and
   the optimum is unchanged.  The sabotage fires at the faulted worker's
   first incumbent, so that worker can never report an optimum — but
   whether it reaches its first incumbent before the survivor's win
   cancels it is a genuine race, so its report is either Crashed (the
   fault fired) or Bounds (cancelled first). *)
let test_injected_worker_crash () =
  let w = example2 () in
  let pr =
    P.solve
      ~specs:[ P.spec ~fault:Fault.Crash_mid_solve M.Msu4_v2; P.spec M.Msu3 ]
      w
  in
  Alcotest.(check (list string)) "no disagreements" [] pr.P.disagreements;
  (match pr.P.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "expected optimum 2, got %a" T.pp_outcome o);
  Alcotest.(check bool) "model verifies" true (T.verify_model w (P.to_result pr));
  let faulted =
    List.find (fun rep -> rep.P.w_algorithm = M.Msu4_v2) pr.P.reports
  in
  match faulted.P.w_outcome with
  | T.Crashed _ | T.Bounds _ -> ()
  | o ->
      Alcotest.failf "faulted worker must never decide, reported %a"
        T.pp_outcome o

(* All workers crashing yields a Crashed outcome that still carries the
   bounds (and, cost permitting, the model) salvaged before the crash.
   One worker makes this deterministic; with several, a worker that
   crashes *after* publishing its bound can legitimately let the rest
   finish early through bound sharing (covered below). *)
let test_all_workers_crash () =
  let w = example2 () in
  let pr = P.solve ~specs:[ P.spec ~fault:Fault.Crash_mid_solve M.Msu4_v2 ] w in
  match pr.P.outcome with
  | T.Crashed { lb; ub; _ } ->
      Alcotest.(check bool) "lb sound" true (lb <= 2);
      (match ub with
      | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
      | None -> ());
      Alcotest.(check bool) "model still verifies" true
        (T.verify_model w (P.to_result pr))
  | o -> Alcotest.failf "expected crashed, got %a" T.pp_outcome o

(* Kill_mid_solve: the worker writes a whole bound frame, is SIGKILLed
   and leaves no result.  The only source of its bound is that frame;
   it must still reach the merge. *)
let test_killed_worker_bound_reaches_merge () =
  let w = example2 () in
  let pr = P.solve ~specs:[ P.spec ~fault:Fault.Kill_mid_solve M.Msu4_v2 ] w in
  (match (List.hd pr.P.reports).P.w_outcome with
  | T.Crashed _ -> ()
  | o -> Alcotest.failf "the killed worker reported %a" T.pp_outcome o);
  Alcotest.(check bool) "the frame's ub reached the merge" true (pr.P.ub <> None);
  (match pr.P.ub with
  | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
  | None -> ());
  Alcotest.(check bool) "lb sound" true (pr.P.lb <= 2);
  Alcotest.(check bool) "model verifies" true (T.verify_model w (P.to_result pr))

(* Torn_checkpoint: the worker writes half a bound frame after a whole
   one and dies.  The whole one counts; the torn one never decodes. *)
let test_torn_bound_frame_keeps_whole_one () =
  let w = example2 () in
  let pr = P.solve ~specs:[ P.spec ~fault:Fault.Torn_checkpoint M.Msu3 ] w in
  (match pr.P.outcome with
  | T.Crashed { lb; ub; _ } ->
      Alcotest.(check bool) "a whole frame crossed the torn stream" true
        (lb > 0 || ub <> None);
      Alcotest.(check bool) "lb sound" true (lb <= 2);
      (match ub with
      | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
      | None -> ())
  | o -> Alcotest.failf "expected crashed, got %a" T.pp_outcome o);
  Alcotest.(check bool) "model verifies" true (T.verify_model w (P.to_result pr))

(* Every worker faulted: the race between crash-salvage and bound
   sharing may still assemble the optimum (a worker that crashed after
   publishing ub=2 seeds the survivors' early exit); whatever happens,
   the result must be sound and certified. *)
let test_every_worker_faulted_sound () =
  let w = example2 () in
  let pr =
    P.solve
      ~specs:
        [
          P.spec ~fault:Fault.Crash_mid_solve M.Msu4_v2;
          P.spec ~fault:Fault.Crash_mid_solve M.Msu3;
        ]
      w
  in
  Alcotest.(check (list string)) "no disagreements" [] pr.P.disagreements;
  Alcotest.(check bool) "model verifies" true (T.verify_model w (P.to_result pr));
  match pr.P.outcome with
  | T.Optimum c -> Alcotest.(check int) "optimum exact" 2 c
  | T.Bounds { lb; ub } | T.Crashed { lb; ub; _ } ->
      Alcotest.(check bool) "lb sound" true (lb <= 2);
      (match ub with
      | Some u -> Alcotest.(check bool) "ub sound" true (u >= 2)
      | None -> ())
  | T.Hard_unsat -> Alcotest.fail "example2 is not hard-unsat"

let test_hard_unsat () =
  let w = wcnf_of_clauses ~hard:[ [ 1 ]; [ -1 ] ] 1 [ [ 1 ] ] in
  let pr = P.solve ~jobs:3 w in
  match pr.P.outcome with
  | T.Hard_unsat -> ()
  | o -> Alcotest.failf "expected hard-unsat, got %a" T.pp_outcome o

(* Timeout: every worker runs out of budget, and the merged result keeps
   the best bounds any of them published — the portfolio version of the
   lost-partial-bounds bugfix. *)
let test_timeout_merges_partial_bounds () =
  (* PHP(6,5) as plain MaxSAT: 30 vars, branch and bound cannot finish
     in the budget, the core-guided worker publishes lower bounds
     quickly. *)
  let w = Wcnf.of_formula (pigeonhole 5) in
  let pr =
    P.solve
      ~specs:[ P.spec M.Msu3; P.spec M.Branch_bound ]
      ~timeout:0.5 ~grace:0.2 w
  in
  Alcotest.(check (list string)) "no disagreements" [] pr.P.disagreements;
  (match pr.P.outcome with
  | T.Bounds { lb; _ } ->
      Alcotest.(check bool) "a worker's partial lb survives" true (lb >= 1)
  | T.Optimum c ->
      (* a fast machine may actually finish *)
      Alcotest.(check bool) "optimum sound" true (c >= 1)
  | o -> Alcotest.failf "expected bounds, got %a" T.pp_outcome o);
  (* The merged bracket is at least as tight as every worker's own. *)
  List.iter
    (fun rep ->
      let lb, _ = T.outcome_bounds rep.P.w_outcome in
      Alcotest.(check bool)
        (rep.P.w_label ^ " lb folded into the merge")
        true (pr.P.lb >= lb))
    pr.P.reports

(* ---------------- frame hardening ---------------- *)

module Frame = Msu_frame.Frame
module Ck = Msu_guard.Checkpoint

let parse_one s =
  match Frame.parse s 0 with Some (f, _) -> Some f | None -> None

let clause_frame (lbd, lits) =
  Bytes.to_string (Frame.encode Frame.Clause P.clause_codec (lbd, lits))

let decode_clause s =
  Option.map (Frame.decode Frame.Clause P.clause_codec) (parse_one s)

let decode_bracket s = Option.map Ck.of_frame (parse_one s)

(* Valid frames round-trip; the decoders reconstruct exactly what the
   encoders wrote. *)
let test_wire_round_trip () =
  List.iter
    (fun (lb, ub, model) ->
      let ck = { Ck.lb; ub; model } in
      Alcotest.(check bool) "bracket survives" true
        (decode_bracket (Bytes.to_string (Ck.frame ck)) = Some ck))
    [
      (0, None, None);
      (0, Some 0, None);
      (3, Some 7, Some [| true; false; true; true |]);
      (5, Some 5, Some [| true |]);
    ];
  List.iter
    (fun (lbd, lits) ->
      match decode_clause (clause_frame (lbd, lits)) with
      | Some (lbd', lits') ->
          Alcotest.(check int) "lbd survives" lbd lbd';
          Alcotest.(check (array int)) "lits survive" lits lits'
      | None -> Alcotest.fail "clause frame incomplete")
    [ (1, [| 4 |]); (2, [| 0; 3; 7 |]); (4, [| 10; 11; 12; 13; 14; 15; 16; 17 |]) ]

(* Malformed frames must be dropped, never installed or raised on as
   anything but the codec's own exception: torn frames, flipped bytes,
   crossed brackets, empty or oversized clauses, frames of another
   kind. *)
let test_wire_rejects_malformed () =
  let rejected what f =
    match f () with
    | None -> ()
    | Some _ -> Alcotest.failf "%s decoded" what
    | exception Frame.Malformed _ -> ()
  in
  let good = Bytes.to_string (Ck.frame { Ck.lb = 2; ub = Some 4; model = None }) in
  rejected "torn bracket" (fun () -> decode_bracket (String.sub good 0 (String.length good - 1)));
  let flipped = Bytes.of_string good in
  Bytes.set flipped (Bytes.length flipped - 1) '\xff';
  rejected "flipped bracket" (fun () -> decode_bracket (Bytes.to_string flipped));
  rejected "crossed bracket" (fun () ->
      decode_bracket (Bytes.to_string (Ck.frame { Ck.lb = 3; ub = Some 2; model = None })));
  rejected "negative lb" (fun () ->
      let neg = Frame.encode Frame.Bracket (Frame.pair Frame.int Frame.bool) (-1, false) in
      decode_bracket (Bytes.to_string neg));
  rejected "clause as bracket" (fun () -> decode_bracket (clause_frame (2, [| 4 |])));
  rejected "empty clause" (fun () -> decode_clause (clause_frame (2, [||])));
  rejected "oversized clause" (fun () -> decode_clause (clause_frame (2, Array.init 80 Fun.id)));
  rejected "garbage" (fun () -> decode_clause "hello, world: not a frame at all")

(* Random fuzz: no byte string, however corrupt, may raise anything but
   the codec's exception or decode out of range. *)
let test_wire_fuzz () =
  let st = Random.State.make [| 0xF022 |] in
  let good = Bytes.to_string (Ck.frame { Ck.lb = 2; ub = Some 4; model = Some [| true |] }) in
  for _ = 1 to 2000 do
    let s =
      if Random.State.bool st then
        String.init (Random.State.int st 60) (fun _ -> Char.chr (Random.State.int st 256))
      else
        String.mapi
          (fun i c -> if Random.State.int st 8 = 0 && i > 3 then Char.chr (Random.State.int st 256) else c)
          good
    in
    (match decode_bracket s with
    | Some { Ck.lb; ub; _ } ->
        Alcotest.(check bool) "bracket ordered" true
          (0 <= lb && match ub with Some u -> lb <= u | None -> true)
    | None | (exception (Frame.Malformed _ | Frame.Version_mismatch _)) -> ());
    match decode_clause s with
    | Some (lbd, lits) ->
        Alcotest.(check bool) "lbd nonneg" true (lbd >= 0);
        Alcotest.(check bool) "lits nonneg" true (Array.for_all (fun l -> l >= 0) lits)
    | None | (exception (Frame.Malformed _ | Frame.Version_mismatch _)) -> ()
  done

(* A worker's bound stream as its ticker would write it with its own
   sent-bound bookkeeping, before it went through the cell's shared
   change gate: a snapshot whenever lb rose or ub fell, none for an
   empty cell. *)
let reference_publish write cell =
  let module G = Msu_guard.Guard in
  let sent_lb = ref (-1) and sent_ub = ref max_int in
  fun () ->
    let lb = G.Progress.lb cell and ub = G.Progress.ub cell in
    let ub_fell = match ub with Some u -> u < !sent_ub | None -> false in
    if lb > !sent_lb || ub_fell then begin
      sent_lb := lb;
      (match ub with Some u -> sent_ub := u | None -> ());
      let c = Ck.of_cell cell in
      if not (Ck.is_empty c) then write c
    end

(* Random runs of sound bound notes (improving or not, ub with or
   without a model) and ticks: the gated writer's bracket frames decode
   to the same snapshots in the same order. *)
let prop_publisher_matches_reference =
  QCheck.Test.make ~name:"bound lines match the reference publisher" ~count:500
    QCheck.int (fun seed ->
      let module G = Msu_guard.Guard in
      let st = Random.State.make [| seed |] in
      let cell = G.Progress.create () in
      let r, w = Unix.pipe () in
      Unix.set_nonblock r;
      Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
      let want = ref [] in
      let publish = Ck.writer w cell in
      let reference = reference_publish (fun c -> want := c :: !want) cell in
      let tick () =
        publish ();
        reference ()
      in
      (* Sound bounds, as a solve publishes them: a lower bound never
         above the upper one, improving or not. *)
      for _ = 1 to Random.State.int st 40 do
        let ub = Option.value (G.Progress.ub cell) ~default:30 in
        (match Random.State.int st 4 with
        | 0 -> G.Progress.note_lb cell (Random.State.int st (ub + 1))
        | 1 ->
            let lb = G.Progress.lb cell in
            G.Progress.note_ub cell
              (lb + Random.State.int st (31 - lb))
              (if Random.State.bool st then
                 Some (Array.init 3 (fun _ -> Random.State.bool st))
               else None)
        | _ -> ());
        if Random.State.bool st then tick ()
      done;
      tick ();
      let got = ref [] in
      ignore (Frame.drain (Frame.reader ()) r (fun f -> got := Ck.of_frame f :: !got) : bool);
      !got = !want)

(* ---------------- clause sharing ---------------- *)

(* Sharing forced on: the portfolio still proves exactly the brute-force
   optimum across seeds.  This is the end-to-end soundness oracle for
   export taint, wire transport, parent validation and import. *)
let test_sharing_matches_brute_force () =
  let w = example2 () in
  check_against_reference "example2+sharing" w
    (P.solve ~jobs:4 ~share_clauses:true w);
  check_against_reference "example2+sharing+sls" w
    (P.solve ~jobs:3 ~share_clauses:true ~sls_worker:true w);
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for round = 1 to 5 do
        let w = random_wcnf st in
        let name = Printf.sprintf "sharing seed %d round %d" seed round in
        check_against_reference name w
          (P.solve ~jobs:3 ~share_clauses:true ~sls_worker:true w)
      done)
    [ 7; 23 ]

(* Observability oracle: every clause accepted into the shared pool is
   announced as exactly one Clause_shared event, and the parent-side
   counter agrees with the event stream. *)
let test_sharing_events_match_metrics () =
  let shared_counter =
    Msu_obs.Obs.Metrics.counter "msu_shared_clauses_total"
  in
  let before = Msu_obs.Obs.Metrics.counter_value shared_counter in
  let events = ref 0 in
  let sink =
    Msu_obs.Obs.of_fn (fun ev ->
        match ev.Msu_obs.Obs.Event.kind with
        | Msu_obs.Obs.Event.Clause_shared _ -> incr events
        | _ -> ())
  in
  (* php keeps the workers busy long enough to learn something worth
     exporting; correctness of the result is still checked. *)
  let w = Wcnf.of_formula (pigeonhole 4) in
  let pr = P.solve ~specs:[ P.spec M.Msu3; P.spec M.Msu4_v2 ] ~share_clauses:true ~sink w in
  Alcotest.(check (list string)) "no disagreements" [] pr.P.disagreements;
  let after = Msu_obs.Obs.Metrics.counter_value shared_counter in
  Alcotest.(check int) "Clause_shared events == accepted clauses" (after - before)
    !events

(* ---------------- adversarial imports ---------------- *)

module Solver = Msu_sat.Solver
module Lit = Msu_cnf.Lit

(* import_clause hardening: duplicates, units, satisfied clauses and
   clauses over fresh variables all attach without corrupting the
   solver; an all-false import refutes the solver (level-0 conflict). *)
let test_import_clause_adversarial () =
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Solver.add_clause s (clause [ 1; 2 ]);
  Solver.add_clause s (clause [ -1; 3 ]);
  (* Implied clause with a duplicate literal. *)
  Solver.import_clause s (clause [ 2; 3; 3; 2 ]);
  (* Tautology: dropped, not attached. *)
  Solver.import_clause s (clause [ 1; -1 ]);
  (* Unit import. *)
  Solver.import_clause s (clause [ 1 ]);
  (* Import over variables the solver has never seen. *)
  Solver.import_clause s (clause [ 7; -8 ]);
  Alcotest.(check bool) "still consistent" true (Solver.okay s);
  Alcotest.(check bool) "sat with imports" true (Solver.solve s = Solver.Sat);
  Alcotest.(check int) "imports counted" 3 (Solver.imported_clauses s);
  (* A falsified import at level 0 refutes the solver. *)
  let s2 = Solver.create () in
  Solver.ensure_vars s2 1;
  Solver.add_clause s2 (clause [ 1 ]);
  ignore (Solver.solve s2);
  Solver.import_clause s2 (clause [ -1 ]);
  Alcotest.(check bool) "conflicting import refutes" true
    (Solver.solve s2 = Solver.Unsat);
  (* With a DRUP log attached, imports are refused: a foreign clause
     would invalidate the certificate. *)
  let s3 = Solver.create () in
  let log = Msu_sat.Drup.create () in
  Solver.set_drup s3 log;
  Solver.ensure_vars s3 2;
  Solver.add_clause s3 (clause [ 1; 2 ]);
  Solver.import_clause s3 (clause [ 1 ]);
  Alcotest.(check int) "import refused under drup" 0 (Solver.imported_clauses s3)

(* Export taint: learnts derived purely from shareable clauses are
   offered to the hook; derivations through selector-guarded clauses
   never are. *)
let test_export_taint () =
  (* Unsatisfiable core among shareable clauses: every learnt is safe. *)
  let exported = ref [] in
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Solver.on_export s (fun ~lbd:_ lits -> exported := Array.copy lits :: !exported);
  List.iter
    (fun c -> Solver.add_clause ~shareable:true s (clause c))
    [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ];
  ignore (Solver.solve s);
  (* Each export must be implied by the shareable clauses alone: here
     the whole formula is unsat, so any clause is implied; the point is
     the mechanism fires. *)
  Alcotest.(check bool) "exports offered" true
    (Solver.exported_clauses s = List.length !exported);
  (* Same core, but reached through selector-guarded clauses: nothing
     derived from them may leak. *)
  let exported2 = ref 0 in
  let s2 = Solver.create () in
  Solver.ensure_vars s2 3;
  Solver.on_export s2 (fun ~lbd:_ _ -> incr exported2);
  let sel1 = Lit.pos (Solver.new_var s2) in
  let sel2 = Lit.pos (Solver.new_var s2) in
  Solver.add_clause ~selector:sel1 s2 (clause [ 1; 2 ]);
  Solver.add_clause ~selector:sel1 s2 (clause [ 1; -2 ]);
  Solver.add_clause ~selector:sel2 s2 (clause [ -1; 2 ]);
  Solver.add_clause ~selector:sel2 s2 (clause [ -1; -2 ]);
  ignore
    (Solver.solve ~assumptions:[| Lit.neg sel1; Lit.neg sel2 |] s2);
  Alcotest.(check int) "selector-tainted learnts never exported" 0 !exported2

(* ---------------- sls determinism ---------------- *)

module Ls = Msu_maxsat.Local_search

(* Local search owns its Random.State: reseeding the global generator
   between runs must not change the trajectory. *)
let test_sls_deterministic () =
  let w = example2 () in
  let run () = Ls.solve ~max_flips:5_000 ~seed:17 w in
  let r1 = run () in
  Random.self_init ();
  ignore (Random.bits ());
  let r2 = run () in
  (match (r1.T.outcome, r2.T.outcome) with
  | T.Optimum a, T.Optimum b -> Alcotest.(check int) "same outcome" a b
  | T.Bounds { ub = ua; _ }, T.Bounds { ub = ub'; _ } ->
      Alcotest.(check (option int)) "same ub" ua ub'
  | a, b -> Alcotest.failf "outcomes diverge: %a vs %a" T.pp_outcome a T.pp_outcome b);
  Alcotest.(check (option (array bool)))
    "same model bit for bit" r1.T.model r2.T.model

(* default_specs: labels are distinct and the requested count is
   honoured up to the diversity cap. *)
let test_default_specs () =
  let specs = P.default_specs 4 in
  Alcotest.(check int) "four specs" 4 (List.length specs);
  let labels = List.map (fun sp -> sp.P.label) specs in
  Alcotest.(check int) "labels distinct" 4
    (List.length (List.sort_uniq compare labels));
  Alcotest.(check bool) "cap holds" true (List.length (P.default_specs 99) <= 16)

(* Every default spec must run its own search.  A worker is its
   algorithm run under the spec's encoding, so two specs that report
   identical stats on every instance race the same search twice, as
   msu4-v1 would next to msu4-v2 (msu4 never reads the encoding).
   Unit-weight instances, so every algorithm can run. *)
let test_default_specs_distinct () =
  let st = Random.State.make [| 0x5EC5 |] in
  let instances = List.init 4 (fun _ -> random_wcnf st) in
  let runs =
    List.map
      (fun sp ->
        let config = { T.default_config with T.encoding = sp.P.encoding } in
        let stats w = (M.solve ~config sp.P.algorithm w).T.stats in
        (sp.P.label, List.map stats instances))
      (P.default_specs 12)
  in
  List.iteri
    (fun i (a, stats_a) ->
      List.iteri
        (fun j (b, stats_b) ->
          if i < j && stats_a = stats_b then
            Alcotest.failf "%s and %s report identical stats on every instance" a b)
        runs)
    runs

let suite =
  [
    Alcotest.test_case "portfolio matches brute force" `Quick test_matches_brute_force;
    Alcotest.test_case "singleton specs agree" `Quick test_singleton_specs_agree;
    Alcotest.test_case "injected worker crash" `Quick test_injected_worker_crash;
    Alcotest.test_case "all workers crash" `Quick test_all_workers_crash;
    Alcotest.test_case "killed worker's bound reaches the merge" `Quick
      test_killed_worker_bound_reaches_merge;
    Alcotest.test_case "torn bound frame keeps the whole one" `Quick
      test_torn_bound_frame_keeps_whole_one;
    Alcotest.test_case "every worker faulted is sound" `Quick
      test_every_worker_faulted_sound;
    Alcotest.test_case "hard unsat" `Quick test_hard_unsat;
    Alcotest.test_case "timeout merges partial bounds" `Quick
      test_timeout_merges_partial_bounds;
    Alcotest.test_case "wire round trip" `Quick test_wire_round_trip;
    Alcotest.test_case "wire rejects malformed frames" `Quick
      test_wire_rejects_malformed;
    Alcotest.test_case "wire fuzz" `Quick test_wire_fuzz;
    QCheck_alcotest.to_alcotest prop_publisher_matches_reference;
    Alcotest.test_case "sharing matches brute force" `Quick
      test_sharing_matches_brute_force;
    Alcotest.test_case "sharing events match metrics" `Quick
      test_sharing_events_match_metrics;
    Alcotest.test_case "import clause adversarial" `Quick
      test_import_clause_adversarial;
    Alcotest.test_case "export taint" `Quick test_export_taint;
    Alcotest.test_case "sls deterministic" `Quick test_sls_deterministic;
    Alcotest.test_case "default specs" `Quick test_default_specs;
    Alcotest.test_case "default specs run distinct searches" `Quick
      test_default_specs_distinct;
  ]
