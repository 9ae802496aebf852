module Maxsat = Msu_maxsat.Maxsat
module Types = Msu_maxsat.Types
module Guard = Msu_guard.Guard
module Checkpoint = Msu_guard.Checkpoint
module Frame = Msu_frame.Frame

type abort_reason =
  | Timeout
  | Out_of_conflicts
  | Out_of_propagations
  | Out_of_memory
  | Crash of string

type outcome =
  | Solved of int
  | Aborted of { why : abort_reason; lb : int; ub : int option }
  | Unsat_hard

type run = {
  instance : string;
  family : string;
  algorithm : Maxsat.algorithm;
  outcome : outcome;
  time : float;
  attempts : int;
}

type retry_policy = { max_attempts : int; retry_conflict_budget : int option }

let no_retry = { max_attempts = 1; retry_conflict_budget = None }

let abort_reason_to_string = function
  | Timeout -> "timeout"
  | Out_of_conflicts -> "conflicts"
  | Out_of_propagations -> "propagations"
  | Out_of_memory -> "memory"
  | Crash reason -> Printf.sprintf "crash:%s" reason

let is_crash = function Aborted { why = Crash _; _ } -> true | _ -> false

(* One supervised in-process attempt.  The guard is created here (not
   inside the algorithm) so its tripped reason is readable afterwards
   and classifies the abort.  [resume] seeds the solve from a previous
   attempt's checkpoint; [checkpoint_fd] streams this attempt's own
   checkpoints out (forked workers point it at a pipe). *)
let attempt ?resume ?checkpoint_fd ~timeout ~conflict_budget algorithm wcnf =
  let t0 = Unix.gettimeofday () in
  let guard =
    Guard.create ~deadline:(t0 +. timeout) ?max_conflicts:conflict_budget ()
  in
  let cell = Guard.Progress.create () in
  (match checkpoint_fd with
  | Some fd -> Guard.set_ticker guard (Checkpoint.writer fd cell)
  | None -> ());
  let config =
    {
      Types.default_config with
      Types.deadline = t0 +. timeout;
      max_conflicts = conflict_budget;
      guard = Some guard;
      progress = Some cell;
      resume;
    }
  in
  (* A SIGTERM from the parent's kill ladder trips this guard, so the
     solve unwinds with its current bounds instead of dying bound-less. *)
  Guard.set_cancel_target guard;
  let result = Maxsat.solve_supervised ~config algorithm wcnf in
  let time = Float.min (Unix.gettimeofday () -. t0) timeout in
  let outcome =
    match result.Types.outcome with
    | Types.Optimum c -> Solved c
    | Types.Hard_unsat -> Unsat_hard
    | Types.Bounds { lb; ub } ->
        let why =
          match Guard.tripped guard with
          | Some Guard.Conflicts -> Out_of_conflicts
          | Some Guard.Propagations -> Out_of_propagations
          | Some Guard.Memory -> Out_of_memory
          | Some Guard.Timeout | Some Guard.Cancelled | None -> Timeout
        in
        Aborted { why; lb; ub }
    | Types.Crashed { reason; lb; ub } -> Aborted { why = Crash reason; lb; ub }
  in
  (outcome, time, Checkpoint.of_cell cell)

(* An isolated attempt's result frame: the outcome as a label (an abort
   by its reason's name) and a bracket, then the seconds. *)
let attempt_codec =
  let why = function
    | "timeout" -> Timeout
    | "conflicts" -> Out_of_conflicts
    | "propagations" -> Out_of_propagations
    | "memory" -> Out_of_memory
    | s when String.starts_with ~prefix:"crash:" s -> Crash (String.sub s 6 (String.length s - 6))
    | _ -> Frame.malformed "unknown run outcome"
  in
  Frame.map
    (function
      | Solved c, time -> (("solved", (c, Some c)), time)
      | Unsat_hard, time -> (("hard-unsat", (0, None)), time)
      | Aborted { why; lb; ub }, time -> ((abort_reason_to_string why, (lb, ub)), time))
    (function
      | ("solved", (c, _)), time -> (Solved c, time)
      | ("hard-unsat", _), time -> (Unsat_hard, time)
      | (label, (lb, ub)), time -> (Aborted { why = why label; lb; ub }, time))
    Frame.(pair (pair string Checkpoint.bracket) float)

(* Run the attempt in a forked worker.  Its checkpoint frames ride the
   worker's up pipe; the newest whole one comes back with the result —
   the only progress that survives a SIGKILLed child. *)
let isolated ?resume ~grace ~timeout ~conflict_budget algorithm wcnf =
  let pool = Workers.create ~grace ~codec:attempt_codec () in
  let latest = ref None in
  let result = ref (Error "worker not reaped") in
  ignore
    (Workers.spawn pool
       ~deadline:(Unix.gettimeofday () +. timeout)
       ~on_frame:(fun f -> latest := Some (Checkpoint.of_frame f))
       ~on_exit:(fun e -> result := e.Workers.result)
       (fun ~up ~down:_ ->
         let outcome, time, _ =
           attempt ?resume ~checkpoint_fd:up ~timeout ~conflict_budget algorithm wcnf
         in
         (outcome, time)));
  Workers.wait pool;
  let res =
    match !result with
    | Ok r -> r
    | Error reason -> (Aborted { why = Crash reason; lb = 0; ub = None }, timeout)
  in
  (res, !latest)

(* Fold a checkpointed bracket into an aborted outcome; collapse to
   [Solved] only when the lower bound meets an upper bound backed by a
   model that re-verifies against this instance (the dying process may
   have been corrupted after writing the frame). *)
let merge_checkpoint wcnf outcome (ck : Checkpoint.t) =
  match outcome with
  | Solved _ | Unsat_hard -> outcome
  | Aborted { why; lb; ub } ->
      let lb = max lb ck.Checkpoint.lb in
      let ub =
        match (ub, ck.Checkpoint.ub) with
        | Some a, Some b -> Some (min a b)
        | (Some _ as u), None | None, (Some _ as u) -> u
        | None, None -> None
      in
      let verified_incumbent =
        match Msu_maxsat.Common.checkpoint_incumbent wcnf ck with
        | Some (u, _) -> Some u
        | None -> None
      in
      (match (ub, verified_incumbent) with
      | Some u, Some v when lb >= u && v <= u -> Solved u
      | _ -> Aborted { why; lb; ub })

let run_one ?(isolate = false) ?(grace = 1.0) ?(retry = no_retry) ?conflict_budget
    ~timeout algorithm (instance, family, wcnf) =
  let once ~resume budget =
    if isolate then
      isolated ?resume ~grace ~timeout ~conflict_budget:budget algorithm wcnf
    else begin
      let outcome, time, ck =
        attempt ?resume ~timeout ~conflict_budget:budget algorithm wcnf
      in
      ((outcome, time), Some ck)
    end
  in
  let rec go n ~resume budget acc =
    let (outcome, time), ck = once ~resume budget in
    (* Accumulate the best certified bracket across attempts: the
       streamed/returned checkpoint plus whatever bounds the outcome
       itself carries. *)
    let acc = match ck with Some c -> Checkpoint.merge acc c | None -> acc in
    let acc =
      match outcome with
      | Aborted { lb; ub; _ } ->
          Checkpoint.merge acc { Checkpoint.empty with Checkpoint.lb; ub }
      | Solved _ | Unsat_hard -> acc
    in
    if is_crash outcome && n < retry.max_attempts then
      (* A crash may be resource-driven: the retry runs under the
         policy's (smaller) conflict budget so it stops before the
         crash point — and resumes from the accumulated checkpoint so
         certified work is never redone. *)
      go (n + 1) ~resume:(Some acc) retry.retry_conflict_budget acc
    else (outcome, time, n, acc)
  in
  let outcome, time, attempts, ck = go 1 ~resume:None conflict_budget Checkpoint.empty in
  (* Exhausted retries still report the best bracket seen anywhere, not
     just the final attempt's. *)
  let outcome = merge_checkpoint wcnf outcome ck in
  let time = match outcome with Aborted _ -> timeout | _ -> time in
  { instance; family; algorithm; outcome; time; attempts }

let run_suite ?(progress = fun _ -> ()) ?isolate ?grace ?retry ?conflict_budget
    ~timeout ~algorithms instances =
  List.concat_map
    (fun inst ->
      List.map
        (fun algorithm ->
          let r =
            run_one ?isolate ?grace ?retry ?conflict_budget ~timeout algorithm inst
          in
          progress r;
          r)
        algorithms)
    instances

let aborted_counts algorithms runs =
  List.map
    (fun a ->
      let n =
        List.length
          (List.filter
             (fun r ->
               r.algorithm = a
               && match r.outcome with Aborted _ -> true | _ -> false)
             runs)
      in
      (a, n))
    algorithms

(* Aborts bucketed by cause, for the table1/table2 footnotes. *)
let aborted_breakdown runs =
  let timeout = ref 0 and budget = ref 0 and memory = ref 0 and crash = ref 0 in
  List.iter
    (fun r ->
      match r.outcome with
      | Aborted { why = Timeout; _ } -> incr timeout
      | Aborted { why = Out_of_conflicts | Out_of_propagations; _ } -> incr budget
      | Aborted { why = Out_of_memory; _ } -> incr memory
      | Aborted { why = Crash _; _ } -> incr crash
      | Solved _ | Unsat_hard -> ())
    runs;
  [
    ("timeout", !timeout);
    ("budget", !budget);
    ("memory", !memory);
    ("crash", !crash);
  ]

let consistency_errors runs =
  let optima : (string, int * Maxsat.algorithm) Hashtbl.t = Hashtbl.create 64 in
  let errors = ref [] in
  List.iter
    (fun r ->
      match r.outcome with
      | Solved c -> (
          match Hashtbl.find_opt optima r.instance with
          | None -> Hashtbl.add optima r.instance (c, r.algorithm)
          | Some (c', a') ->
              if c <> c' then
                errors :=
                  Printf.sprintf "%s: %s found %d but %s found %d" r.instance
                    (Maxsat.algorithm_to_string r.algorithm)
                    c
                    (Maxsat.algorithm_to_string a')
                    c'
                  :: !errors)
      | Aborted _ | Unsat_hard -> ())
    runs;
  (* An aborted run's bounds must bracket any proven optimum: a
     violation means a salvaged bound was unsound. *)
  List.iter
    (fun r ->
      match r.outcome with
      | Aborted { why; lb; ub } -> (
          match Hashtbl.find_opt optima r.instance with
          | Some (opt, _) ->
              let bad_lb = lb > opt in
              let bad_ub = match ub with Some u -> u < opt | None -> false in
              if bad_lb || bad_ub then
                errors :=
                  Printf.sprintf "%s: %s aborted (%s) with bounds [%d, %s] outside optimum %d"
                    r.instance
                    (Maxsat.algorithm_to_string r.algorithm)
                    (abort_reason_to_string why) lb
                    (match ub with Some u -> string_of_int u | None -> "?")
                    opt
                  :: !errors
          | None -> ())
      | Solved _ | Unsat_hard -> ())
    runs;
  List.rev !errors

let time_of ~timeout r = match r.outcome with Aborted _ -> timeout | _ -> r.time

let scatter ~x ~y ~timeout runs =
  let find a name =
    List.find_opt (fun r -> r.algorithm = a && r.instance = name) runs
  in
  let names =
    List.sort_uniq compare (List.map (fun r -> r.instance) runs)
  in
  List.filter_map
    (fun name ->
      match (find x name, find y name) with
      | Some rx, Some ry -> Some (name, time_of ~timeout rx, time_of ~timeout ry)
      | _ -> None)
    names

(* One header row of algorithm names and one row of aborted counts,
   mirroring the layout of the paper's Tables 1 and 2. *)
let pp_aborted_table ~total ppf counts =
  let cells =
    ("Total", string_of_int total)
    :: List.map
         (fun (a, n) -> (Maxsat.algorithm_to_string a, string_of_int n))
         counts
  in
  let width (h, v) = max (String.length h) (String.length v) in
  List.iter (fun c -> Format.fprintf ppf "%-*s  " (width c) (fst c)) cells;
  Format.fprintf ppf "@.";
  List.iter (fun c -> Format.fprintf ppf "%-*s  " (width c) (snd c)) cells;
  Format.fprintf ppf "@."

let pp_scatter_csv ppf points =
  Format.fprintf ppf "instance,x_seconds,y_seconds@.";
  List.iter
    (fun (name, tx, ty) -> Format.fprintf ppf "%s,%.6f,%.6f@." name tx ty)
    points

let pp_runs_csv ppf runs =
  Format.fprintf ppf "instance,family,algorithm,outcome,cost,lb,ub,seconds@.";
  List.iter
    (fun r ->
      let outcome, cost, lb, ub =
        match r.outcome with
        | Solved c -> ("solved", string_of_int c, "", "")
        | Aborted { why; lb; ub } ->
            let why =
              (* keep the cell comma-free whatever the crash text says *)
              String.map
                (fun c -> if c = ',' then ';' else c)
                (abort_reason_to_string why)
            in
            ( Printf.sprintf "aborted(%s)" why,
              "",
              string_of_int lb,
              match ub with Some u -> string_of_int u | None -> "" )
        | Unsat_hard -> ("hard-unsat", "", "", "")
      in
      Format.fprintf ppf "%s,%s,%s,%s,%s,%s,%s,%.6f@." r.instance r.family
        (Maxsat.algorithm_to_string r.algorithm)
        outcome cost lb ub r.time)
    runs
