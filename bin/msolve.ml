(* msolve: command-line MaxSAT solver over DIMACS CNF / WCNF files.

   Output follows the MaxSAT-evaluation conventions: "o <cost>" lines
   for the objective, an "s" status line, and a "v" model line.

   Exit codes (see the man page's EXIT STATUS): 0 proven optimum,
   10 bounds only, 20 hard clauses unsatisfiable, 2 error (bad input,
   crash, or failed --verify), 3 --verify could not prove a check. *)

module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Certify = Msu_maxsat.Certify
module Card = Msu_card.Card
module P = Msu_portfolio.Portfolio
module Client = Msu_service.Client
module Proto = Msu_service.Protocol
module Obs = Msu_obs.Obs

let exit_optimum = 0
let exit_bounds = 10
let exit_hard_unsat = 20
let exit_error = 2
let exit_unproved = 3

let enum_of_string name of_string all to_string s =
  match of_string s with
  | Some v -> Ok v
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (expected one of: %s)" name s
             (String.concat ", " (List.map to_string all))))

let algorithm_conv =
  Cmdliner.Arg.conv
    ( enum_of_string "algorithm" M.algorithm_of_string M.all_algorithms
        M.algorithm_to_string,
      fun ppf a -> Format.pp_print_string ppf (M.algorithm_to_string a) )

let encoding_conv =
  Cmdliner.Arg.conv
    ( enum_of_string "encoding" Card.encoding_of_string Card.all_encodings
        Card.encoding_to_string,
      fun ppf e -> Format.pp_print_string ppf (Card.encoding_to_string e) )

(* Client mode: ship the instance to a running mserve daemon instead of
   solving in-process.  Ctrl-C while waiting sends a cancel for our job
   id over a fresh connection — the daemon walks the worker through the
   SIGTERM/flush/SIGKILL ladder and still delivers salvaged bounds. *)
let solve_remote ~quiet ~sock ~options w =
  let fd = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close fd) @@ fun () ->
  match Client.submit fd ~options w with
  | Error reason -> Error (Printf.sprintf "service rejected request: %s" reason)
  | Ok id ->
      if not quiet then Printf.printf "c service accepted job %d\n%!" id;
      let cancelling = ref false in
      let old_sigint =
        Sys.signal Sys.sigint
          (Sys.Signal_handle
             (fun _ ->
               if not !cancelling then begin
                 cancelling := true;
                 ignore (try Client.cancel ~socket:sock id with _ -> false)
               end))
      in
      Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint old_sigint)
      @@ fun () ->
      let resp = Client.wait fd id in
      if resp.Client.cached && not quiet then
        print_endline "c served from cache";
      Ok
        {
          T.outcome = resp.Client.outcome;
          T.model = resp.Client.model;
          T.stats = T.empty_stats;
          T.elapsed = resp.Client.elapsed;
        }

(* --presimplify: SatELite-style preprocessing of the hard clauses with
   every soft-clause variable frozen, so the optimum is preserved.
   Returns the instance to solve plus a model-restore function back to
   the original variables; [None] when preprocessing refutes the hard
   clauses outright. *)
let presimplify_instance ~quiet w =
  let module F = Msu_cnf.Formula in
  let module W = Msu_cnf.Wcnf in
  let f = F.create () in
  F.ensure_vars f (W.num_vars w);
  W.iter_hard (fun _ c -> ignore (F.add_clause f c)) w;
  let seen = Hashtbl.create 256 in
  let frozen = ref [] in
  W.iter_soft
    (fun _ c _ ->
      Array.iter
        (fun l ->
          let v = Msu_cnf.Lit.var l in
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            frozen := v :: !frozen
          end)
        c)
    w;
  match Msu_sat.Simplify.simplify ~frozen:!frozen f with
  | None -> None
  | Some r ->
      let w' = W.create () in
      W.ensure_vars w' (W.num_vars w);
      F.iter_clauses (fun _ c -> W.add_hard w' c) r.Msu_sat.Simplify.formula;
      W.iter_soft (fun _ c wt -> ignore (W.add_soft w' ~weight:wt c)) w;
      if not quiet then
        Printf.printf
          "c presimplify: %d vars eliminated, %d clauses removed, %d literals strengthened\n"
          r.Msu_sat.Simplify.eliminated_vars r.Msu_sat.Simplify.removed_clauses
          r.Msu_sat.Simplify.strengthened;
      Some (w', r.Msu_sat.Simplify.restore_model)

let run file algorithm encoding timeout conflicts propagations memory_mb verify
    verbose trace_file stats_json no_geq1 quiet incomplete
    portfolio jobs share_clauses sls_worker connect priority no_cache
    inprocess presimplify profile =
  let w =
    try Ok (Msu_cnf.Dimacs.parse_wcnf_file file) with
    | Msu_cnf.Dimacs.Parse_error (line, msg) ->
        Error (Printf.sprintf "%s:%d: %s" file line msg)
    | Sys_error msg -> Error msg
  in
  match w with
  | Error msg ->
      prerr_endline ("c error: " ^ msg);
      exit_error
  | Ok w -> (
      let pre =
        if presimplify then presimplify_instance ~quiet w
        else Some (w, fun m -> m)
      in
      match pre with
      | None ->
          print_endline "s UNSATISFIABLE";
          exit_hard_unsat
      | Some (w_solve, restore) ->
      let deadline =
        match timeout with None -> infinity | Some t -> Unix.gettimeofday () +. t
      in
      (* The event sink feeds up to two consumers: the verbose compat
         shim (events rendered to "c" comment lines, the old --trace
         behaviour) and a JSONL trace file. *)
      let trace_oc = Option.map open_out trace_file in
      (* --profile / the --stats-json phase table need the full event
         stream (spans included) buffered in memory alongside the
         user-facing sinks. *)
      let coll =
        if profile <> None || stats_json then Some (Obs.Collector.create ())
        else None
      in
      let sink =
        let verbose_sink =
          if verbose then
            Obs.of_fn (fun e -> print_endline ("c " ^ Obs.Event.to_string e))
          else Obs.null
        in
        let file_sink =
          match trace_oc with Some oc -> Obs.Jsonl.sink oc | None -> Obs.null
        in
        let base = Obs.tee verbose_sink file_sink in
        match coll with
        | Some c -> Obs.tee base (Obs.Collector.sink c)
        | None -> base
      in
      (* The request span is the trace root: every solve phase — and,
         under --portfolio, every worker's re-parented spans — hangs
         under it.  It closes in the [finally] so crash and error paths
         still leave a balanced trace. *)
      let spans =
        match coll with
        | Some _ -> Obs.Span.create ~sink ~id:0 ()
        | None -> Obs.Span.disabled
      in
      let request =
        ref
          (if Obs.Span.enabled spans then
             Some (Obs.Span.start spans "request")
           else None)
      in
      (match !request with
      | Some h -> Obs.Span.set_anchor spans (Obs.Span.span_of h)
      | None -> ());
      let close_request () =
        match !request with
        | Some h ->
            request := None;
            Obs.Span.stop spans h
        | None -> ()
      in
      let write_profile () =
        close_request ();
        match (profile, coll) with
        | Some path, Some c -> (
            try
              let oc = open_out path in
              output_string oc
                (Obs.Chrome.of_events ~process_name:"msolve"
                   (Obs.Collector.events c));
              close_out oc
            with Sys_error msg ->
              prerr_endline ("c error: --profile: " ^ msg))
        | _ -> ()
      in
      Fun.protect ~finally:(fun () ->
          write_profile ();
          match trace_oc with Some oc -> close_out oc | None -> ())
      @@ fun () ->
      let config =
        {
          T.default_config with
          T.deadline;
          T.encoding;
          T.core_geq1 = not no_geq1;
          T.sink = sink;
          T.spans = spans;
          T.max_conflicts = conflicts;
          T.max_propagations = propagations;
          T.max_memory_words =
            (* bytes -> words on a 64-bit runtime *)
            Option.map (fun mb -> mb * 1024 * 1024 / 8) memory_mb;
          T.inprocess = inprocess;
        }
      in
      (* Snapshot for the GC-pressure delta reported by --stats-json.
         The minor-words delta uses [Gc.minor_words] (exact) rather
         than [quick_stat.minor_words] (updated only at minor
         collections). *)
      let gc0 = Gc.quick_stat () in
      let gc0_minor = Gc.minor_words () in
      if not quiet then
        Printf.printf "c msolve: %s on %s (%d vars, %d hard, %d soft)\n"
          (match connect with
          | Some sock -> Printf.sprintf "service at %s" sock
          | None ->
              if portfolio then Printf.sprintf "portfolio (%d workers)" jobs
              else M.algorithm_to_string algorithm)
          file (Msu_cnf.Wcnf.num_vars w) (Msu_cnf.Wcnf.num_hard w)
          (Msu_cnf.Wcnf.num_soft w);
      let solved =
        match connect with
        | Some sock ->
            let options =
              {
                Proto.default_options with
                Proto.algorithm;
                encoding = Some encoding;
                timeout;
                max_conflicts = conflicts;
                priority;
                use_cache = not no_cache;
              }
            in
            (try solve_remote ~quiet ~sock ~options w_solve
             with Client.Error msg -> Error msg)
        | None ->
            Ok
              (if portfolio then begin
                 let pr =
                   P.solve ~jobs ?timeout ?max_conflicts:conflicts
                     ?trace:
                       (if verbose then
                          Some (fun m -> print_endline ("c " ^ m))
                        else None)
                     ~sink ~spans ~handle_sigint:true ~share_clauses
                     ~sls_worker w_solve
                 in
                 if not quiet then
                   List.iter
                     (fun rep ->
                       Format.printf "c worker %-24s %a (%.3fs)@." rep.P.w_label
                         T.pp_outcome rep.P.w_outcome rep.P.w_time)
                     pr.P.reports;
                 (match pr.P.winner with
                 | Some who when not quiet -> Printf.printf "c winner: %s\n" who
                 | _ -> ());
                 List.iter
                   (fun d -> Printf.printf "c DISAGREEMENT: %s\n" d)
                   pr.P.disagreements;
                 P.to_result pr
               end
               else if incomplete then Msu_maxsat.Local_search.solve ~config w_solve
               else M.solve_supervised ~config algorithm w_solve)
      in
      match solved with
      | Error msg ->
          prerr_endline ("c error: " ^ msg);
          exit_error
      | Ok r -> (
      (* Map the model back through the preprocessing eliminations so
         printing and verification see the original variables. *)
      let r = { r with T.model = Option.map restore r.T.model } in
      if not quiet then
        Printf.printf "c stats: %d sat calls, %d cores, %d blocking vars, %.3fs\n"
          r.T.stats.T.sat_calls r.T.stats.T.cores r.T.stats.T.blocking_vars r.T.elapsed;
      if stats_json then begin
        (* One JSON object on stdout: the run's stats record plus the
           process-wide metrics registry. *)
        let outcome_tag =
          match r.T.outcome with
          | T.Optimum _ -> "optimum"
          | T.Bounds _ -> "bounds"
          | T.Hard_unsat -> "hard_unsat"
          | T.Crashed _ -> "crashed"
        in
        let lb, ub = T.outcome_bounds r.T.outcome in
        Obs.Gc_metrics.sample ();
        let gc1 = Gc.quick_stat () in
        (* Per-phase self/total-time breakdown from the span stream
           (the request span is still open here and is deliberately
           absent: the table reads as "where did the solve go"). *)
        let phases_json =
          match coll with
          | Some c ->
              Obs.Span.Report.to_json
                (Obs.Span.Report.of_events (Obs.Collector.events c))
          | None -> "[]"
        in
        Printf.printf
          "{\"file\":%S,\"outcome\":%S,\"lb\":%d,\"ub\":%s,\"elapsed\":%.6f,\"stats\":{\"sat_calls\":%d,\"cores\":%d,\"blocking_vars\":%d,\"encoding_clauses\":%d},\"phases\":%s,\"gc\":{\"minor_words\":%.0f,\"major_words\":%.0f,\"promoted_words\":%.0f,\"heap_words\":%d,\"minor_collections\":%d,\"major_collections\":%d},\"metrics\":%s}\n"
          file outcome_tag lb
          (match ub with Some u -> string_of_int u | None -> "null")
          r.T.elapsed r.T.stats.T.sat_calls r.T.stats.T.cores
          r.T.stats.T.blocking_vars r.T.stats.T.encoding_clauses phases_json
          (Gc.minor_words () -. gc0_minor)
          (gc1.Gc.major_words -. gc0.Gc.major_words)
          (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
          gc1.Gc.heap_words
          (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
          (gc1.Gc.major_collections - gc0.Gc.major_collections)
          (Obs.Metrics.to_json Obs.Metrics.default)
      end;
      let print_model () =
        match r.T.model with
        | None -> ()
        | Some m ->
            let buf = Buffer.create 256 in
            Buffer.add_string buf "v";
            for v = 0 to Msu_cnf.Wcnf.num_vars w - 1 do
              Buffer.add_char buf ' ';
              if not (v < Array.length m && m.(v)) then Buffer.add_char buf '-';
              Buffer.add_string buf (string_of_int (v + 1))
            done;
            print_endline (Buffer.contents buf)
      in
      let code =
        match r.T.outcome with
        | T.Optimum cost ->
            Printf.printf "o %d\n" cost;
            print_endline "s OPTIMUM FOUND";
            print_model ();
            exit_optimum
        | T.Bounds { lb; ub } ->
            (match ub with Some ub -> Printf.printf "o %d\n" ub | None -> ());
            Printf.printf "c bounds: lb=%d ub=%s\n" lb
              (match ub with Some u -> string_of_int u | None -> "?");
            print_endline "s UNKNOWN";
            print_model ();
            exit_bounds
        | T.Hard_unsat ->
            print_endline "s UNSATISFIABLE";
            exit_hard_unsat
        | T.Crashed { reason; lb; ub } ->
            (match ub with Some ub -> Printf.printf "o %d\n" ub | None -> ());
            Printf.printf "c crashed: %s; bounds lb=%d ub=%s\n" reason lb
              (match ub with Some u -> string_of_int u | None -> "?");
            print_endline "s UNKNOWN";
            print_model ();
            exit_error
      in
      if verify then begin
        let report = Certify.certify ~encoding ~spans w r in
        if not quiet then
          List.iter (fun c -> Printf.printf "c verify pass: %s\n" c)
            report.Certify.passed;
        List.iter (fun f -> Printf.printf "c verify FAIL: %s\n" f)
          report.Certify.failures;
        List.iter
          (fun (check, why) -> Printf.printf "c verify: %s not proved (%s)\n" check why)
          report.Certify.unproved;
        if not (Certify.ok report) then begin
          prerr_endline "c error: verification failed";
          exit_error
        end
        else if report.Certify.unproved <> [] then exit_unproved
        else begin
          if not quiet then print_endline "c verify: result certified";
          code
        end
      end
      else code))

open Cmdliner

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS CNF or WCNF file.")

let algorithm =
  Arg.(
    value
    & opt algorithm_conv M.Msu4_v2
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "MaxSAT algorithm: msu4-v1, msu4-v2, msu1, msu2, msu3, oll, wpm1, pbo, \
           pbo-binary, maxsatz, brute.")

let encoding =
  Arg.(
    value
    & opt encoding_conv Card.Sortnet
    & info [ "e"; "encoding" ] ~docv:"ENC"
        ~doc:
          "Cardinality encoding (bdd, sortnet, seqcounter, totalizer, binomial) \
           of the optimality probe that $(b,--verify) runs.  No algorithm \
           reads it, so msu4-v1 and msu4-v2 run the same search.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"Wall-clock budget.")

let conflicts =
  Arg.(
    value
    & opt (some int) None
    & info [ "conflicts" ] ~docv:"N"
        ~doc:"Total SAT-conflict budget across all solver calls.")

let propagations =
  Arg.(
    value
    & opt (some int) None
    & info [ "propagations" ] ~docv:"N" ~doc:"Total unit-propagation budget.")

let memory_mb =
  Arg.(
    value
    & opt (some int) None
    & info [ "memory-mb" ] ~docv:"MB"
        ~doc:"Live-heap budget in megabytes (checked against the GC's heap size).")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Certify the result before exiting: re-cost the model, re-prove \
           optimality on a fresh solver with a DRUP-checked refutation, and \
           cross-check small instances by enumeration.  A failed check exits 2; \
           a check the probe budget could not settle exits 3.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:
          "Narrate the solve as comment lines: every observability event \
           (SAT calls, cores, bounds, cardinality constraints, restarts) \
           rendered one per line.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the typed event stream to $(docv) as JSON Lines (one \
           event object per line; schema in DESIGN.md §12).")

let stats_json =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:
          "After solving, print one JSON object with the outcome, bounds, \
           solve statistics and the process metrics registry.")

let no_geq1 =
  Arg.(
    value & flag
    & info [ "no-core-geq1" ]
        ~doc:"Disable msu4's optional at-least-one constraint (Algorithm 1, line 19).")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress comment lines.")

let incomplete =
  Arg.(
    value & flag
    & info [ "incomplete"; "ls" ]
        ~doc:
          "Use the stochastic local-search solver instead of an exact algorithm \
           (reports an upper bound and a model, not a proven optimum).")

let portfolio =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Race several algorithms in forked worker processes with live \
           lower/upper-bound sharing; the first to close the gap wins and the \
           rest are cancelled gracefully.  Ignores $(b,--algorithm).")

let jobs =
  Arg.(
    value & opt int 4
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Number of portfolio workers (with $(b,--portfolio)).")

let share_clauses =
  Arg.(
    value & flag
    & info [ "share-clauses" ]
        ~doc:
          "With $(b,--portfolio): exchange short, low-LBD learnt clauses \
           between workers.  Only clauses derived from the instance's hard \
           clauses alone are exported; the parent deduplicates and \
           rebroadcasts them.")

let sls_worker =
  Arg.(
    value & flag
    & info [ "sls-worker" ]
        ~doc:
          "With $(b,--portfolio): add a stochastic local-search worker that \
           streams every improving feasible model as an incumbent; the parent \
           re-costs each model before it tightens the shared upper bound.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Client mode: send the instance to the $(b,mserve) daemon listening \
           on this Unix-domain socket instead of solving in-process.  \
           $(b,--algorithm), $(b,--encoding), $(b,--timeout) and \
           $(b,--conflicts) travel with the request; Ctrl-C cancels the \
           remote job (salvaged bounds still come back).  $(b,--verify) \
           certifies the returned result locally.")

let priority =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"N"
        ~doc:
          "Queue priority with $(b,--connect): higher pops sooner, FIFO \
           within one priority.")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "With $(b,--connect): bypass the server's instance cache and force \
           a fresh solve.")

let inprocess =
  Arg.(
    value & flag
    & info [ "inprocess" ]
        ~doc:
          "Enable inprocessing (bounded variable elimination, subsumption, \
           failed-literal probing) inside the incremental solver at restart \
           boundaries and between core iterations.  Off by default: on the \
           paper's suites it costs more time than it saves.  Mainly for \
           ablation.")

let presimplify =
  Arg.(
    value & flag
    & info [ "presimplify" ]
        ~doc:
          "SatELite-style preprocessing of the hard clauses before solving; \
           variables occurring in soft clauses are frozen so the optimum is \
           preserved, and the model is mapped back to the original variables \
           before printing and verification.")

let profile =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record the solve as hierarchical phase spans (SAT calls, core \
           extraction, totalizer extension, reduce_db/restart, inprocessing \
           passes, certification — plus aggregated propagate/analyze \
           self-times) and write a Chrome trace_event JSON timeline to \
           $(docv) (loads in chrome://tracing and Perfetto).  With \
           $(b,--portfolio), worker spans cross the fork and re-parent \
           under this process's request span.")

let exits =
  [
    Cmd.Exit.info exit_optimum ~doc:"the optimum was found (s OPTIMUM FOUND).";
    Cmd.Exit.info exit_bounds
      ~doc:"a budget ran out; only bounds were established (s UNKNOWN).";
    Cmd.Exit.info exit_hard_unsat
      ~doc:"the hard clauses are unsatisfiable (s UNSATISFIABLE).";
    Cmd.Exit.info exit_error
      ~doc:"error: unreadable input, an internal crash, or a failed $(b,--verify).";
    Cmd.Exit.info exit_unproved
      ~doc:
        "$(b,--verify) found no fault but could not prove every check: its \
         probe ran out of budget (c verify: ... not proved).";
  ]
  @ List.filter (fun i -> Cmd.Exit.info_code i <> exit_optimum) Cmd.Exit.defaults

let cmd =
  let doc = "MaxSAT solving with unsatisfiable cores (msu4 and friends)" in
  Cmd.v
    (Cmd.info "msolve" ~version:"1.0" ~doc ~exits)
    Term.(
      const run $ file $ algorithm $ encoding $ timeout $ conflicts $ propagations
      $ memory_mb $ verify $ verbose $ trace_file $ stats_json $ no_geq1
      $ quiet $ incomplete $ portfolio $ jobs $ share_clauses
      $ sls_worker $ connect $ priority $ no_cache $ inprocess $ presimplify
      $ profile)

let () = exit (Cmd.eval' cmd)
