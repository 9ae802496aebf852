module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Card = Msu_card.Card
module Itotalizer = Msu_card.Itotalizer
module Sink = Msu_cnf.Sink

(* A "sum" is an incremental totalizer over violation indicators with a
   movable bound: assuming the negation of output [bound] allows at most
   [bound] of its inputs to be violated.  Merge rows are emitted only as
   the bound grows (Martins et al. CP 2014). *)
type sum = { counter : Itotalizer.t; mutable bound : int }

(* What to do when an assumption shows up in a core: a soft selector is
   simply retired; a sum assumption additionally bumps the sum's bound
   and re-enters with the next output. *)
type source = Soft | Sum of sum

let tally_sink tally s =
  Sink.
    {
      fresh_var = Common.frozen_var s;
      emit =
        (fun c ->
          Common.Tally.encoded tally 1;
          Solver.add_clause s c);
    }

let solve ?(config = Types.default_config) w =
  Common.require_unit_weights w;
  let config = Common.with_guard config in
  let guarded sink =
    match config.Types.guard with None -> sink | Some g -> Card.guarded_sink g sink
  in
  let t0 = Unix.gettimeofday () in
  let tally = Common.tally config in
  let s = Solver.create ~track_proof:false () in
  Solver.on_event s (Common.event config);
  Common.attach_tracer config s;
  Common.attach_share config s;
  Common.setup_inprocess config s;
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause ~shareable:true s c) w;
  let active : (Lit.t, source) Hashtbl.t = Hashtbl.create 64 in
  let n_soft = Wcnf.num_soft w in
  let base = Solver.add_softs s n_soft (Wcnf.soft w) in
  for i = 0 to n_soft - 1 do
    Common.Tally.blocking_var tally;
    Hashtbl.replace active (Lit.neg_of (base + i)) Soft
  done;
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  let lb = ref 0 in
  (* A peer (portfolio worker / resumed checkpoint) holds a model at
     cost <= lb: the gap is closed, the parent merges the two halves. *)
  let peer_closed () =
    match config.Types.guard with
    | Some g -> (
        match Msu_guard.Guard.external_ub g with
        | Some u -> !lb >= u
        | None -> false)
    | None -> false
  in
  let rec loop () =
    if Common.over_deadline config || peer_closed () then
      finish (Types.Bounds { lb = !lb; ub = None }) None
    else begin
      Common.Tally.sat_call tally;
      let assumptions =
        Array.of_seq (Seq.map fst (Hashtbl.to_seq active))
      in
      match
        Common.sat_call_span config s (fun () ->
            Solver.solve ~assumptions ~deadline:config.deadline ?guard:config.guard s)
      with
      | Solver.Unknown -> finish (Types.Bounds { lb = !lb; ub = None }) None
      | Solver.Sat ->
          Common.trace config (fun () -> Printf.sprintf "SAT: optimum %d" !lb);
          finish (Types.Optimum !lb) (Some (Solver.model s))
      | Solver.Unsat -> (
          match
            Common.span config "core_extract" (fun () -> Solver.conflict_assumptions s)
          with
          | [] -> finish Types.Hard_unsat None
          | core ->
              Common.Tally.core ~size:(List.length core) tally;
              incr lb;
              Common.note_lb config !lb;
              (* Retire the core's assumptions; collect the violation
                 indicators they were guarding. *)
              let indicators =
                List.map
                  (fun a ->
                    let source =
                      match Hashtbl.find_opt active a with
                      | Some src -> src
                      | None -> Soft (* cannot happen: cores come from assumptions *)
                    in
                    Hashtbl.remove active a;
                    (match source with
                    | Soft -> ()
                    | Sum sum -> (
                        sum.bound <- sum.bound + 1;
                        match
                          Itotalizer.at_most
                            (guarded (tally_sink tally s))
                            sum.counter sum.bound
                        with
                        | Some l -> Hashtbl.replace active l (Sum sum)
                        | None -> ()));
                    Lit.neg a)
                  core
              in
              Common.trace config (fun () ->
                  Printf.sprintf "UNSAT: core of %d assumptions, lb now %d"
                    (List.length core) !lb);
              (* A new sum over the core's indicators, allowing one
                 violation (which the core proved unavoidable). *)
              Common.span config "totalizer_extend" (fun () ->
                  match indicators with
              | [] | [ _ ] -> ()
              | _ ->
                  Common.card_event config ~arity:(List.length indicators) ~bound:1;
                  let sink = guarded (tally_sink tally s) in
                  let tree = Itotalizer.create sink (Array.of_list indicators) in
                  (match Itotalizer.at_most sink tree 1 with
                  | Some l ->
                      Hashtbl.replace active l (Sum { counter = tree; bound = 1 })
                  | None -> ()));
              Common.maybe_inprocess config s;
              loop ())
    end
  in
  try loop ()
  with Msu_guard.Guard.Interrupt _ -> finish (Types.Bounds { lb = !lb; ub = None }) None
