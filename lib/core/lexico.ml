module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Card = Msu_card.Card
module Sink = Msu_cnf.Sink

let levels w =
  (* Distinct weights, descending, with their soft indices. *)
  let by_weight = Hashtbl.create 8 in
  Wcnf.iter_soft
    (fun i _ weight ->
      let l = try Hashtbl.find by_weight weight with Not_found -> [] in
      Hashtbl.replace by_weight weight (i :: l))
    w;
  Hashtbl.fold (fun weight idxs acc -> (weight, List.rev idxs) :: acc) by_weight []
  |> List.sort (fun (w1, _) (w2, _) -> compare w2 w1)

let is_bmo w =
  let rec go = function
    | [] | [ _ ] -> true
    | (w1, _) :: rest ->
        let below =
          List.fold_left
            (fun acc (wk, idxs) -> acc + (wk * List.length idxs))
            0 rest
        in
        w1 > below && go rest
  in
  go (levels w)

(* Each weight level gets its own inner solve over a different soft set
   (with the previous levels' hardenings added), so lexico keeps one
   persistent solver {e per level} rather than one for the whole solve:
   the instances differ in their hard clauses, which no selector
   discipline can retract.  The per-level stats add up into this
   result's. *)
let solve ?(config = Types.default_config) ?(inner = fun ?config w -> Msu4.solve ?config w)
    w =
  if not (is_bmo w) then
    invalid_arg "Lexico.solve: weights are not Boolean-multilevel (use Wpm1)";
  (* One shared guard across every level's inner solve. *)
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  let levels = levels w in
  (* Hard clauses accumulate level hardenings; fresh variables come from
     a global counter so levels never collide. *)
  let extra_hards = ref [] in
  let next_var = ref (Wcnf.num_vars w) in
  let fresh () =
    let v = !next_var in
    incr next_var;
    v
  in
  let sub_instance idxs =
    let sub = Wcnf.create () in
    Wcnf.ensure_vars sub !next_var;
    Wcnf.iter_hard (fun _ c -> Wcnf.add_hard sub c) w;
    List.iter (fun c -> Wcnf.add_hard sub c) !extra_hards;
    List.iter (fun i -> ignore (Wcnf.add_soft sub (Wcnf.soft w i))) idxs;
    sub
  in
  let harden idxs bound =
    (* Relax each clause of the level and cap the relaxations. *)
    let sink =
      Sink.
        { fresh_var = fresh; emit = (fun c -> extra_hards := c :: !extra_hards) }
    in
    let blocks =
      List.map
        (fun i ->
          let b = Lit.pos (fresh ()) in
          extra_hards := Array.append (Wcnf.soft w i) [| b |] :: !extra_hards;
          b)
        idxs
    in
    Card.at_most ?guard:config.Types.guard sink config.Types.encoding
      (Array.of_list blocks) bound
  in
  let rec go levels total stats last_model =
    match levels with
    | [] ->
        Common.finish config ~t0 ~stats (Types.Optimum total) last_model
    | (weight, idxs) :: rest -> (
        let sub = sub_instance idxs in
        let r = inner ~config sub in
        let stats = Types.merge_stats stats r.Types.stats in
        match r.Types.outcome with
        | Types.Optimum opt ->
            Common.trace config (fun () ->
                Printf.sprintf "level w=%d: optimum %d of %d" weight opt
                  (List.length idxs));
            if rest <> [] then harden idxs opt;
            go rest (total + (weight * opt)) stats r.Types.model
        | Types.Hard_unsat -> Common.finish config ~t0 ~stats Types.Hard_unsat None
        | Types.Bounds { lb; _ } ->
            (* Budget ran out inside a level: report what is proven. *)
            Common.finish config ~t0 ~stats
              (Types.Bounds { lb = total + (weight * lb); ub = None })
              None
        | Types.Crashed { reason; lb; _ } ->
            (* The inner solve died; scale its salvaged lower bound into
               this level's weight like the Bounds case. *)
            Common.finish config ~t0 ~stats
              (Types.Crashed { reason; lb = total + (weight * lb); ub = None })
              None)
  in
  match levels with
  | [] ->
      (* No soft clauses: delegate to the inner solver for a model. *)
      let r = inner ~config w in
      { r with Types.elapsed = Unix.gettimeofday () -. t0 }
  | ls -> go ls 0 Types.empty_stats None
