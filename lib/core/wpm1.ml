module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Sink = Msu_cnf.Sink
module Vec = Msu_cnf.Vec

(* Soft clauses are dynamic here: cores split them.  Each live soft
   clause carries its current weight, accumulated blocking literals and
   current selector. *)
type soft = {
  lits : Lit.t array;
  mutable weight : int;
  mutable blocks : Lit.t list;
  mutable sel : Lit.t;
}

(* The weighted Fu & Malik transformation, with activation literals.
   Splitting a core clause of weight [w > wmin] pushes a fresh copy
   (same literals and blocks, weight [w - wmin]) under its own
   selector; the original is rewritten — retire its selector, re-add
   with one more blocking literal under a fresh selector — exactly like
   the unweighted engine. *)
let solve_incremental (config : Types.config) w t0 =
  let tally = Common.tally config in
  let s = Solver.create ~track_proof:false () in
  Solver.on_event s (Common.event config);
  Common.attach_tracer config s;
  Common.attach_share config s;
  Common.setup_inprocess config s;
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause ~shareable:true s c) w;
  let softs = Vec.create ~dummy:{ lits = [||]; weight = 0; blocks = []; sel = Lit.pos 0 } in
  (* The soft clause each live selector guards, indexed by variable. *)
  let soft_of_var = Vec.create ~dummy:(-1) in
  let base = Common.load_rewritable_softs s w in
  Wcnf.iter_soft
    (fun i c weight ->
      let sel = Lit.pos (base + i) in
      Vec.push softs { lits = c; weight; blocks = []; sel };
      Common.set_owner soft_of_var sel i)
    w;
  (* A weight split's remainder: a fresh copy under its own selector. *)
  let enter_soft soft =
    let i = Vec.size softs in
    let l = Lit.pos (Solver.new_var s) in
    soft.sel <- l;
    Vec.push softs soft;
    Common.set_owner soft_of_var l i;
    Solver.add_clause ~selector:l s
      (Array.append soft.lits (Array.of_list soft.blocks))
  in
  let sink =
    Sink.
      {
        fresh_var = Common.frozen_var s;
        emit =
          (fun c ->
            Common.Tally.encoded tally 1;
            Solver.add_clause s c);
      }
  in
  let finish outcome model =
    Common.finish config ~t0 ~stats:(Common.Tally.snapshot tally) outcome model
  in
  let cost = ref 0 in
  let bounds () = finish (Types.Bounds { lb = !cost; ub = None }) None in
  (* A peer (portfolio worker / resumed checkpoint) holds a model at
     cost <= our lower bound: the gap is closed, the parent merges. *)
  let peer_closed () =
    match config.Types.guard with
    | Some g -> (
        match Msu_guard.Guard.external_ub g with
        | Some u -> !cost >= u
        | None -> false)
    | None -> false
  in
  let rec loop () =
    if Common.over_deadline config || peer_closed () then bounds ()
    else begin
      Common.Tally.sat_call tally;
      let assumptions =
        Array.init (Vec.size softs) (fun i ->
            Lit.neg (Vec.get softs i).sel)
      in
      match
        Common.sat_call_span config s (fun () ->
            Solver.solve ~assumptions ~deadline:config.deadline ?guard:config.guard s)
      with
      | Solver.Unknown -> bounds ()
      | Solver.Sat ->
          Common.trace config (fun () -> Printf.sprintf "SAT: optimum %d" !cost);
          finish (Types.Optimum !cost) (Some (Solver.model s))
      | Solver.Unsat -> (
          let core =
            Common.span config "core_extract" (fun () -> Solver.conflict_assumptions s)
          in
          let idxs = List.filter_map (Common.owner soft_of_var) core in
          match idxs with
          | [] -> finish Types.Hard_unsat None
          | _ ->
              Common.Tally.core ~size:(List.length idxs)
                ~fresh_blocking:(List.length idxs) tally;
              let wmin =
                List.fold_left
                  (fun acc i -> min acc (Vec.get softs i).weight)
                  max_int idxs
              in
              let new_bs =
                List.map
                  (fun i ->
                    let soft = Vec.get softs i in
                    (* Split the weight: the remainder survives as a
                       fresh unrelaxed copy. *)
                    if soft.weight > wmin then
                      enter_soft
                        {
                          lits = soft.lits;
                          weight = soft.weight - wmin;
                          blocks = soft.blocks;
                          sel = Lit.pos 0;
                        };
                    let b = Lit.pos (Common.frozen_var s ()) in
                    soft.weight <- wmin;
                    soft.blocks <- b :: soft.blocks;
                    Common.Tally.blocking_var tally;
                    Solver.retire_selector s soft.sel;
                    Common.set_owner soft_of_var soft.sel (-1);
                    let l = Lit.pos (Solver.new_var s) in
                    soft.sel <- l;
                    Common.set_owner soft_of_var l i;
                    Solver.add_clause ~selector:l s
                      (Array.append soft.lits (Array.of_list soft.blocks));
                    b)
                  idxs
              in
              Common.card_event config ~arity:(List.length new_bs) ~bound:1;
              Msu_card.Card.exactly_one sink (Array.of_list new_bs);
              Common.maybe_inprocess config s;
              cost := !cost + wmin;
              Common.note_lb config !cost;
              Common.trace config (fun () ->
                  Printf.sprintf "UNSAT: core of %d softs, wmin %d, cost now %d"
                    (List.length idxs) wmin !cost);
              loop ())
    end
  in
  try loop () with Msu_guard.Guard.Interrupt _ -> bounds ()

let solve ?(config = Types.default_config) w =
  let config = Common.with_guard config in
  let t0 = Unix.gettimeofday () in
  solve_incremental config w t0
