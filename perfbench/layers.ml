(* Reduce a traced run's span stream to per-layer figures.  The spans
   come from two places: the program's own tracer (reached through
   Types.config.spans, Portfolio.solve ?spans and the daemon's sink) and
   the benchmark's spans around each public call it makes, whose phases
   all start with "bench.". *)

module Obs = Msu_obs.Obs
module R = Obs.Span.Report

type t = { rows : R.row list; sat_conflicts : int; sat_propagations : int }

let of_events events =
  let conflicts = ref 0 and props = ref 0 in
  List.iter
    (fun ev ->
      match ev.Obs.Event.kind with
      | Obs.Event.Span_end { phase = "sat_call"; c1; c2; _ } ->
          conflicts := !conflicts + c1;
          props := !props + c2
      | _ -> ())
    events;
  { rows = R.of_events events; sat_conflicts = !conflicts; sat_propagations = !props }

let row t phase = List.find_opt (fun r -> r.R.phase = phase) t.rows
let total t phase = match row t phase with Some r -> r.R.total_s | None -> 0.
let self t phase = match row t phase with Some r -> r.R.self_s | None -> 0.
let count t phase = match row t phase with Some r -> r.R.count | None -> 0

(* Mean milliseconds per span of [phase]. *)
let mean_ms t phase =
  match count t phase with 0 -> 0. | n -> 1000. *. total t phase /. float_of_int n

(* Figures every traced workload can read off its span stream: the SAT,
   cardinality and algorithm layers, wherever the solves ran. *)
let program_layers t =
  let props = float_of_int t.sat_propagations in
  let propagate = total t "propagate" in
  [
    ("sat.search_s", self t "sat_call");
    ("sat.propagate_s", propagate);
    ("sat.analyze_s", total t "analyze");
    ("sat.restart_s", self t "restart");
    ("sat.reduce_db_s", self t "reduce_db");
    ("sat.conflicts", float_of_int t.sat_conflicts);
    ("sat.propagations", props);
    ("sat.props_per_s", if propagate > 0. then props /. propagate else 0.);
    ("sat.bve_s", total t "bve");
    ("sat.subsume_s", total t "subsume");
    ("sat.probe_s", total t "probe");
    ("card.extend_s", total t "totalizer_extend");
    ("core.self_s", self t "supervise");
    ("core.core_extract_s", total t "core_extract");
  ]

(* Share of [phase]'s self time in the whole traced solve time, for the
   printed layer table. *)
let shares t ~solve_s =
  List.filter_map
    (fun r ->
      if solve_s > 0. && r.R.self_s > 0. && not (String.starts_with ~prefix:"bench." r.R.phase)
      then Some (r.R.phase, r.R.self_s, r.R.self_s /. solve_s)
      else None)
    t.rows
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
