(* Observability layer: histogram bucketing, JSONL and event-frame
   round-tripping, event forwarding from a forked worker, and the
   event-vs-stats consistency oracle over the core-guided algorithms. *)

module Obs = Msu_obs.Obs
module Event = Obs.Event
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module Frame = Msu_frame.Frame
module W = Msu_harness.Workers

(* An event as it crosses a worker's pipe, and back. *)
let frame_of e = Frame.encode Frame.Event Frame.string (Event.to_json e)
let event_of f = Event.of_json (Frame.decode Frame.Event Frame.string f)

(* Run [emit] in a forked pool worker whose event sink is its up pipe;
   the parent feeds the forwarded events to [sink] — the portfolio and
   service forwarding path. *)
let forward ~sink emit =
  let pool = W.create ~grace:1.0 ~codec:Frame.bool () in
  ignore
    (W.spawn pool ~events:sink ~deadline:infinity ~on_frame:ignore ~on_exit:ignore
       (fun ~up ~down:_ ->
         emit (W.event_sink up);
         true));
  W.wait pool

(* ----- histogram buckets ----- *)

let test_log_buckets () =
  let b = Obs.Metrics.log_buckets ~lo:1.0 ~hi:16.0 5 in
  Alcotest.(check int) "bucket count" 5 (Array.length b);
  Array.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "geometric bound %d" i)
        expected b.(i))
    [| 1.0; 2.0; 4.0; 8.0; 16.0 |]

let test_histogram_boundaries () =
  let h =
    Obs.Metrics.histogram
      ~registry:(Obs.Metrics.create ())
      ~buckets:[| 1.0; 10.0; 100.0 |]
      "test_hist"
  in
  (* le semantics: a value exactly on a bound lands in that bucket; one
     past the last bound lands in +Inf. *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 10.0; 99.0; 101.0 ];
  Alcotest.(check int) "count" 6 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 213.0 (Obs.Metrics.histogram_sum h);
  Alcotest.(check (array int))
    "per-bucket counts (le 1, le 10, le 100, +Inf)"
    [| 2; 2; 1; 1 |]
    (Obs.Metrics.histogram_counts h)

let test_metrics_export () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg ~help:"a counter" "test_total" in
  let g = Obs.Metrics.gauge ~registry:reg "test_depth" in
  Obs.Metrics.inc ~by:3 c;
  Obs.Metrics.set g 2.5;
  let prom = Obs.Metrics.to_prometheus reg in
  Alcotest.(check bool)
    "prometheus counter line" true
    (let needle = "test_total 3" in
     let rec find i =
       i + String.length needle <= String.length prom
       && (String.sub prom i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  let json = Obs.Metrics.to_json reg in
  Alcotest.(check bool)
    "json mentions the gauge" true
    (let needle = "\"test_depth\"" in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  (* Registration is idempotent by name: re-registering returns the
     live metric, not a fresh zero. *)
  let c' = Obs.Metrics.counter ~registry:reg "test_total" in
  Alcotest.(check int) "same counter" 3 (Obs.Metrics.counter_value c')

(* ----- wire and JSONL round-trips ----- *)

let all_kinds =
  [
    Event.Sat_call;
    Event.Core { size = 17; fresh_blocking = 4 };
    Event.Lb 3;
    Event.Ub 9;
    Event.Card_constraint { arity = 12; bound = 2 };
    Event.Restart;
    Event.Reduce_db { kept = 105 };
    Event.Cache_hit;
    Event.Cache_miss;
    Event.Queue_enqueue { depth = 5 };
    Event.Queue_dequeue { depth = 4 };
    Event.Worker_spawn { pid = 4242 };
    Event.Worker_exit { pid = 4242; status = 0; signaled = false };
    Event.Worker_exit { pid = 4243; status = 137; signaled = true };
    Event.Clause_shared { lbd = 2; size = 5 };
    Event.Incumbent { cost = 7 };
    Event.Span_begin { trace = 0x123456789; span = 0x42; parent = 0; phase = "sat_call" };
    Event.Span_end
      {
        trace = 0x123456789;
        span = 0x42;
        parent = 0;
        phase = "sat_call";
        (* exactly representable at the wire's %.6f precision *)
        elapsed = 0.015625;
        c1 = 1234;
        c2 = 567890;
      };
    Event.Note "free-form narration, with spaces";
  ]

(* Every kind survives an event frame, span numbers of the full 60 bits
   a span id can use included. *)
let test_wire_round_trip () =
  let wide =
    Event.Span_begin
      { trace = 0xFFF_FFFF_FFFF_FFF1; span = 0xABC_DEF0_1234_5679; parent = 1; phase = "x" }
  in
  List.iteri
    (fun i kind ->
      let e = { Event.id = i; at = 1234.5 +. float_of_int i; kind } in
      match Frame.parse (Bytes.to_string (frame_of e)) 0 with
      | Some (f, _) -> (
          match event_of f with
          | None -> Alcotest.fail ("event frame rejected: " ^ Event.to_json e)
          | Some e' ->
              Alcotest.(check int) "id survives" e.Event.id e'.Event.id;
              Alcotest.(check bool)
                ("kind survives: " ^ Event.kind_to_string kind)
                true
                (e'.Event.kind = kind))
      | None -> Alcotest.fail "event frame incomplete")
    (wide :: all_kinds)

let test_jsonl_round_trip () =
  let events =
    List.mapi
      (fun i kind -> { Event.id = i; at = 99.0 +. float_of_int i; kind })
      all_kinds
  in
  let path = Filename.temp_file "msu-obs" ".trace.jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out path in
  let s = Obs.Jsonl.sink oc in
  List.iter (Obs.feed s) events;
  close_out oc;
  let ic = open_in path in
  let back = Obs.Jsonl.read_all ic in
  close_in ic;
  Alcotest.(check int) "all lines parsed" (List.length events) (List.length back);
  List.iter2
    (fun e e' ->
      Alcotest.(check int) "id" e.Event.id e'.Event.id;
      Alcotest.(check bool)
        ("kind: " ^ Event.kind_to_string e.Event.kind)
        true
        (e.Event.kind = e'.Event.kind))
    events back

(* ----- event ordering across a fork ----- *)

(* A forked worker emits over its pipe as event frames, the parent feeds
   them back into a sink.  Order and payloads must survive. *)
let test_forked_worker_ordering () =
  let col = Obs.Collector.create () in
  forward ~sink:(Obs.Collector.sink col) (fun sink ->
      for i = 1 to 50 do
        Obs.emit sink ~id:7 (Event.Lb i)
      done;
      Obs.emit sink ~id:7 (Event.Ub 50));
  let events = Obs.Collector.events col in
  Alcotest.(check int) "all events crossed the pipe" 51 (List.length events);
  List.iter (fun e -> Alcotest.(check int) "id preserved" 7 e.Event.id) events;
  let bounds =
    List.filter_map
      (fun e -> match e.Event.kind with Event.Lb v -> Some v | _ -> None)
      events
  in
  Alcotest.(check (list int))
    "lower bounds arrive in emission order"
    (List.init 50 (fun i -> i + 1))
    bounds;
  let tl = Obs.Timeline.of_events events in
  Alcotest.(check bool) "timeline monotone" true (Obs.Timeline.monotone tl);
  Alcotest.(check bool) "final bracket" true (Obs.Timeline.final tl = (Some 50, Some 50))

(* ----- spans ----- *)

let example () =
  (* The paper's running example (8 unit-weight soft clauses, optimum
     cost 2) — small enough for every algorithm, large enough to force
     several cores. *)
  let w = Wcnf.create () in
  let lit d = Lit.of_dimacs d in
  List.iter
    (fun c -> ignore (Wcnf.add_soft w (Array.of_list (List.map lit c))))
    [
      [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ];
    ];
  w

let span_begins events =
  List.filter_map
    (fun e ->
      match e.Event.kind with
      | Event.Span_begin { span; parent; phase; _ } -> Some (span, parent, phase)
      | _ -> None)
    events

let test_span_nesting () =
  let col = Obs.Collector.create () in
  let sp = Obs.Span.create ~sink:(Obs.Collector.sink col) ~id:0 () in
  Alcotest.(check bool) "live sink enables" true (Obs.Span.enabled sp);
  Alcotest.(check bool)
    "null sink disables" false
    (Obs.Span.enabled (Obs.Span.create ~sink:Obs.null ~id:0 ()));
  Obs.Span.wrap sp "outer" (fun () ->
      Obs.Span.wrap_counted sp "inner"
        ~counters:(fun () -> (1, 2))
        (fun () -> ()));
  (* An exception propagates but the span still closes. *)
  (try Obs.Span.wrap sp "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let evs = Obs.Collector.events col in
  let begins = span_begins evs in
  let ends =
    List.filter_map
      (fun e ->
        match e.Event.kind with
        | Event.Span_end { phase; _ } -> Some phase
        | _ -> None)
      evs
  in
  Alcotest.(check int) "three spans opened" 3 (List.length begins);
  Alcotest.(check int) "all three closed" 3 (List.length ends);
  let find phase =
    match List.find_opt (fun (_, _, p) -> String.equal p phase) begins with
    | Some (span, parent, _) -> (span, parent)
    | None -> Alcotest.fail ("no Span_begin for " ^ phase)
  in
  let outer_span, _ = find "outer" and _, inner_parent = find "inner" in
  Alcotest.(check bool) "inner nests under outer" true (inner_parent = outer_span);
  Alcotest.(check bool)
    "exception-path span closed" true
    (List.exists (String.equal "raises") ends);
  Alcotest.(check bool)
    "all chains reach the root" true
    (Obs.Span.Report.rooted ~root:0 evs)

(* Worker spans cross the fork boundary over the worker's pipe and
   re-parent under the coordinator's request span — the portfolio /
   service propagation path. *)
let test_span_reparenting () =
  let col = Obs.Collector.create () in
  let parent_sink = Obs.Collector.sink col in
  let sp = Obs.Span.create ~sink:parent_sink ~id:9 () in
  let req = Obs.Span.start sp "request" in
  Obs.Span.set_anchor sp (Obs.Span.span_of req);
  let trace = Obs.Span.trace_id sp in
  let anchor = Obs.Span.current sp in
  forward ~sink:parent_sink (fun sink ->
      let wsp = Obs.Span.create ~trace ~parent:anchor ~sink ~id:9 () in
      Obs.Span.wrap wsp "sat_call" (fun () ->
          Obs.Span.wrap wsp "core_extract" (fun () -> ())));
  Obs.Span.stop sp req;
  let evs = Obs.Collector.events col in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Span_begin { trace = t; _ } | Event.Span_end { trace = t; _ } ->
          Alcotest.(check bool) "worker spans carry the coordinator's trace id" true (t = trace)
      | _ -> ())
    evs;
  Alcotest.(check bool)
    "worker spans re-parent under the request span" true
    (Obs.Span.Report.rooted ~root:(Obs.Span.span_of req) evs);
  match Obs.Chrome.validate (Obs.Chrome.of_events evs) with
  | Ok n -> Alcotest.(check int) "request + two worker spans" 3 n
  | Error msg -> Alcotest.fail ("merged trace invalid: " ^ msg)

(* Two workers' span frames interleaved on one up-pipe, plus a torn
   trailing fragment: the torn frame drops, everything else still
   parses, pairs up, and validates. *)
let test_span_torn_frames () =
  let mk frames = Obs.of_fn (fun e -> frames := Bytes.to_string (frame_of e) :: !frames) in
  let l1 = ref [] and l2 = ref [] in
  let s1 = Obs.Span.create ~sink:(mk l1) ~id:1 () in
  let s2 = Obs.Span.create ~sink:(mk l2) ~id:2 () in
  Obs.Span.enter s1 "sat_call";
  Obs.Span.enter_counted s2 "bve" ~c1:100 ~c2:0;
  Obs.Span.leave_counted s1 ~c1:3 ~c2:4;
  Obs.Span.leave s2;
  let b1, e1 =
    match List.rev !l1 with [ b; e ] -> (b, e) | _ -> Alcotest.fail "l1"
  in
  let b2, e2 =
    match List.rev !l2 with [ b; e ] -> (b, e) | _ -> Alcotest.fail "l2"
  in
  let torn = String.sub e1 0 (String.length e1 / 2) in
  let stream = String.concat "" [ b1; b2; e1; e2; torn ] in
  let rec parse pos =
    match Frame.parse stream pos with
    | Some (f, next) -> Option.to_list (event_of f) @ parse next
    | None -> []
  in
  let parsed = parse 0 in
  Alcotest.(check int) "torn frame dropped, intact ones kept" 4
    (List.length parsed);
  match Obs.Chrome.validate (Obs.Chrome.of_events parsed) with
  | Ok n -> Alcotest.(check int) "interleaved spans pair up" 2 n
  | Error msg -> Alcotest.fail ("interleaved trace invalid: " ^ msg)

(* A real traced solve: phase report consistent (self <= total, rooted
   under the request span) and the Chrome export structurally valid. *)
let test_span_solve_report () =
  let col = Obs.Collector.create () in
  let sink = Obs.Collector.sink col in
  let sp = Obs.Span.create ~sink ~id:0 () in
  let req = Obs.Span.start sp "request" in
  Obs.Span.set_anchor sp (Obs.Span.span_of req);
  let config = { T.default_config with T.sink = sink; T.spans = sp } in
  (match (M.solve_supervised ~config M.Msu3 (example ())).T.outcome with
  | T.Optimum 2 -> ()
  | _ -> Alcotest.fail "expected optimum 2");
  Obs.Span.stop sp req;
  let evs = Obs.Collector.events col in
  let rows = Obs.Span.Report.of_events evs in
  Alcotest.(check bool) "several phases" true (List.length rows >= 3);
  List.iter
    (fun (r : Obs.Span.Report.row) ->
      Alcotest.(check bool)
        (r.Obs.Span.Report.phase ^ ": self <= total")
        true
        (r.Obs.Span.Report.self_s <= r.Obs.Span.Report.total_s +. 1e-9))
    rows;
  let has phase =
    List.exists (fun r -> String.equal r.Obs.Span.Report.phase phase) rows
  in
  Alcotest.(check bool) "sat_call phase present" true (has "sat_call");
  Alcotest.(check bool) "supervise phase present" true (has "supervise");
  Alcotest.(check bool)
    "all solve spans hang under the request" true
    (Obs.Span.Report.rooted ~root:(Obs.Span.span_of req) evs);
  match Obs.Chrome.validate (Obs.Chrome.of_events evs) with
  | Ok n -> Alcotest.(check bool) "several spans exported" true (n >= 4)
  | Error msg -> Alcotest.fail ("solve trace invalid: " ^ msg)

(* ----- event-vs-stats consistency oracle ----- *)

let oracle_algorithms =
  [ M.Msu1; M.Msu2; M.Msu3; M.Msu4_v1; M.Msu4_v2; M.Oll; M.Wpm1; M.Pbo_linear ]

let test_consistency_oracle () =
  List.iter
    (fun alg ->
      let name = M.algorithm_to_string alg in
      let col = Obs.Collector.create () in
      let config =
        { T.default_config with T.sink = Obs.Collector.sink col }
      in
      let r = M.solve ~config alg (example ()) in
      let tl = Obs.Timeline.of_events (Obs.Collector.events col) in
      Alcotest.(check int)
        (name ^ ": Sat_call events = stats.sat_calls")
        r.T.stats.T.sat_calls tl.Obs.Timeline.sat_calls;
      Alcotest.(check int)
        (name ^ ": Core events = stats.cores")
        r.T.stats.T.cores tl.Obs.Timeline.cores;
      Alcotest.(check bool)
        (name ^ ": timeline monotone")
        true
        (Obs.Timeline.monotone tl);
      match r.T.outcome with
      | T.Optimum c ->
          Alcotest.(check bool)
            (name ^ ": timeline ends at the certified optimum")
            true
            (Obs.Timeline.final tl = (Some c, Some c))
      | _ -> Alcotest.fail (name ^ ": expected an optimum"))
    oracle_algorithms

let suite =
  [
    Alcotest.test_case "log buckets" `Quick test_log_buckets;
    Alcotest.test_case "histogram boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "metrics export" `Quick test_metrics_export;
    Alcotest.test_case "wire round-trip" `Quick test_wire_round_trip;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "forked worker ordering" `Quick test_forked_worker_ordering;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span cross-process re-parenting" `Quick
      test_span_reparenting;
    Alcotest.test_case "span torn frames" `Quick test_span_torn_frames;
    Alcotest.test_case "span solve report" `Quick test_span_solve_report;
    Alcotest.test_case "consistency oracle" `Quick test_consistency_oracle;
  ]
