(* Typed solve events, sinks, convergence timelines, and a metrics
   registry.  This module sits at the very bottom of the stack (it
   depends only on [Unix]) so every layer — solver, guard, algorithms,
   portfolio, service — can emit into the same sink. *)

(* Monotonic per-process clock: [Unix.gettimeofday] clamped to be
   nondecreasing, so event streams order correctly even across NTP
   steps.  The CAS loop keeps the clamp race-free without a lock. *)
let last_t = Atomic.make 0.0

let rec now () =
  let t = Unix.gettimeofday () in
  let last = Atomic.get last_t in
  if t <= last then last
  else if Atomic.compare_and_set last_t last t then t
  else now ()

(* Forked children inherit the parent's clamp cell.  If the parent's
   clock ran ahead of the child's first [gettimeofday] (NTP step, or
   simply a parent that stamped an event "now"), every early child
   timestamp would be pinned to the stale clamp and spans would report
   zero durations.  Call directly after [Unix.fork] in the child. *)
let after_fork () = Atomic.set last_t 0.0

module Event = struct
  type kind =
    | Sat_call
    | Core of { size : int; fresh_blocking : int }
    | Lb of int
    | Ub of int
    | Card_constraint of { arity : int; bound : int }
    | Restart
    | Reduce_db of { kept : int }
    | Cache_hit
    | Cache_miss
    | Queue_enqueue of { depth : int }
    | Queue_dequeue of { depth : int }
    | Worker_spawn of { pid : int }
    | Worker_exit of { pid : int; status : int; signaled : bool }
    | Clause_shared of { lbd : int; size : int }
    | Incumbent of { cost : int }
    | Span_begin of { trace : int; span : int; parent : int; phase : string }
    | Span_end of {
        trace : int;
        span : int;
        parent : int;
        phase : string;
        elapsed : float;
        c1 : int;
        c2 : int;
            (* counters-at-boundary deltas; meaning is per-phase (see
               DESIGN.md §17): sat phases use (conflicts, propagations),
               inprocess passes (fuel spent, changes made), service
               phases (queue depth, 0) *)
      }
    | Note of string

  type t = { id : int; at : float; kind : kind }

  let kind_to_string = function
    | Sat_call -> "sat call"
    | Core { size; fresh_blocking } ->
        Printf.sprintf "core: size %d, %d fresh blocking" size fresh_blocking
    | Lb n -> Printf.sprintf "lb <- %d" n
    | Ub n -> Printf.sprintf "ub <- %d" n
    | Card_constraint { arity; bound } ->
        Printf.sprintf "card: at-most %d over %d lits" bound arity
    | Restart -> "restart"
    | Reduce_db { kept } -> Printf.sprintf "reduce db: kept %d learnts" kept
    | Cache_hit -> "cache hit"
    | Cache_miss -> "cache miss"
    | Queue_enqueue { depth } -> Printf.sprintf "enqueue (depth %d)" depth
    | Queue_dequeue { depth } -> Printf.sprintf "dequeue (depth %d)" depth
    | Worker_spawn { pid } -> Printf.sprintf "worker spawn (pid %d)" pid
    | Worker_exit { pid; status; signaled } ->
        Printf.sprintf "worker exit (pid %d, status %d%s)" pid status
          (if signaled then ", signal death" else "")
    | Clause_shared { lbd; size } ->
        Printf.sprintf "clause shared (lbd %d, %d lits)" lbd size
    | Incumbent { cost } -> Printf.sprintf "incumbent model at cost %d" cost
    | Span_begin { phase; span; parent; _ } ->
        Printf.sprintf "span begin %s (%x under %x)" phase span parent
    | Span_end { phase; span; elapsed; c1; c2; _ } ->
        Printf.sprintf "span end %s (%x, %.6fs, %d/%d)" phase span elapsed c1 c2
    | Note s -> s

  let to_string ev = Printf.sprintf "[%d] %s" ev.id (kind_to_string ev.kind)

  (* JSONL schema (one object per line, flat):
       {"id":0,"t":1723.456789,"ev":"core","size":5,"fresh":2}
     Every event carries "id" (solve/request id), "t" (monotonic
     timestamp, seconds) and "ev" (tag); payload fields follow. *)
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_json ev =
    let payload =
      match ev.kind with
      | Sat_call -> {|"ev":"sat_call"|}
      | Core { size; fresh_blocking } ->
          Printf.sprintf {|"ev":"core","size":%d,"fresh":%d|} size fresh_blocking
      | Lb n -> Printf.sprintf {|"ev":"lb","bound":%d|} n
      | Ub n -> Printf.sprintf {|"ev":"ub","bound":%d|} n
      | Card_constraint { arity; bound } ->
          Printf.sprintf {|"ev":"card","arity":%d,"bound":%d|} arity bound
      | Restart -> {|"ev":"restart"|}
      | Reduce_db { kept } -> Printf.sprintf {|"ev":"reduce_db","kept":%d|} kept
      | Cache_hit -> {|"ev":"cache_hit"|}
      | Cache_miss -> {|"ev":"cache_miss"|}
      | Queue_enqueue { depth } ->
          Printf.sprintf {|"ev":"enqueue","depth":%d|} depth
      | Queue_dequeue { depth } ->
          Printf.sprintf {|"ev":"dequeue","depth":%d|} depth
      | Worker_spawn { pid } -> Printf.sprintf {|"ev":"worker_spawn","pid":%d|} pid
      | Worker_exit { pid; status; signaled } ->
          (* 0/1 rather than a JSON boolean: the flat-object reader below
             only stores numbers and strings. *)
          Printf.sprintf {|"ev":"worker_exit","pid":%d,"status":%d,"signaled":%d|} pid
            status (Bool.to_int signaled)
      | Clause_shared { lbd; size } ->
          Printf.sprintf {|"ev":"clause_shared","lbd":%d,"size":%d|} lbd size
      | Incumbent { cost } -> Printf.sprintf {|"ev":"incumbent","cost":%d|} cost
      | Span_begin { trace; span; parent; phase } ->
          Printf.sprintf {|"ev":"span_b","trace":%d,"span":%d,"parent":%d,"phase":"%s"|}
            trace span parent (json_escape phase)
      | Span_end { trace; span; parent; phase; elapsed; c1; c2 } ->
          Printf.sprintf
            {|"ev":"span_e","trace":%d,"span":%d,"parent":%d,"elapsed":%.6f,"c1":%d,"c2":%d,"phase":"%s"|}
            trace span parent elapsed c1 c2 (json_escape phase)
      | Note s -> Printf.sprintf {|"ev":"note","msg":"%s"|} (json_escape s)
    in
    Printf.sprintf {|{"id":%d,"t":%.6f,%s}|} ev.id ev.at payload

  (* Minimal parser for the flat objects {!to_json} emits; returns
     [None] on anything it does not recognise. *)
  let of_json line =
    let n = String.length line in
    let pos = ref 0 in
    let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done in
    let expect c = skip_ws (); if !pos < n && line.[!pos] = c then (incr pos; true) else false in
    let parse_string () =
      if not (expect '"') then None
      else begin
        let b = Buffer.create 16 in
        let rec go () =
          if !pos >= n then None
          else
            match line.[!pos] with
            | '"' -> incr pos; Some (Buffer.contents b)
            | '\\' when !pos + 1 < n ->
                let c = line.[!pos + 1] in
                pos := !pos + 2;
                (match c with
                | 'n' -> Buffer.add_char b '\n'
                | 'r' -> Buffer.add_char b '\r'
                | 't' -> Buffer.add_char b '\t'
                | 'u' when !pos + 4 <= n ->
                    (try
                       let code = int_of_string ("0x" ^ String.sub line !pos 4) in
                       pos := !pos + 4;
                       if code < 0x80 then Buffer.add_char b (Char.chr code)
                       else Buffer.add_char b '?'
                     with _ -> Buffer.add_char b '?')
                | c -> Buffer.add_char b c);
                go ()
            | c -> incr pos; Buffer.add_char b c; go ()
        in
        go ()
      end
    in
    let parse_number () =
      skip_ws ();
      let start = !pos in
      while
        !pos < n
        && (match line.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do incr pos done;
      (* Kept as text: ids and span numbers use up to 60 bits, more
         than a float holds exactly. *)
      let tok = String.sub line start (!pos - start) in
      if !pos = start || float_of_string_opt tok = None then None else Some tok
    in
    let fields = Hashtbl.create 8 in
    let strings = Hashtbl.create 4 in
    let ok =
      if not (expect '{') then false
      else begin
        let rec members () =
          skip_ws ();
          if !pos < n && line.[!pos] = '}' then true
          else
            match parse_string () with
            | None -> false
            | Some key ->
                if not (expect ':') then false
                else begin
                  skip_ws ();
                  let stored =
                    if !pos < n && line.[!pos] = '"' then
                      match parse_string () with
                      | Some v -> Hashtbl.replace strings key v; true
                      | None -> false
                    else
                      match parse_number () with
                      | Some v -> Hashtbl.replace fields key v; true
                      | None -> false
                  in
                  if not stored then false
                  else begin
                    skip_ws ();
                    if !pos < n && line.[!pos] = ',' then (incr pos; members ())
                    else true
                  end
                end
        in
        members ()
      end
    in
    if not ok then None
    else
      let ( let* ) = Option.bind in
      let float_field k = Option.bind (Hashtbl.find_opt fields k) float_of_string_opt in
      let int_field k = Option.bind (Hashtbl.find_opt fields k) int_of_string_opt in
      let* id = int_field "id" in
      let* at = float_field "t" in
      let* tag = Hashtbl.find_opt strings "ev" in
      let* kind =
        match tag with
        | "sat_call" -> Some Sat_call
        | "core" ->
            let* size = int_field "size" in
            let* fresh_blocking = int_field "fresh" in
            Some (Core { size; fresh_blocking })
        | "lb" ->
            let* b = int_field "bound" in
            Some (Lb b)
        | "ub" ->
            let* b = int_field "bound" in
            Some (Ub b)
        | "card" ->
            let* arity = int_field "arity" in
            let* bound = int_field "bound" in
            Some (Card_constraint { arity; bound })
        | "restart" -> Some Restart
        | "reduce_db" ->
            let* kept = int_field "kept" in
            Some (Reduce_db { kept })
        | "cache_hit" -> Some Cache_hit
        | "cache_miss" -> Some Cache_miss
        | "enqueue" ->
            let* depth = int_field "depth" in
            Some (Queue_enqueue { depth })
        | "dequeue" ->
            let* depth = int_field "depth" in
            Some (Queue_dequeue { depth })
        | "worker_spawn" ->
            let* pid = int_field "pid" in
            Some (Worker_spawn { pid })
        | "worker_exit" ->
            let* pid = int_field "pid" in
            let* status = int_field "status" in
            let* sg = int_field "signaled" in
            Some (Worker_exit { pid; status; signaled = sg <> 0 })
        | "clause_shared" ->
            let* lbd = int_field "lbd" in
            let* size = int_field "size" in
            Some (Clause_shared { lbd; size })
        | "incumbent" ->
            let* cost = int_field "cost" in
            Some (Incumbent { cost })
        | "span_b" ->
            let* trace = int_field "trace" in
            let* span = int_field "span" in
            let* parent = int_field "parent" in
            let* phase = Hashtbl.find_opt strings "phase" in
            Some (Span_begin { trace; span; parent; phase })
        | "span_e" ->
            let* trace = int_field "trace" in
            let* span = int_field "span" in
            let* parent = int_field "parent" in
            let* elapsed = float_field "elapsed" in
            let* c1 = int_field "c1" in
            let* c2 = int_field "c2" in
            let* phase = Hashtbl.find_opt strings "phase" in
            Some (Span_end { trace; span; parent; phase; elapsed; c1; c2 })
        | "note" ->
            let* msg = Hashtbl.find_opt strings "msg" in
            Some (Note msg)
        | _ -> None
      in
      Some { id; at; kind }
end

(* A sink is pattern-matchable so that disabled observability costs one
   branch per would-be event and never formats anything. *)
type sink = Null | Emit of (Event.t -> unit)

let null = Null
let of_fn f = Emit f
let is_null = function Null -> true | Emit _ -> false
let emit sink ~id kind = match sink with Null -> () | Emit f -> f { Event.id; at = now (); kind }
let feed sink ev = match sink with Null -> () | Emit f -> f ev

let note sink ~id msg =
  match sink with Null -> () | Emit f -> f { Event.id; at = now (); kind = Event.Note (msg ()) }

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Emit f, Emit g -> Emit (fun ev -> f ev; g ev)

(* Unbounded in-order collector for tests and bench, where the
   event-vs-stats oracle needs every event. *)
module Collector = struct
  type t = { mutable rev : Event.t list; mutable n : int }

  let create () = { rev = []; n = 0 }
  let sink c = Emit (fun ev -> c.rev <- ev :: c.rev; c.n <- c.n + 1)
  let events c = List.rev c.rev
  let length c = c.n
  let clear c = c.rev <- []; c.n <- 0
end

module Jsonl = struct
  let write oc ev =
    output_string oc (Event.to_json ev);
    output_char oc '\n'

  let sink ?(flush_each = true) oc =
    Emit (fun ev -> write oc ev; if flush_each then flush oc)

  let read_all ic =
    let rec go acc =
      match input_line ic with
      | line ->
          let acc = match Event.of_json line with Some ev -> ev :: acc | None -> acc in
          go acc
      | exception End_of_file -> List.rev acc
    in
    go []
end

(* LB/UB-vs-time series reconstructed from an event stream; the bench
   and the consistency oracle both run on this. *)
module Timeline = struct
  type point = { at : float; lb : int option; ub : int option }

  type t = {
    points : point list;  (* chronological; one per published bound *)
    sat_calls : int;
    cores : int;
  }

  let of_events ?id events =
    let keep ev = match id with None -> true | Some i -> ev.Event.id = i in
    let points, sat_calls, cores, _, _ =
      List.fold_left
        (fun ((pts, calls, cores, lb, ub) as acc) ev ->
          if not (keep ev) then acc
          else
            match ev.Event.kind with
            | Event.Sat_call -> (pts, calls + 1, cores, lb, ub)
            | Event.Core _ -> (pts, calls, cores + 1, lb, ub)
            | Event.Lb n ->
                let lb = Some n in
                ({ at = ev.Event.at; lb; ub } :: pts, calls, cores, lb, ub)
            | Event.Ub n ->
                let ub = Some n in
                ({ at = ev.Event.at; lb; ub } :: pts, calls, cores, lb, ub)
            | _ -> acc)
        ([], 0, 0, None, None)
        events
    in
    { points = List.rev points; sat_calls; cores }

  let final t =
    match List.rev t.points with [] -> (None, None) | p :: _ -> (p.lb, p.ub)

  (* LB nondecreasing, UB nonincreasing, timestamps nondecreasing. *)
  let monotone t =
    let ok_step a b =
      b.at >= a.at
      && (match (a.lb, b.lb) with Some x, Some y -> y >= x | Some _, None -> false | _ -> true)
      && (match (a.ub, b.ub) with Some x, Some y -> y <= x | Some _, None -> false | _ -> true)
    in
    let rec go = function
      | a :: (b :: _ as rest) -> ok_step a b && go rest
      | _ -> true
    in
    go t.points
end

(* Named counters / gauges / histograms.  Registration is idempotent so
   call sites can look metrics up by name without threading handles. *)
module Metrics = struct
  type hist = {
    bounds : float array;  (* ascending upper bounds; +Inf slot implicit *)
    counts : int array;  (* length = Array.length bounds + 1 *)
    mutable sum : float;
    mutable count : int;
  }

  type value = Counter of int ref | Gauge of float ref | Histogram of hist
  type metric = { help : string; value : value }

  type registry = {
    tbl : (string, metric) Hashtbl.t;
    mutable order : string list;  (* reverse registration order *)
  }

  let create () = { tbl = Hashtbl.create 64; order = [] }
  let default = create ()

  let find_or_add registry name help mk =
    let registry = match registry with Some r -> r | None -> default in
    match Hashtbl.find_opt registry.tbl name with
    | Some m -> m.value
    | None ->
        let value = mk () in
        Hashtbl.replace registry.tbl name { help; value };
        registry.order <- name :: registry.order;
        value

  type counter = int ref

  let counter ?registry ?(help = "") name : counter =
    match find_or_add registry name help (fun () -> Counter (ref 0)) with
    | Counter r -> r
    | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered as another type")

  let inc ?(by = 1) (c : counter) = c := !c + by
  let counter_value (c : counter) = !c

  type gauge = float ref

  let gauge ?registry ?(help = "") name : gauge =
    match find_or_add registry name help (fun () -> Gauge (ref 0.0)) with
    | Gauge r -> r
    | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered as another type")

  let set (g : gauge) v = g := v

  type histogram = hist

  (* [n] geometric bucket bounds from [lo] to [hi] inclusive. *)
  let log_buckets ~lo ~hi n =
    if n < 2 || lo <= 0.0 || hi <= lo then invalid_arg "Metrics.log_buckets";
    let ratio = hi /. lo in
    Array.init n (fun i -> lo *. (ratio ** (float_of_int i /. float_of_int (n - 1))))

  (* 1e-4 s … 100 s, two buckets per decade: fits SAT-call latencies and
     whole-solve times alike. *)
  let default_buckets = log_buckets ~lo:1e-4 ~hi:100.0 13

  let histogram ?registry ?(help = "") ?(buckets = default_buckets) name : histogram =
    match
      find_or_add registry name help (fun () ->
          Histogram
            {
              bounds = Array.copy buckets;
              counts = Array.make (Array.length buckets + 1) 0;
              sum = 0.0;
              count = 0;
            })
    with
    | Histogram h -> h
    | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered as another type")

  let observe (h : histogram) x =
    let n = Array.length h.bounds in
    let rec slot i = if i >= n then n else if x <= h.bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. x;
    h.count <- h.count + 1

  let histogram_count (h : histogram) = h.count
  let histogram_sum (h : histogram) = h.sum
  let histogram_counts (h : histogram) = Array.copy h.counts

  let names registry = List.rev registry.order

  let float_str v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let to_json registry =
    let b = Buffer.create 1024 in
    let counters = ref [] and gauges = ref [] and hists = ref [] in
    List.iter
      (fun name ->
        match (Hashtbl.find registry.tbl name).value with
        | Counter r -> counters := (name, !r) :: !counters
        | Gauge r -> gauges := (name, !r) :: !gauges
        | Histogram h -> hists := (name, h) :: !hists)
      (names registry);
    let comma_sep f xs =
      List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; f x) (List.rev xs)
    in
    Buffer.add_string b {|{"counters":{|};
    comma_sep (fun (n, v) -> Buffer.add_string b (Printf.sprintf {|"%s":%d|} n v)) !counters;
    Buffer.add_string b {|},"gauges":{|};
    comma_sep
      (fun (n, v) -> Buffer.add_string b (Printf.sprintf {|"%s":%s|} n (float_str v)))
      !gauges;
    Buffer.add_string b {|},"histograms":{|};
    comma_sep
      (fun (n, h) ->
        Buffer.add_string b (Printf.sprintf {|"%s":{"count":%d,"sum":%s,"buckets":[|} n h.count (float_str h.sum));
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if i > 0 then Buffer.add_char b ',';
            let le =
              if i < Array.length h.bounds then float_str h.bounds.(i) else {|"+Inf"|}
            in
            Buffer.add_string b (Printf.sprintf {|{"le":%s,"n":%d}|} le !cum))
          h.counts;
        Buffer.add_string b "]}")
      !hists;
    Buffer.add_string b "}}";
    Buffer.contents b

  let prom_name name =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name

  let to_prometheus registry =
    let b = Buffer.create 1024 in
    List.iter
      (fun name ->
        let m = Hashtbl.find registry.tbl name in
        let pname = prom_name name in
        if m.help <> "" then
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" pname
               (String.map (function '\n' | '\r' -> ' ' | c -> c) m.help));
        match m.value with
        | Counter r ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname !r)
        | Gauge r ->
            Buffer.add_string b
              (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pname pname (float_str !r))
        | Histogram h ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
            let cum = ref 0 in
            Array.iteri
              (fun i c ->
                cum := !cum + c;
                let le =
                  if i < Array.length h.bounds then float_str h.bounds.(i) else "+Inf"
                in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname le !cum))
              h.counts;
            Buffer.add_string b (Printf.sprintf "%s_sum %s\n" pname (float_str h.sum));
            Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname h.count))
      (names registry);
    Buffer.contents b
end

(* Hierarchical phase spans layered on the event machinery.  A span is a
   (trace, span, parent, phase) interval delivered as a Span_begin /
   Span_end event pair through an ordinary sink, so spans multiplex over
   the portfolio/service pipes exactly like every other event and
   re-parent across fork boundaries for free: a worker's tracer is
   created with the coordinator's trace id and request span as its
   anchor, and every span it emits already carries the right lineage.

   The enter/leave pair works a preallocated stack, so the common case —
   tracing disabled — is one load and one branch per would-be span, with
   zero allocation.  [start]/[stop] handles cover non-nested intervals
   (queue wait, request lifetimes) that do not follow stack discipline. *)
module Span = struct
  (* Span ids are unique across a process tree: 24 bits of pid over a
     36-bit per-process counter.  Workers forked from a coordinator
     inherit the counter value but differ in pid, so their ids cannot
     collide with the parent's or each other's. *)
  let counter = Atomic.make 1

  let fresh_id () =
    let n = Atomic.fetch_and_add counter 1 in
    ((Unix.getpid () land 0xffffff) lsl 36) lor (n land 0xfffffffff)

  let max_depth = 64

  type t = {
    sink : sink;
    id : int;  (* event-envelope solve/request id *)
    trace : int;
    live : bool;
    mutable anchor : int;  (* parent of depth-0 spans; 0 = root *)
    mutable depth : int;
    s_span : int array;
    s_t0 : float array;
    s_c1 : int array;
    s_c2 : int array;
    s_phase : string array;
    mutable dropped : int;  (* spans lost to stack overflow *)
  }

  let disabled =
    {
      sink = Null;
      id = 0;
      trace = 0;
      live = false;
      anchor = 0;
      depth = 0;
      s_span = [||];
      s_t0 = [||];
      s_c1 = [||];
      s_c2 = [||];
      s_phase = [||];
      dropped = 0;
    }

  let create ?trace ?(parent = 0) ~sink ~id () =
    match sink with
    | Null -> disabled
    | Emit _ ->
        {
          sink;
          id;
          trace = (match trace with Some t -> t | None -> fresh_id ());
          live = true;
          anchor = parent;
          depth = 0;
          s_span = Array.make max_depth 0;
          s_t0 = Array.make max_depth 0.0;
          s_c1 = Array.make max_depth 0;
          s_c2 = Array.make max_depth 0;
          s_phase = Array.make max_depth "";
          dropped = 0;
        }

  let enabled t = t.live
  let trace_id t = t.trace
  let anchor t = t.anchor
  let set_anchor t parent = if t.live then t.anchor <- parent
  let dropped t = t.dropped

  let current t =
    if t.live && t.depth > 0 && t.depth <= max_depth then t.s_span.(t.depth - 1)
    else t.anchor

  (* Per-phase duration histograms in the default Metrics registry;
     finer low-end buckets than the solve-level default because phases
     like core extraction run in the tens of microseconds. *)
  let phase_buckets = Metrics.log_buckets ~lo:1e-6 ~hi:100.0 17

  let phase_hist phase =
    Metrics.histogram ~help:("wall-clock seconds in phase " ^ phase)
      ~buckets:phase_buckets
      ("msu_phase_seconds_" ^ phase)

  let enter_counted t phase ~c1 ~c2 =
    if t.live then begin
      let d = t.depth in
      t.depth <- d + 1;
      if d < max_depth then begin
        let span = fresh_id () in
        let parent = if d = 0 then t.anchor else t.s_span.(d - 1) in
        let at = now () in
        t.s_span.(d) <- span;
        t.s_t0.(d) <- at;
        t.s_c1.(d) <- c1;
        t.s_c2.(d) <- c2;
        t.s_phase.(d) <- phase;
        feed t.sink
          { Event.id = t.id; at; kind = Event.Span_begin { trace = t.trace; span; parent; phase } }
      end
      else t.dropped <- t.dropped + 1
    end

  let enter t phase = if t.live then enter_counted t phase ~c1:0 ~c2:0

  let leave_counted t ~c1 ~c2 =
    if t.live && t.depth > 0 then begin
      let d = t.depth - 1 in
      t.depth <- d;
      if d < max_depth then begin
        let at = now () in
        let elapsed = at -. t.s_t0.(d) in
        let phase = t.s_phase.(d) in
        let parent = if d = 0 then t.anchor else t.s_span.(d - 1) in
        Metrics.observe (phase_hist phase) elapsed;
        feed t.sink
          {
            Event.id = t.id;
            at;
            kind =
              Event.Span_end
                {
                  trace = t.trace;
                  span = t.s_span.(d);
                  parent;
                  phase;
                  elapsed;
                  c1 = c1 - t.s_c1.(d);
                  c2 = c2 - t.s_c2.(d);
                };
          }
      end
    end

  let leave t = if t.live then leave_counted t ~c1:0 ~c2:0

  let wrap t phase f =
    if not t.live then f ()
    else begin
      enter t phase;
      Fun.protect ~finally:(fun () -> leave t) f
    end

  (* [counters] is polled at both boundaries so the Span_end carries the
     across-span delta; the thunk never runs when tracing is off. *)
  let wrap_counted t phase ~counters f =
    if not t.live then f ()
    else begin
      let c1, c2 = counters () in
      enter_counted t phase ~c1 ~c2;
      Fun.protect
        ~finally:(fun () ->
          let c1, c2 = counters () in
          leave_counted t ~c1 ~c2)
        f
    end

  (* Retro-emit a completed span over [t0, t1].  Used for aggregated hot
     sub-phases (propagate/analyze), whose per-call spans would dwarf
     the trace: the solver accumulates their self-time and lays the
     totals out as two back-to-back intervals ending at the enclosing
     SAT call's close. *)
  let complete t ?parent ~phase ~t0 ~t1 ?(c1 = 0) ?(c2 = 0) () =
    if t.live then begin
      let span = fresh_id () in
      let parent = match parent with Some p -> p | None -> current t in
      let elapsed = Float.max 0.0 (t1 -. t0) in
      Metrics.observe (phase_hist phase) elapsed;
      feed t.sink
        { Event.id = t.id; at = t0; kind = Event.Span_begin { trace = t.trace; span; parent; phase } };
      feed t.sink
        {
          Event.id = t.id;
          at = t1;
          kind =
            Event.Span_end { trace = t.trace; span; parent; phase; elapsed; c1; c2 };
        }
    end

  (* Non-nested intervals: a handle is opened in one callback and closed
     in another (queue wait, request lifetime), so it cannot use the
     stack.  Handles do not re-anchor stack spans; use [set_anchor] to
     hang subsequent stack spans under a handle's span. *)
  type h = { h_span : int; h_parent : int; h_phase : string; h_t0 : float; h_live : bool }

  let start t ?parent phase =
    if not t.live then { h_span = 0; h_parent = 0; h_phase = phase; h_t0 = 0.0; h_live = false }
    else begin
      let span = fresh_id () in
      let parent = match parent with Some p -> p | None -> current t in
      let at = now () in
      feed t.sink
        { Event.id = t.id; at; kind = Event.Span_begin { trace = t.trace; span; parent; phase } };
      { h_span = span; h_parent = parent; h_phase = phase; h_t0 = at; h_live = true }
    end

  let span_of h = h.h_span

  let stop t ?(c1 = 0) ?(c2 = 0) h =
    if t.live && h.h_live then begin
      let at = now () in
      let elapsed = at -. h.h_t0 in
      Metrics.observe (phase_hist h.h_phase) elapsed;
      feed t.sink
        {
          Event.id = t.id;
          at;
          kind =
            Event.Span_end
              {
                trace = t.trace;
                span = h.h_span;
                parent = h.h_parent;
                phase = h.h_phase;
                elapsed;
                c1;
                c2;
              };
        }
    end

  (* Phases that only ever appear as retro-emitted aggregates.  The
     Chrome exporter routes them to a separate lane per solve id, so
     their intervals — which overlap the real child spans in wall time —
     never break B/E stack nesting on the main lane. *)
  let agg_phases = [ "propagate"; "analyze" ]

  (* Per-phase self-time/total-time aggregation over an event stream. *)
  module Report = struct
    type row = { phase : string; count : int; total_s : float; self_s : float }

    let of_events ?trace events =
      let keep t = match trace with None -> true | Some tr -> t = tr in
      let phase_of_span = Hashtbl.create 64 in
      List.iter
        (fun ev ->
          match ev.Event.kind with
          | Event.Span_end { trace = tr; span; phase; _ } when keep tr ->
              Hashtbl.replace phase_of_span span phase
          | _ -> ())
        events;
      let totals = Hashtbl.create 16 in
      let row phase =
        match Hashtbl.find_opt totals phase with
        | Some r -> r
        | None ->
            let r = ref (0, 0.0, 0.0) in
            Hashtbl.replace totals phase r;
            r
      in
      List.iter
        (fun ev ->
          match ev.Event.kind with
          | Event.Span_end { trace = tr; phase; parent; elapsed; _ } when keep tr ->
              let r = row phase in
              let n, tot, self = !r in
              r := (n + 1, tot +. elapsed, self +. elapsed);
              (* A child's time is not its parent's self time. *)
              (match Hashtbl.find_opt phase_of_span parent with
              | Some pphase ->
                  let pr = row pphase in
                  let pn, ptot, pself = !pr in
                  pr := (pn, ptot, pself -. elapsed)
              | None -> ())
          | _ -> ())
        events;
      Hashtbl.fold
        (fun phase r acc ->
          let count, total_s, self_s = !r in
          { phase; count; total_s; self_s } :: acc)
        totals []
      |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

    (* Every span's parent chain must reach [root]: the re-parenting
       check for worker spans forwarded across a process boundary. *)
    let rooted ~root events =
      let parent_of = Hashtbl.create 64 in
      List.iter
        (fun ev ->
          match ev.Event.kind with
          | Event.Span_begin { span; parent; _ } -> Hashtbl.replace parent_of span parent
          | _ -> ())
        events;
      let n = Hashtbl.length parent_of in
      let reaches span =
        let rec go s steps =
          if s = root then true
          else if steps > n then false
          else
            match Hashtbl.find_opt parent_of s with
            | Some p -> go p (steps + 1)
            | None -> false
        in
        go span 0
      in
      n > 0 && Hashtbl.fold (fun span _ acc -> acc && reaches span) parent_of true

    let to_json rows =
      let b = Buffer.create 256 in
      Buffer.add_char b '[';
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf {|{"phase":"%s","count":%d,"total_s":%.6f,"self_s":%.6f}|}
               (Event.json_escape r.phase) r.count r.total_s r.self_s))
        rows;
      Buffer.add_char b ']';
      Buffer.contents b
  end
end

(* Chrome trace_event JSON (chrome://tracing, Perfetto).  Spans become
   B/E duration events; everything else becomes an instant, so bound
   improvements and restarts show up as ticks on the phase timeline.
   Lanes: tid 2*id is solve id [id]'s span tree, tid 2*id+1 its
   aggregated hot sub-phases (see Span.agg_phases). *)
module Chrome = struct
  let tag_of_kind = function
    | Event.Sat_call -> "sat_call"
    | Event.Core _ -> "core"
    | Event.Lb _ -> "lb"
    | Event.Ub _ -> "ub"
    | Event.Card_constraint _ -> "card"
    | Event.Restart -> "restart"
    | Event.Reduce_db _ -> "reduce_db"
    | Event.Cache_hit -> "cache_hit"
    | Event.Cache_miss -> "cache_miss"
    | Event.Queue_enqueue _ -> "enqueue"
    | Event.Queue_dequeue _ -> "dequeue"
    | Event.Worker_spawn _ -> "worker_spawn"
    | Event.Worker_exit _ -> "worker_exit"
    | Event.Clause_shared _ -> "clause_shared"
    | Event.Incumbent _ -> "incumbent"
    | Event.Span_begin _ -> "span_b"
    | Event.Span_end _ -> "span_e"
    | Event.Note _ -> "note"

  let is_agg phase = List.mem phase Span.agg_phases

  let of_events ?(process_name = "msu") events =
    (* (ts_us, line) pairs; sorted by timestamp so the emitted JSON has
       monotone ts fields — part of what [validate] checks. *)
    let entries = ref [] in
    let tids = Hashtbl.create 8 in
    let add ts line = entries := (ts, line) :: !entries in
    List.iter
      (fun ev ->
        let ts = ev.Event.at *. 1e6 in
        let lane agg = (2 * ev.Event.id) + Bool.to_int agg in
        let note tid label =
          if not (Hashtbl.mem tids tid) then Hashtbl.replace tids tid label
        in
        match ev.Event.kind with
        | Event.Span_begin { trace; span; parent; phase } ->
            let tid = lane (is_agg phase) in
            note tid ev.Event.id;
            add ts
              (Printf.sprintf
                 {|{"name":"%s","cat":"span","ph":"B","ts":%.3f,"pid":1,"tid":%d,"args":{"trace":%d,"span":%d,"parent":%d}}|}
                 (Event.json_escape phase) ts tid trace span parent)
        | Event.Span_end { span; phase; c1; c2; _ } ->
            let tid = lane (is_agg phase) in
            note tid ev.Event.id;
            add ts
              (Printf.sprintf
                 {|{"name":"%s","cat":"span","ph":"E","ts":%.3f,"pid":1,"tid":%d,"args":{"span":%d,"c1":%d,"c2":%d}}|}
                 (Event.json_escape phase) ts tid span c1 c2)
        | kind ->
            let tid = lane false in
            note tid ev.Event.id;
            add ts
              (Printf.sprintf
                 {|{"name":"%s","cat":"event","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d}|}
                 (tag_of_kind kind) ts tid))
      events;
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !entries)
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[\n";
    Buffer.add_string b
      (Printf.sprintf
         {|{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"%s"}}|}
         (Event.json_escape process_name));
    Hashtbl.iter
      (fun tid id ->
        Buffer.add_string b ",\n";
        Buffer.add_string b
          (Printf.sprintf
             {|{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":%d,"args":{"name":"solve %d%s"}}|}
             tid id
             (if tid land 1 = 1 then " (hot, aggregated)" else "")))
      tids;
    List.iter
      (fun (_, line) ->
        Buffer.add_string b ",\n";
        Buffer.add_string b line)
      sorted;
    Buffer.add_string b "\n]}\n";
    Buffer.contents b

  (* Structural validation of a trace produced by [of_events]: one event
     object per line, B/E matched per span id with equal names, ts
     nondecreasing in file order.  Returns the number of complete
     spans. *)
  let validate text =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let num_after line key =
      match
        let i = ref 0 in
        let klen = String.length key in
        let n = String.length line in
        let found = ref (-1) in
        while !found < 0 && !i + klen <= n do
          if String.sub line !i klen = key then found := !i + klen else incr i
        done;
        !found
      with
      | -1 -> None
      | start ->
          let stop = ref start in
          let n = String.length line in
          while
            !stop < n
            && (match line.[!stop] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do incr stop done;
          float_of_string_opt (String.sub line start (!stop - start))
    in
    let str_after line key =
      let i = ref 0 in
      let klen = String.length key in
      let n = String.length line in
      let found = ref (-1) in
      while !found < 0 && !i + klen <= n do
        if String.sub line !i klen = key then found := !i + klen else incr i
      done;
      if !found < 0 then None
      else
        match String.index_from_opt line !found '"' with
        | None -> None
        | Some stop -> Some (String.sub line !found (stop - !found))
    in
    let lines = String.split_on_char '\n' text in
    match lines with
    | header :: _ when String.length header >= 15 && String.sub header 0 15 = "{\"traceEvents\":"
      -> (
        let open_spans = Hashtbl.create 64 in
        let closed = ref 0 in
        let last_ts = ref neg_infinity in
        let problem = ref None in
        let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
        List.iter
          (fun line ->
            match str_after line {|"ph":"|} with
            | Some ("B" | "E" | "i") -> (
                (match num_after line {|"ts":|} with
                | None -> fail "event without ts: %s" line
                | Some ts ->
                    if ts < !last_ts then fail "ts went backwards at %s" line
                    else last_ts := ts);
                match str_after line {|"ph":"|} with
                | Some "B" -> (
                    match (num_after line {|"span":|}, str_after line {|"name":"|}) with
                    | Some span, Some name -> Hashtbl.replace open_spans span name
                    | _ -> fail "B event missing span/name: %s" line)
                | Some "E" -> (
                    match (num_after line {|"span":|}, str_after line {|"name":"|}) with
                    | Some span, Some name -> (
                        match Hashtbl.find_opt open_spans span with
                        | Some bname when bname = name ->
                            Hashtbl.remove open_spans span;
                            incr closed
                        | Some bname -> fail "span closed as %s, opened as %s" name bname
                        | None -> fail "E without B for span %.0f" span)
                    | _ -> fail "E event missing span/name: %s" line)
                | _ -> ())
            | _ -> ())
          lines;
        match !problem with
        | Some m -> Error m
        | None ->
            if Hashtbl.length open_spans > 0 then
              err "%d spans never closed" (Hashtbl.length open_spans)
            else if !closed = 0 then err "no spans in trace"
            else Ok !closed)
    | _ -> err "not a traceEvents object"
end

module Gc_metrics = struct
  let minor_words =
    Metrics.gauge ~help:"cumulative minor-heap words allocated" "msu_gc_minor_words"

  let major_words =
    Metrics.gauge ~help:"cumulative major-heap words allocated" "msu_gc_major_words"

  let promoted_words =
    Metrics.gauge ~help:"cumulative words promoted minor->major" "msu_gc_promoted_words"

  let heap_words = Metrics.gauge ~help:"major heap size in words" "msu_gc_heap_words"

  let minor_collections =
    Metrics.gauge ~help:"minor collections so far" "msu_gc_minor_collections"

  let major_collections =
    Metrics.gauge ~help:"major collection cycles so far" "msu_gc_major_collections"

  let sample () =
    let q = Gc.quick_stat () in
    (* [quick_stat.minor_words] only counts through completed minor
       collections; [Gc.minor_words ()] also reads the live young
       pointer, so it is exact. *)
    Metrics.set minor_words (Gc.minor_words ());
    Metrics.set major_words q.Gc.major_words;
    Metrics.set promoted_words q.Gc.promoted_words;
    Metrics.set heap_words (float_of_int q.Gc.heap_words);
    Metrics.set minor_collections (float_of_int q.Gc.minor_collections);
    Metrics.set major_collections (float_of_int q.Gc.major_collections)
end
