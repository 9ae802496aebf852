module Wcnf = Msu_cnf.Wcnf
module Canon = Msu_cnf.Canon
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module G = Msu_guard.Guard
module Fault = Msu_guard.Fault
module Workers = Msu_harness.Workers
module Ck = Msu_guard.Checkpoint
module P = Protocol
module Frame = Msu_frame.Frame
module Obs = Msu_obs.Obs

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  cache_file : string option;
  default_timeout : float;
  grace : float;
  trace : (string -> unit) option;
  sink : Obs.sink;
      (* the daemon's own event stream: queue/cache/worker life cycle
         plus the forwarded per-solve events of every worker, keyed by
         job id *)
  metrics_file : string option;
      (* when set, the metrics registry is rendered to this path in
         Prometheus text format every few seconds and at shutdown *)
  journal_file : string option;
      (* when set, admitted jobs are journaled (fsync'd) before the
         client sees Accepted, and replayed on restart *)
  max_attempts : int;
      (* total workers a job may consume; attempts past the first fire
         only on spontaneous worker deaths, warm-resumed from the last
         checkpoint *)
  retry_backoff : float;
      (* seconds before respawning a crashed job, doubling per prior
         attempt *)
  profile_dir : string option;
      (* when set, each request gets a span tracer (request / queue-wait
         / cache-lookup / worker-solve, plus the worker's re-parented
         solve spans) and its merged stream is exported as Chrome
         trace_event JSON to profile_dir/job-<id>.trace.json *)
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_capacity = 64;
    cache_capacity = 1024;
    cache_file = None;
    default_timeout = 10.0;
    grace = 1.0;
    trace = None;
    sink = Obs.null;
    metrics_file = None;
    journal_file = None;
    max_attempts = 2;
    retry_backoff = 0.25;
    profile_dir = None;
  }

(* ---------------- internal state ---------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_in : Frame.reader;  (* inbound bytes past the last whole frame *)
  mutable c_alive : bool;
}

type job = {
  j_id : int;
  j_wcnf : Wcnf.t;
  j_wire : P.wire_wcnf;  (* as submitted; what the journal records *)
  j_fingerprint : string;
  mutable j_options : P.options;  (* fault injection is stripped on retry *)
  j_conn : conn;  (* reply target; may die before the result is ready *)
  j_submitted : float;
  mutable j_attempts : int;  (* workers spawned for this job so far *)
  mutable j_not_before : float;  (* retry backoff gate *)
  mutable j_ck : Ck.t;  (* best checkpoint across all attempts *)
  j_spans : Obs.Span.t;  (* per-request tracer (disabled unless profiled) *)
  mutable j_request : Obs.Span.h option;  (* request-lifetime span *)
  mutable j_queue : Obs.Span.h option;  (* open queue-wait span *)
}

type slot = {
  sl_job : job;
  sl_worker : T.result Workers.worker;
  sl_ck : Ck.t option ref;  (* the worker's newest checkpoint frame *)
  sl_solve : Obs.Span.h option;  (* worker-solve span, closed at reap *)
  sl_started : float;
  mutable sl_cancelled : bool;
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  started : float;
  mutable conns : conn list;
  queue : job Jobq.t;
  pool : T.result Workers.t;
  mutable slots : slot list;
  mutable retries : job list;  (* crashed jobs awaiting their backoff *)
  cache : Cache.t;
  journal : Journal.t option;
  mutable next_id : int;
  mutable draining : bool;
  mutable requests : int;
  mutable completed : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejected : int;
  mutable crashes : int;
  mutable cancelled : int;
  latencies : (string, float list ref) Hashtbl.t;
  outcome_counts : (string, int ref) Hashtbl.t;
  mutable last_metrics_write : float;
  profiles : (int, Obs.Event.t list ref) Hashtbl.t;
      (* per-job event capture for profile_dir: every event carrying a
         profiled job's id (daemon-side spans and the worker's forwarded
         stream alike) buffers here until the job finishes, then leaves
         as one Chrome trace file *)
}

(* ---------------- observability ---------------- *)

let m_requests =
  Obs.Metrics.counter ~help:"solve requests received" "msu_service_requests_total"

let m_results =
  Obs.Metrics.counter ~help:"results delivered (cached or solved)"
    "msu_service_results_total"

let m_rejected =
  Obs.Metrics.counter ~help:"admission-control rejections"
    "msu_service_rejected_total"

let m_workers_busy =
  Obs.Metrics.gauge ~help:"forked solve workers running" "msu_service_workers_busy"

let m_workers_total =
  Obs.Metrics.gauge ~help:"worker pool size" "msu_service_workers_total"

let m_hit_rate =
  Obs.Metrics.gauge ~help:"cache hits / lookups since start"
    "msu_service_cache_hit_rate"

let m_retries =
  Obs.Metrics.counter ~help:"crashed workers respawned with a warm checkpoint"
    "msu_service_retries_total"

let m_replayed =
  Obs.Metrics.counter ~help:"jobs re-enqueued from the journal at startup"
    "msu_service_replayed_total"

let ev st ~id kind = Obs.emit st.cfg.sink ~id kind

let collect st (e : Obs.Event.t) =
  match Hashtbl.find_opt st.profiles e.Obs.Event.id with
  | Some cell -> cell := e :: !cell
  | None -> ()

(* Sink for a job's daemon-side tracer: events reach the daemon's own
   stream and, when the job is profiled, its capture buffer. *)
let job_sink st =
  Obs.of_fn (fun e ->
      Obs.feed st.cfg.sink e;
      collect st e)

let journal st r = match st.journal with Some j -> Journal.append j r | None -> ()

let outcome_label = function
  | T.Optimum _ -> "optimum"
  | T.Bounds _ -> "bounds"
  | T.Hard_unsat -> "hard_unsat"
  | T.Crashed _ -> "crashed"

let note_outcome st outcome =
  let label = outcome_label outcome in
  (match Hashtbl.find_opt st.outcome_counts label with
  | Some c -> incr c
  | None -> Hashtbl.add st.outcome_counts label (ref 1));
  Obs.Metrics.inc
    (Obs.Metrics.counter
       ~help:"results delivered with this outcome"
       ("msu_service_outcome_" ^ label ^ "_total"))

let hit_rate st =
  let looked = st.hits + st.misses in
  if looked = 0 then 0. else float_of_int st.hits /. float_of_int looked

(* Live gauges are refreshed on every loop turn — cheap, and a metrics
   scrape (Stats RPC or --metrics-file) always sees current values. *)
let refresh_gauges st =
  Obs.Metrics.set m_workers_busy (float_of_int (List.length st.slots));
  Obs.Metrics.set m_workers_total (float_of_int st.cfg.workers);
  Obs.Metrics.set m_hit_rate (hit_rate st)

let write_metrics_file st =
  match st.cfg.metrics_file with
  | None -> ()
  | Some path -> (
      refresh_gauges st;
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out tmp in
        output_string oc (Obs.Metrics.to_prometheus Obs.Metrics.default);
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ | Unix.Unix_error _ -> ())

let say st fmt =
  Printf.ksprintf
    (fun s -> match st.cfg.trace with Some f -> f s | None -> ())
    fmt

let record_latency st algorithm seconds =
  let key = M.algorithm_to_string algorithm in
  match Hashtbl.find_opt st.latencies key with
  | Some cell -> cell := seconds :: !cell
  | None -> Hashtbl.add st.latencies key (ref [ seconds ])

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5)))

let latency_summary samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  {
    P.l_count = n;
    l_mean = (if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n);
    l_p50 = percentile a 0.5;
    l_p95 = percentile a 0.95;
  }

let snapshot st =
  refresh_gauges st;
  {
    P.uptime = Unix.gettimeofday () -. st.started;
    requests = st.requests;
    completed = st.completed;
    hits = st.hits;
    misses = st.misses;
    rejected = st.rejected;
    crashes = st.crashes;
    cancelled = st.cancelled;
    queue_depth = Jobq.length st.queue;
    running = List.length st.slots;
    workers_total = st.cfg.workers;
    hit_rate = hit_rate st;
    cache_entries = Cache.length st.cache;
    outcomes =
      Hashtbl.fold (fun k c acc -> (k, !c) :: acc) st.outcome_counts []
      |> List.sort compare;
    per_algorithm =
      Hashtbl.fold
        (fun alg cell acc -> (alg, latency_summary !cell) :: acc)
        st.latencies []
      |> List.sort compare;
    prometheus = Obs.Metrics.to_prometheus Obs.Metrics.default;
  }

(* Replies are best-effort: a client that vanished (EPIPE, reset, send
   timeout) loses its answer, never the daemon. *)
let send st conn reply =
  if conn.c_alive then
    try Frame.write conn.c_fd (Frame.encode Frame.Reply P.reply_codec reply)
    with Unix.Unix_error _ | Sys_error _ ->
      conn.c_alive <- false;
      say st "dropped reply to a dead connection"

(* Close the request span and, under profile_dir, export the job's
   buffered events as a Chrome trace.  [stop] runs before the buffer is
   taken so the request's own Span_end makes it into the file. *)
let finish_profile st ~id ~spans ~request =
  (match request with Some h -> Obs.Span.stop spans h | None -> ());
  match st.cfg.profile_dir with
  | None -> ()
  | Some dir -> (
      match Hashtbl.find_opt st.profiles id with
      | None -> ()
      | Some cell ->
          Hashtbl.remove st.profiles id;
          let events = List.rev !cell in
          let path =
            Filename.concat dir (Printf.sprintf "job-%d.trace.json" id)
          in
          (try
             let oc = open_out path in
             output_string oc
               (Obs.Chrome.of_events ~process_name:"mserve" events);
             close_out oc
           with Sys_error _ -> ());
          say st "job %d: trace written to %s" id path)

(* A job leaving through a non-complete path (queue cancel, shutdown
   drain) still owes its spans a balanced close. *)
let abandon_profile st job =
  (match job.j_queue with
  | Some h ->
      Obs.Span.stop job.j_spans h;
      job.j_queue <- None
  | None -> ());
  finish_profile st ~id:job.j_id ~spans:job.j_spans ~request:job.j_request

(* ---------------- worker pool ---------------- *)

let complete st ?(was_cancelled = false) job (r : T.result) =
  let elapsed = Unix.gettimeofday () -. job.j_submitted in
  st.completed <- st.completed + 1;
  Obs.Metrics.inc m_results;
  note_outcome st r.T.outcome;
  if was_cancelled then st.cancelled <- st.cancelled + 1;
  record_latency st job.j_options.P.algorithm elapsed;
  (* Models leave the service truncated to the instance's own variables:
     solver-internal auxiliaries mean nothing to the client, and cold
     and cache-hit replies for one instance must be identical. *)
  let model =
    Option.map
      (fun m ->
        let n = Wcnf.num_vars job.j_wcnf in
        if Array.length m > n then Array.sub m 0 n else m)
      r.T.model
  in
  (* Only proven optima enter the cache; the model is the proof a
     future hit re-checks. *)
  (match (r.T.outcome, model) with
  | T.Optimum cost, Some model ->
      Cache.store st.cache ~fingerprint:job.j_fingerprint ~cost ~model
  | _ -> ());
  finish_profile st ~id:job.j_id ~spans:job.j_spans ~request:job.j_request;
  journal st (Journal.Completed { id = job.j_id });
  send st job.j_conn
    (P.Result
       { id = job.j_id; outcome = r.T.outcome; model; cached = false; elapsed })

(* Exhausted retries degrade to the checkpointed bracket instead of a
   bare crash report: the lb is certified, and the ub survives only
   when its incumbent model re-verifies against the instance (the dying
   worker may have been arbitrarily corrupted).  A bracket that closes
   on a verified incumbent is a proven optimum. *)
let salvage wcnf ck (r : T.result) =
  match r.T.outcome with
  | T.Crashed { lb; ub; _ } -> (
      let ck = Ck.merge ck { Ck.empty with Ck.lb; ub } in
      if Ck.is_empty ck then r
      else
        match Msu_maxsat.Common.checkpoint_incumbent wcnf ck with
        | Some (u, m) when ck.Ck.lb >= u ->
            { r with T.outcome = T.Optimum u; model = Some m }
        | Some (u, m) ->
            {
              r with
              T.outcome = T.Bounds { lb = ck.Ck.lb; ub = Some u };
              model = Some m;
            }
        | None ->
            { r with T.outcome = T.Bounds { lb = ck.Ck.lb; ub = None }; model = None })
  | _ -> r

(* The worker is reaped: fold its checkpoints into the job, close its
   span, then either respawn the job or deliver the result. *)
let worker_exited st job (e : T.result Workers.exit) =
  let sl = List.find (fun sl -> sl.sl_job == job) st.slots in
  st.slots <- List.filter (fun sl' -> sl' != sl) st.slots;
  (match !(sl.sl_ck) with
  | Some ck -> job.j_ck <- Ck.merge job.j_ck ck
  | None -> ());
  (* The pipe is drained, so every worker span it carried lands inside
     the worker_solve interval. *)
  (match sl.sl_solve with
  | Some h -> Obs.Span.stop job.j_spans ~c1:(Workers.exit_code e.Workers.status) h
  | None -> ());
  let r =
    match e.Workers.result with
    | Ok r -> r
    | Error reason ->
        {
          T.outcome = T.Crashed { reason; lb = 0; ub = None };
          model = None;
          stats = T.empty_stats;
          elapsed = Unix.gettimeofday () -. sl.sl_started;
        }
  in
  (* A worker that died on its own (not the daemon's budget ladder, not
     a cancel) gets another attempt, warm-resumed from its checkpoint,
     until the attempt cap.  Fault injection is stripped so a
     test-armed crash cannot recur forever. *)
  let died_spontaneously = (not e.Workers.termed) && not sl.sl_cancelled in
  let unsound = match r.T.outcome with T.Crashed _ -> true | _ -> false in
  (* crashes count worker deaths, not final outcomes: a crash the
     checkpoint salvages into Bounds (or a retry solves) still
     happened *)
  if unsound && not sl.sl_cancelled then st.crashes <- st.crashes + 1;
  if unsound && died_spontaneously && job.j_attempts < st.cfg.max_attempts then begin
    job.j_options <- { job.j_options with P.fault = None };
    job.j_not_before <-
      Unix.gettimeofday ()
      +. (st.cfg.retry_backoff *. (2. ** float_of_int (job.j_attempts - 1)));
    Obs.Metrics.inc m_retries;
    say st "job %d: worker died (attempt %d/%d), respawning%s" job.j_id
      job.j_attempts st.cfg.max_attempts
      (if Ck.is_empty job.j_ck then ""
       else Printf.sprintf " from checkpoint lb=%d" job.j_ck.Ck.lb);
    st.retries <- st.retries @ [ job ]
  end
  else begin
    let r = if sl.sl_cancelled then r else salvage job.j_wcnf job.j_ck r in
    say st "job %d done: %s" job.j_id (Format.asprintf "%a" T.pp_outcome r.T.outcome);
    complete st ~was_cancelled:sl.sl_cancelled job r
  end

let spawn st job =
  let timeout =
    Option.value job.j_options.P.timeout ~default:st.cfg.default_timeout
  in
  job.j_attempts <- job.j_attempts + 1;
  (* The worker-solve span opens before the fork so the child can hang
     its own tracer under it: worker spans crossing back over the pipe
     then re-parent under this request's timeline by construction. *)
  let solve_h =
    if Obs.Span.enabled job.j_spans then
      Some (Obs.Span.start job.j_spans "worker_solve")
    else None
  in
  let trace_ctx =
    match solve_h with
    | Some h -> Some (Obs.Span.trace_id job.j_spans, Obs.Span.span_of h)
    | None -> None
  in
  (* Events ride the worker's one up pipe next to its checkpoint frames,
     as event frames stamped with the job id, so the daemon's single
     sink demultiplexes by request. *)
  let observe = (not (Obs.is_null st.cfg.sink)) || st.cfg.profile_dir <> None in
  let latest = ref None in
  let started = Unix.gettimeofday () in
  (* The worker owns nothing of the daemon: not the listener, a client
     connection or the journal; the daemon's SIGTERM ladder, not the
     terminal's Ctrl-C, governs it. *)
  let close =
    (st.listen_fd :: List.map (fun c -> c.c_fd) st.conns)
    @ match st.journal with Some j -> [ Journal.fd j ] | None -> []
  in
  let worker =
    Workers.spawn st.pool ~id:job.j_id ~close ~ignore_sigint:true ~events:(job_sink st)
      ~deadline:(started +. timeout)
      ~on_frame:(fun f -> latest := Some (Ck.of_frame f))
      ~on_exit:(worker_exited st job)
      (fun ~up ~down:_ ->
        (match job.j_options.P.fault with Some k -> Fault.arm k | None -> ());
        let deadline = Unix.gettimeofday () +. timeout in
        let guard =
          G.create ~deadline ?max_conflicts:job.j_options.P.max_conflicts ()
        in
        G.set_cancel_target guard;
        let sink = if observe then Workers.event_sink up else Obs.null in
        let spans =
          match trace_ctx with
          | Some (trace, parent) ->
              Obs.Span.create ~trace ~parent ~sink ~id:job.j_id ()
          | None -> Obs.Span.disabled
        in
        let cell = G.Progress.create () in
        (* Stream warm-resume checkpoints to the daemon on the guard's
           ticker cadence; a retried attempt starts from the best
           bracket the previous one managed to flush. *)
        G.set_ticker guard (Ck.writer up cell);
        let config =
          {
            T.default_config with
            T.deadline;
            max_conflicts = job.j_options.P.max_conflicts;
            encoding =
              Option.value job.j_options.P.encoding
                ~default:T.default_config.T.encoding;
            sink;
            spans;
            solve_id = job.j_id;
            guard = Some guard;
            progress = Some cell;
            resume = (if Ck.is_empty job.j_ck then None else Some job.j_ck);
          }
        in
        M.solve_supervised ~config job.j_options.P.algorithm job.j_wcnf)
  in
  say st "job %d -> worker %d (%s, timeout %.1fs%s)" job.j_id (Workers.pid worker)
    (M.algorithm_to_string job.j_options.P.algorithm)
    timeout
    (if job.j_attempts > 1 then
       Printf.sprintf ", attempt %d%s" job.j_attempts
         (if Ck.is_empty job.j_ck then ""
          else
            Printf.sprintf ", warm lb=%d%s" job.j_ck.Ck.lb
              (match job.j_ck.Ck.ub with
              | Some u -> Printf.sprintf " ub=%d" u
              | None -> ""))
     else "");
  st.slots <-
    {
      sl_job = job;
      sl_worker = worker;
      sl_ck = latest;
      sl_solve = solve_h;
      sl_started = started;
      sl_cancelled = false;
    }
    :: st.slots

let dispatch st =
  (* Due retries first: they already passed admission once, and their
     checkpoint goes stale while they wait. *)
  let now = Unix.gettimeofday () in
  let held = ref [] in
  List.iter
    (fun job ->
      if job.j_not_before <= now && List.length st.slots < st.cfg.workers then
        spawn st job
      else held := job :: !held)
    st.retries;
  st.retries <- List.rev !held;
  while
    List.length st.slots < st.cfg.workers && not (Jobq.is_empty st.queue)
  do
    match Jobq.pop st.queue with
    | Some job ->
        ev st ~id:job.j_id
          (Obs.Event.Queue_dequeue { depth = Jobq.length st.queue });
        (match job.j_queue with
        | Some h ->
            Obs.Span.stop job.j_spans ~c1:(Jobq.length st.queue) h;
            job.j_queue <- None
        | None -> ());
        spawn st job
    | None -> ()
  done

(* ---------------- request handling ---------------- *)

let cancelled_result id =
  P.Result
    {
      id;
      outcome = T.Crashed { reason = "cancelled"; lb = 0; ub = None };
      model = None;
      cached = false;
      elapsed = 0.;
    }

let handle_solve st conn (wire : P.wire_wcnf) (options : P.options) =
  st.requests <- st.requests + 1;
  Obs.Metrics.inc m_requests;
  if st.draining then begin
    st.rejected <- st.rejected + 1;
    Obs.Metrics.inc m_rejected;
    send st conn (P.Rejected { reason = "server shutting down" })
  end
  else begin
    match P.of_wire wire with
    | exception _ ->
        st.rejected <- st.rejected + 1;
        Obs.Metrics.inc m_rejected;
        send st conn (P.Rejected { reason = "malformed instance" })
    | w ->
        let id = st.next_id in
        st.next_id <- id + 1;
        let submitted = Unix.gettimeofday () in
        (* Per-request tracer: live whenever the daemon streams events
           or profiles.  The request span anchors everything else —
           fingerprint, cache lookup, queue wait, the worker-solve
           interval and the worker's own forwarded spans all re-parent
           under it. *)
        let profiling = st.cfg.profile_dir <> None in
        let spans =
          if profiling || not (Obs.is_null st.cfg.sink) then begin
            if profiling then Hashtbl.replace st.profiles id (ref []);
            Obs.Span.create ~sink:(job_sink st) ~id ()
          end
          else Obs.Span.disabled
        in
        let request =
          if Obs.Span.enabled spans then begin
            let h = Obs.Span.start spans "request" in
            Obs.Span.set_anchor spans (Obs.Span.span_of h);
            Some h
          end
          else None
        in
        let fingerprint =
          Obs.Span.wrap spans "fingerprint" (fun () -> Canon.fingerprint w)
        in
        let serve_hit (cost, model) =
          st.hits <- st.hits + 1;
          st.completed <- st.completed + 1;
          ev st ~id Obs.Event.Cache_hit;
          Obs.Metrics.inc m_results;
          note_outcome st (T.Optimum cost);
          let elapsed = Unix.gettimeofday () -. submitted in
          record_latency st options.P.algorithm elapsed;
          say st "job %d: cache hit (%s, cost %d)" id
            (String.sub fingerprint 0 8)
            cost;
          finish_profile st ~id ~spans ~request;
          send st conn (P.Accepted { id });
          send st conn
            (P.Result
               {
                 id;
                 outcome = T.Optimum cost;
                 model = Some model;
                 cached = true;
                 elapsed;
               })
        in
        let enqueue () =
          st.misses <- st.misses + 1;
          if options.P.use_cache then ev st ~id Obs.Event.Cache_miss;
          let job =
            {
              j_id = id;
              j_wcnf = w;
              j_wire = wire;
              j_fingerprint = fingerprint;
              j_options = options;
              j_conn = conn;
              j_submitted = submitted;
              j_attempts = 0;
              j_not_before = 0.;
              j_ck = Ck.empty;
              j_spans = spans;
              j_request = request;
              j_queue = None;
            }
          in
          if Jobq.push st.queue ~priority:options.P.priority job then begin
            (* Journal before the client hears [Accepted]: once the
               accept is on the wire, the job survives a daemon
               crash. *)
            journal st
              (Journal.Admitted { id; wcnf = wire; options; submitted });
            ev st ~id
              (Obs.Event.Queue_enqueue { depth = Jobq.length st.queue });
            if Obs.Span.enabled spans then
              job.j_queue <-
                Some (Obs.Span.start spans "queue_wait");
            send st conn (P.Accepted { id })
          end
          else begin
            st.rejected <- st.rejected + 1;
            Obs.Metrics.inc m_rejected;
            finish_profile st ~id ~spans ~request;
            send st conn
              (P.Rejected
                 {
                   reason =
                     Printf.sprintf "queue full (capacity %d)"
                       (Jobq.capacity st.queue);
                 })
          end
        in
        if options.P.use_cache then
          match
            Obs.Span.wrap_counted spans "cache_lookup"
              ~counters:(fun () -> (Jobq.length st.queue, 0))
              (fun () -> Cache.find st.cache ~fingerprint w)
          with
          | Some hit -> serve_hit hit
          | None -> enqueue ()
        else enqueue ()
  end

let handle_cancel st conn id =
  match
    match Jobq.remove st.queue (fun j -> j.j_id = id) with
    | Some _ as found -> found
    | None -> (
        match List.partition (fun j -> j.j_id = id) st.retries with
        | [ job ], rest ->
            st.retries <- rest;
            Some job
        | _ -> None)
  with
  | Some job ->
      st.cancelled <- st.cancelled + 1;
      abandon_profile st job;
      journal st (Journal.Completed { id });
      send st job.j_conn (cancelled_result id);
      send st conn (P.Cancel_ack { id; found = true })
  | None -> (
      match List.find_opt (fun sl -> sl.sl_job.j_id = id) st.slots with
      | Some sl ->
          (* Start the ladder now: the worker flushes its partial
             bounds, and the normal reap path delivers them to the
             submitting client. *)
          sl.sl_cancelled <- true;
          Workers.cancel sl.sl_worker;
          send st conn (P.Cancel_ack { id; found = true })
      | None -> send st conn (P.Cancel_ack { id; found = false }))

let start_shutdown st ~drain =
  st.draining <- true;
  if not drain then begin
    List.iter
      (fun job ->
        st.cancelled <- st.cancelled + 1;
        abandon_profile st job;
        journal st (Journal.Completed { id = job.j_id });
        send st job.j_conn (cancelled_result job.j_id))
      (Jobq.drain st.queue @ st.retries);
    st.retries <- [];
    List.iter
      (fun sl ->
        sl.sl_cancelled <- true;
        Workers.cancel sl.sl_worker)
      st.slots
  end

let handle_request st conn = function
  | P.Solve { wcnf; options } -> handle_solve st conn wcnf options
  | P.Stats -> send st conn (P.Stats_report (snapshot st))
  | P.Cancel id -> handle_cancel st conn id
  | P.Shutdown { drain } ->
      say st "shutdown requested (drain=%b)" drain;
      send st conn P.Bye;
      start_shutdown st ~drain

(* ---------------- connection plumbing ---------------- *)

let accept_new st =
  match Unix.accept st.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      (* A client that stops reading must stall its own replies, not
         the daemon: bound every send. *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
       with Unix.Unix_error _ -> ());
      st.conns <- { c_fd = fd; c_in = Frame.reader (); c_alive = true } :: st.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()

(* A frame of another version gets a [Rejected] naming both versions; a
   bad frame closes the connection, since nothing after it can be
   trusted; a whole frame whose payload fails its codec is answered with
   the codec's message and the stream goes on. *)
let read_conn st conn =
  let request f =
    match Frame.decode Frame.Request P.request_codec f with
    | req -> handle_request st conn req
    | exception Frame.Malformed reason ->
        st.rejected <- st.rejected + 1;
        Obs.Metrics.inc m_rejected;
        send st conn (P.Rejected { reason })
  in
  let closed =
    match Frame.drain conn.c_in conn.c_fd request with
    | open_ -> not open_
    | exception Frame.Version_mismatch v ->
        let reason = Printf.sprintf "protocol version mismatch (client %d, server %d)" v Frame.version in
        send st conn (P.Rejected { reason });
        say st "rejected client speaking protocol v%d (server v%d)" v Frame.version;
        true
    | exception (Frame.Malformed _ | Failure _ | Unix.Unix_error _) ->
        (* Garbage on the wire: drop the connection, keep the daemon. *)
        true
  in
  if closed then conn.c_alive <- false

let close_dead st =
  let dead, alive = List.partition (fun c -> not c.c_alive) st.conns in
  List.iter
    (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    dead;
  st.conns <- alive

(* ---------------- main loop ---------------- *)

let signal_shutdown = ref false

let run ?(handle_signals = false) cfg =
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let cache =
    match cfg.cache_file with
    | Some path when Sys.file_exists path ->
        Cache.load ~capacity:cfg.cache_capacity path
    | _ -> Cache.create ~capacity:cfg.cache_capacity
  in
  (* Replay the journal: every job admitted by a previous incarnation
     and never completed is owed a result.  The journal is compacted to
     exactly those records before appending resumes. *)
  let jnl, replayed, replayed_max_id =
    match cfg.journal_file with
    | None -> (None, [], 0)
    | Some path ->
        let past = Journal.replay path in
        let keep = Journal.pending past in
        let max_id =
          List.fold_left
            (fun acc r ->
              match r with
              | Journal.Admitted { id; _ } | Journal.Completed { id } ->
                  max acc id)
            0 past
        in
        (Some (Journal.restart path ~keep), keep, max_id)
  in
  let st =
    {
      cfg;
      listen_fd;
      started = Unix.gettimeofday ();
      conns = [];
      queue = Jobq.create ~capacity:cfg.queue_capacity;
      pool = Workers.create ~sink:cfg.sink ~grace:cfg.grace ~codec:T.result_codec ();
      slots = [];
      retries = [];
      cache;
      journal = jnl;
      next_id = replayed_max_id + 1;
      draining = false;
      requests = 0;
      completed = 0;
      hits = 0;
      misses = 0;
      rejected = 0;
      crashes = 0;
      cancelled = 0;
      latencies = Hashtbl.create 8;
      outcome_counts = Hashtbl.create 4;
      last_metrics_write = 0.;
      profiles = Hashtbl.create 8;
    }
  in
  say st "listening on %s (%d workers, queue %d, cache %d%s)" cfg.socket_path
    cfg.workers cfg.queue_capacity cfg.cache_capacity
    (match cfg.cache_file with
    | Some f -> Printf.sprintf ", persisted to %s (%d loaded)" f (Cache.length cache)
    | None -> "");
  (* Re-enqueue the replayed jobs.  Their submitting connections are
     gone; results land in the cache (and the journal's Completed
     record), where a resubmitting client finds them. *)
  List.iter
    (fun r ->
      match r with
      | Journal.Admitted { id; wcnf; options; submitted } -> (
          match P.of_wire wcnf with
          | exception _ -> journal st (Journal.Completed { id })
          | w ->
              let job =
                {
                  j_id = id;
                  j_wcnf = w;
                  j_wire = wcnf;
                  j_fingerprint = Canon.fingerprint w;
                  j_options = { options with P.fault = None };
                  j_conn =
                    { c_fd = Unix.stdin; c_in = Frame.reader (); c_alive = false };
                  j_submitted = submitted;
                  j_attempts = 0;
                  j_not_before = 0.;
                  j_ck = Ck.empty;
                  (* Replayed jobs have no live client and no request
                     span to hang a profile on. *)
                  j_spans = Obs.Span.disabled;
                  j_request = None;
                  j_queue = None;
                }
              in
              if Jobq.push st.queue ~priority:options.P.priority job then begin
                Obs.Metrics.inc m_replayed;
                say st "job %d replayed from the journal" id
              end
              else begin
                (* Queue shrank across the restart: give the job up
                   rather than wedge the daemon on it forever. *)
                journal st (Journal.Completed { id });
                say st "job %d replayed but dropped (queue full)" id
              end)
      | Journal.Completed _ -> ())
    replayed;
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_handlers =
    if handle_signals then begin
      signal_shutdown := false;
      let h = Sys.Signal_handle (fun _ -> signal_shutdown := true) in
      Some (Sys.signal Sys.sigint h, Sys.signal Sys.sigterm h)
    end
    else None
  in
  let finally () =
    Sys.set_signal Sys.sigpipe old_sigpipe;
    (match old_handlers with
    | Some (oi, ot) ->
        Sys.set_signal Sys.sigint oi;
        Sys.set_signal Sys.sigterm ot
    | None -> ());
    List.iter
      (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      st.conns;
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    write_metrics_file st;
    (match st.journal with Some j -> Journal.close j | None -> ());
    match cfg.cache_file with
    | Some path -> Cache.save st.cache path
    | None -> ()
  in
  Fun.protect ~finally @@ fun () ->
  let rec loop () =
    if !signal_shutdown && not st.draining then begin
      say st "signal: shutting down";
      start_shutdown st ~drain:false
    end;
    dispatch st;
    close_dead st;
    (let now = Unix.gettimeofday () in
     if now -. st.last_metrics_write > 2.0 then begin
       st.last_metrics_write <- now;
       write_metrics_file st
     end);
    if st.draining && Jobq.is_empty st.queue && st.slots = [] && st.retries = []
    then say st "drained; exiting"
    else begin
      (* One select: the workers' pipes (frames, reaps and the kill
         ladder are the pool's) plus the listener and connections. *)
      let readable =
        Workers.poll st.pool
          ~read:(st.listen_fd :: List.map (fun c -> c.c_fd) st.conns)
          ~timeout:0.02 ()
      in
      if List.mem st.listen_fd readable then accept_new st;
      List.iter
        (fun c -> if c.c_alive && List.mem c.c_fd readable then read_conn st c)
        st.conns;
      loop ()
    end
  in
  loop ()
