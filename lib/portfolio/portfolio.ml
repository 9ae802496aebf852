module G = Msu_guard.Guard
module Fault = Msu_guard.Fault
module Obs = Msu_obs.Obs
module T = Msu_maxsat.Types
module M = Msu_maxsat.Maxsat
module Subproc = Msu_harness.Runner.Subproc
module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf

type spec = {
  label : string;
  algorithm : M.algorithm;
  encoding : Msu_card.Card.encoding;
  fault : Fault.kind option;
}

let spec ?encoding ?fault algorithm =
  let encoding =
    match encoding with
    | Some e -> e
    | None -> (
        match algorithm with
        | M.Msu4_v1 -> Msu_card.Card.Bdd
        | _ -> Msu_card.Card.Sortnet)
  in
  let label =
    match algorithm with
    | M.Sls -> "sls" (* no encoding, no solver: the suffix would only mislead *)
    | _ ->
        Printf.sprintf "%s/%s"
          (M.algorithm_to_string algorithm)
          (Msu_card.Card.encoding_to_string encoding)
  in
  { label; algorithm; encoding; fault }

(* Diversity order: the paper's msu4 first, then the other core-guided
   algorithms, then the PBO baselines and branch and bound.  Each entry
   runs a different search: msu4-v1 is left out because it runs
   msu4-v2's search (the encoding is not read), and msu1 because it
   runs wpm1's on unit weights and cannot run on weighted instances.
   Racing two identical searches buys nothing. *)
let default_specs n =
  let base =
    [
      spec M.Msu4_v2;
      spec M.Msu3;
      spec M.Oll;
      spec M.Wpm1;
      spec M.Pbo_linear;
      spec M.Pbo_binary;
      spec M.Branch_bound;
    ]
  in
  let rec take k = function
    | x :: tl when k > 0 -> x :: take (k - 1) tl
    | _ -> []
  in
  take (max 1 n) base

type worker_report = {
  w_label : string;
  w_algorithm : M.algorithm;
  w_outcome : T.outcome;
  w_time : float;
  w_stats : T.stats;
}

type result = {
  outcome : T.outcome;
  model : bool array option;
  winner : string option;
  lb : int;
  ub : int option;
  reports : worker_report list;
  disagreements : string list;
  stats : T.stats;
  elapsed : float;
}

(* ---------------- wire protocol ----------------

   Worker -> parent (up pipe):  "l <n>"  improved lower bound
                                "u <n>"  improved upper bound
                                "m <cost> <bits>"  improved incumbent
                                             model ('0'/'1' per var); the
                                             parent re-costs it before
                                             trusting it
                                "c <lbd> <lits>"  share-safe learnt
                                             clause (packed literals)
                                "e <event>"  observability event
                                             (Obs.Event.to_wire form)
   Parent -> worker (down pipe): "b <lb> <ub>"  best global bounds
                                 (<ub> = -1 when none known yet), and
                                 rebroadcast "c" frames from peers.
   Line-oriented; partial reads are buffered until the newline.  All
   frames are validated on receipt — junk tokens, torn frames, negative
   or crossed bounds are dropped, never installed. *)

module Wire = struct
  let bounds_line ~lb ~ub =
    Printf.sprintf "b %d %d" lb (match ub with None -> -1 | Some u -> u)

  (* "b <lb> <ub>": [ub < 0] encodes "none known yet" and must never be
     installed as a real upper bound; a crossed bracket ([lb > ub]) is a
     corrupt frame, not a bound. *)
  let parse_bounds line =
    match String.split_on_char ' ' line with
    | [ "b"; lb; ub ] -> (
        match (int_of_string_opt lb, int_of_string_opt ub) with
        | Some lb, Some ub when lb >= 0 ->
            let ub = if ub < 0 then None else Some ub in
            (match ub with
            | Some u when lb > u -> None
            | _ -> Some (lb, ub))
        | _ -> None)
    | _ -> None

  let clause_line ~lbd lits =
    let b = Buffer.create 64 in
    Buffer.add_string b "c ";
    Buffer.add_string b (string_of_int lbd);
    Array.iter
      (fun l ->
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int l))
      lits;
    Buffer.contents b

  (* "c <lbd> <packed-lits…>": packed literals are nonnegative ints; the
     exporter caps length at 8, so anything much longer is junk. *)
  let max_clause_lits = 64

  let parse_clause line =
    match String.split_on_char ' ' line with
    | "c" :: lbd :: (_ :: _ as lits) when List.length lits <= max_clause_lits -> (
        match int_of_string_opt lbd with
        | Some lbd when lbd >= 0 -> (
            let ok = ref true in
            let arr =
              Array.of_list
                (List.map
                   (fun t ->
                     match int_of_string_opt t with
                     | Some l when l >= 0 -> l
                     | _ ->
                         ok := false;
                         0)
                   lits)
            in
            match !ok with true -> Some (lbd, arr) | false -> None)
        | _ -> None)
    | _ -> None

  let model_line ~cost m =
    Printf.sprintf "m %d %s" cost
      (String.init (Array.length m) (fun i -> if m.(i) then '1' else '0'))

  let parse_model line =
    match String.split_on_char ' ' line with
    | [ "m"; cost; bits ] -> (
        match int_of_string_opt cost with
        | Some c when c >= 0 && bits <> "" ->
            let ok = ref true in
            let m =
              Array.init (String.length bits) (fun i ->
                  match bits.[i] with
                  | '1' -> true
                  | '0' -> false
                  | _ ->
                      ok := false;
                      false)
            in
            if !ok then Some (c, m) else None
        | _ -> None)
    | _ -> None

  (* Dedup key: the clause as a set of literals.  Sorted packed ints, so
     permutations of the same clause collide. *)
  let digest lits =
    let s = Array.copy lits in
    Array.sort compare s;
    String.concat "," (Array.to_list (Array.map string_of_int s))

  (* Complete lines accumulated in [buf]; the trailing partial line (if
     any) stays buffered. *)
  let take_lines buf =
    let s = Buffer.contents buf in
    match String.rindex_opt s '\n' with
    | None -> []
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        String.split_on_char '\n' (String.sub s 0 i)
        |> List.filter (fun l -> l <> "")

  (* Per-peer output buffer for a nonblocking pipe: a short write or
     EAGAIN keeps the unsent tail queued, and the next [flush] (on the
     select loop's writable round) resumes exactly where the kernel
     stopped — a broadcast is never torn mid-line or silently dropped. *)
  module Outbuf = struct
    type t = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

    let create () = { data = Bytes.create 256; pos = 0; len = 0 }
    let pending t = t.len > t.pos

    let compact t =
      if t.pos > 0 then begin
        Bytes.blit t.data t.pos t.data 0 (t.len - t.pos);
        t.len <- t.len - t.pos;
        t.pos <- 0
      end

    let queue t line =
      compact t;
      let n = String.length line + 1 in
      if t.len + n > Bytes.length t.data then begin
        let cap = ref (max 256 (Bytes.length t.data)) in
        while t.len + n > !cap do
          cap := !cap * 2
        done;
        let d = Bytes.create !cap in
        Bytes.blit t.data 0 d 0 t.len;
        t.data <- d
      end;
      Bytes.blit_string line 0 t.data t.len (n - 1);
      Bytes.set t.data (t.len + n - 1) '\n';
      t.len <- t.len + n

    let flush t fd =
      let continue = ref true in
      while !continue && pending t do
        match Unix.write fd t.data t.pos (t.len - t.pos) with
        | 0 -> continue := false
        | n -> t.pos <- t.pos + n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            continue := false
        | exception Unix.Unix_error _ ->
            (* Dead peer (EPIPE with SIGPIPE ignored): drop the backlog. *)
            t.pos <- 0;
            t.len <- 0;
            continue := false
      done
  end
end

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  try ignore (Unix.write fd b 0 (Bytes.length b)) with Unix.Unix_error _ -> ()

let take_lines = Wire.take_lines

(* Parent-side sharing metrics (the workers are forked, so their
   process-local registries never reach this process). *)
let m_shared =
  Obs.Metrics.counter ~help:"learnt clauses accepted into the shared pool"
    "msu_shared_clauses_total"

let m_shared_dup =
  Obs.Metrics.counter ~help:"re-exports dropped by the dedup digest"
    "msu_shared_duplicates_total"

let m_shared_rej =
  Obs.Metrics.counter ~help:"malformed or out-of-range shared frames dropped"
    "msu_shared_rejected_total"

let m_incumbents =
  Obs.Metrics.counter ~help:"streamed models accepted after parent re-costing"
    "msu_shared_incumbents_total"

(* Worker-exit split (the "label" is in the name: the registry has no
   label dimension).  Registration is idempotent, so the service reaps
   into the same pair. *)
let m_exit_normal =
  Obs.Metrics.counter ~help:"workers that exited normally (WEXITED)"
    "msu_worker_exit_total_normal"

let m_exit_signaled =
  Obs.Metrics.counter ~help:"workers killed by a signal (WSIGNALED/WSTOPPED)"
    "msu_worker_exit_total_signaled"

(* ---------------- worker (child process) ---------------- *)

let run_worker ~deadline ~max_conflicts ~down ~up ~tmp ~index ~observe ~share
    ~seed_ub ~trace_ctx sp w =
  (* First thing in the child: drop the monotonic clamp inherited from
     the parent, or our first timestamps (and span durations) would be
     pinned to whatever the parent last read. *)
  Obs.after_fork ();
  (match sp.fault with Some k -> Fault.arm k | None -> ());
  (* Kill-mid-flush harness: the frame's trailing newline never leaves
     the worker and no report file is written, so the bound survives
     only if the parent's EOF residual flush parses the torn line. *)
  if Fault.consume Fault.Torn_publish then begin
    ignore (Unix.write_substring up "l 1" 0 3);
    Unix._exit 2
  end;
  Unix.set_nonblock down;
  let guard = G.create ~deadline ?max_conflicts () in
  G.set_cancel_target guard;
  (* The parent's pre-seeded upper bound goes straight into the guard
     before the solve starts — same channel a warm-resume checkpoint
     uses.  Waiting for the first "b" broadcast instead would let the
     solver burn its opening iterations (often the expensive ones)
     without the bound. *)
  (match seed_ub with
  | Some u -> G.install_bounds guard ~lb:0 ~ub:(Some u)
  | None -> ());
  let cell = G.Progress.create () in
  let inbuf = Buffer.create 128 in
  let chunk = Bytes.create 4096 in
  let sent_lb = ref (-1) and sent_ub = ref max_int in
  let publish () =
    let lb = G.Progress.lb cell in
    if lb > !sent_lb then begin
      sent_lb := lb;
      send_line up ("l " ^ string_of_int lb)
    end;
    match G.Progress.ub cell with
    | Some u when u < !sent_ub ->
        sent_ub := u;
        send_line up ("u " ^ string_of_int u);
        (* Stream the incumbent itself alongside the bound: the parent
           re-costs it, so a model-backed ub survives even a SIGKILL and
           can close a cross-worker gap the bare "u" frame cannot. *)
        (match G.Progress.model cell with
        | Some m -> send_line up (Wire.model_line ~cost:u m)
        | None -> ())
    | _ -> ()
  in
  (* Foreign clauses received from the parent, drained by the solver at
     its next restart boundary (Solver.set_importer). *)
  let imports = ref [] in
  let drain_broadcasts () =
    let rec rd () =
      match Unix.read down chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes inbuf chunk 0 n;
          rd ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    rd ();
    take_lines inbuf
    |> List.iter (fun line ->
           match Wire.parse_bounds line with
           | Some (lb, ub) -> G.install_bounds guard ~lb ~ub
           | None -> (
               if share then
                 match Wire.parse_clause line with
                 | Some (_, lits) ->
                     imports := Array.map Lit.of_int_unsafe lits :: !imports
                 | None -> ()))
  in
  let ticker () =
    publish ();
    drain_broadcasts ();
    (* Stop as soon as the global bracket collapses: combining our own
       bounds with the externally proved ones, lb = ub means the
       portfolio as a whole is done and the parent has (or will get)
       the winning model from whoever proved the ub. *)
    let lb = max (G.Progress.lb cell) (G.external_lb guard) in
    let ub =
      match (G.Progress.ub cell, G.external_ub guard) with
      | Some a, Some b -> min a b
      | Some a, None | None, Some a -> a
      | None, None -> max_int
    in
    if ub < max_int && lb >= ub then G.trip guard G.Cancelled
  in
  G.set_ticker guard ticker;
  (* Event forwarding rides the existing up pipe: each event becomes one
     "e <wire>" line, demultiplexed in the parent by its solve id (the
     worker's spec index). *)
  let sink =
    if observe then Obs.of_fn (fun ev -> send_line up ("e " ^ Obs.Event.to_wire ev))
    else Obs.null
  in
  (* Clause sharing endpoints: exports go straight up the pipe (the up
     fd is blocking, so frames are never torn); imports come from the
     broadcast queue filled above. *)
  let share_endpoints =
    if share then
      Some
        {
          T.sh_export =
            (fun ~lbd lits ->
              send_line up (Wire.clause_line ~lbd (Array.map Lit.to_int lits)));
          T.sh_drain =
            (fun () ->
              let l = !imports in
              imports := [];
              List.rev l);
        }
    else None
  in
  (* Cross-process trace propagation: the tracer is created with the
     coordinator's trace id and request span as anchor, so every span
     this worker sends up the pipe already carries the right lineage —
     the parent just forwards the frames. *)
  let spans =
    match trace_ctx with
    | Some (trace, parent) -> Obs.Span.create ~trace ~parent ~sink ~id:index ()
    | None -> Obs.Span.disabled
  in
  let config =
    {
      T.default_config with
      T.deadline;
      max_conflicts;
      encoding = sp.encoding;
      sink;
      solve_id = index;
      guard = Some guard;
      progress = Some cell;
      share = share_endpoints;
      spans;
    }
  in
  (* Nothing may escape a forked worker: an exception unwinding past
     this frame would run the parent's continuation (the caller's whole
     program) a second time in the child.  Trap everything, write what
     we have, and _exit. *)
  let result =
    try
      let r = M.solve_supervised ~config sp.algorithm w in
      (* Terminal publication: the parent learns the final bounds from
         the pipe even before it reaps us and reads the full report. *)
      G.Progress.note_lb cell (fst (T.outcome_bounds r.T.outcome));
      publish ();
      (Ok r : (T.result, string) Stdlib.result)
    with e -> Error (Printexc.to_string e)
  in
  Subproc.write_result tmp result;
  Unix._exit (match result with Ok _ -> 0 | Error _ -> 2)

(* ---------------- parent ---------------- *)

type worker_state = {
  st_index : int;
  st_spec : spec;
  st_pid : int;
  st_up : Unix.file_descr;  (* read end of worker's up pipe *)
  st_down : Unix.file_descr;  (* write end of worker's down pipe *)
  st_tmp : string;
  st_buf : Buffer.t;
  st_out : Wire.Outbuf.t;  (* unsent down-pipe bytes, flushed on select *)
  mutable st_lb : int;  (* best bounds this worker published *)
  mutable st_ub : int;  (* max_int = none *)
  mutable st_model : (int * bool array) option;
      (* best streamed incumbent, re-costed by the parent *)
  mutable st_alive : bool;
  mutable st_eof : bool;
  mutable st_report : (T.result, string) Stdlib.result option;
  mutable st_status : Unix.process_status option;
}

let solve ?specs ?(jobs = 4) ?timeout ?(grace = 1.0) ?max_conflicts ?trace
    ?(sink = Obs.null) ?(spans = Obs.Span.disabled) ?(handle_sigint = false)
    ?(share_clauses = false) ?(sls_worker = false) w =
  let specs =
    match specs with
    | Some [] -> invalid_arg "Portfolio.solve: empty spec list"
    | Some s -> s
    | None -> default_specs jobs
  in
  let say fmt =
    Printf.ksprintf (fun s -> match trace with Some f -> f s | None -> ()) fmt
  in
  let t0 = Unix.gettimeofday () in
  (* SLS runs in two roles, both additive (it proves nothing, so it never
     replaces an exact spec).  First a pre-seed sprint, in-process and
     before any fork: a few tens of milliseconds of flips whose best
     feasible model seeds [best_ub] and rides out in the very first "b"
     broadcast, so every exact worker starts with a real incumbent to
     prune against instead of discovering one independently.  Second, a
     rider process forked lazily in the pump only once the race has
     outlived a startup delay — an incomplete solver racing the exact
     workers from t=0 pays pure CPU-share tax on instances they decide
     quickly (it can never decide the race itself), so easy instances
     pay nothing at all for it. *)
  let seed_incumbent =
    (* The sprint's cost floor is building the flip state over every
       clause, so past a few thousand clauses even zero flips would
       blow the wall budget — skip outright; on instances that big the
       exact workers find their own first incumbent faster than the
       sprint could return one. *)
    if sls_worker && Wcnf.num_hard w + Wcnf.num_soft w <= 4_000 then
      match
        Msu_maxsat.Local_search.best_cost ~max_flips:10_000 ~stagnation:3_000
          ~budget:0.012 ~seed:1 w
      with
      | Some (_, m) -> (
          (* Re-cost before trusting, same as any streamed incumbent. *)
          match Wcnf.cost_of_model w m with
          | Some c -> Some (c, m)
          | None -> None)
      | None -> None
    else None
  in
  let deadline = match timeout with None -> infinity | Some t -> t0 +. t in
  let flush = Subproc.flush_grace grace in
  let term_at = deadline +. grace in
  (* A worker that died mid-broadcast must not kill the parent. *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe)
  @@ fun () ->
  (* All pipes are created before any fork so every child can close the
     ends that belong to its siblings. *)
  let observe = not (Obs.is_null sink) in
  (* Trace context handed to every worker at fork time; the anchor is
     the caller's request span, so worker spans re-parent under it. *)
  let trace_ctx =
    if Obs.Span.enabled spans then
      Some (Obs.Span.trace_id spans, Obs.Span.current spans)
    else None
  in
  let plumbing =
    List.mapi
      (fun index sp ->
        let down_rd, down_wr = Unix.pipe () in
        let up_rd, up_wr = Unix.pipe () in
        (index, sp, Filename.temp_file "msu-portfolio" ".bin", down_rd, down_wr,
         up_rd, up_wr))
      specs
  in
  (* Children inherit the SIGTERM→cancel disposition from the fork
     itself, so a cancellation arriving before a child finishes its own
     setup still trips its guard instead of killing it outright (the
     parent's disposition is restored once every worker is forked; with
     no cancel target registered the inherited handler is a no-op until
     the worker registers its guard). *)
  let old_sigterm =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> G.cancel_current ()))
  in
  (* Mutable: the lazy SLS rider (below) appends a late-forked worker
     while the pump is already running. *)
  let states =
    ref
    @@ List.map
      (fun (index, sp, tmp, down_rd, down_wr, up_rd, up_wr) ->
        match Unix.fork () with
        | 0 ->
            (* When the parent fields Ctrl-C for the whole portfolio,
               the terminal's SIGINT must not also kill the workers
               directly — the parent's SIGTERM ladder is what lets them
               flush their partial bounds first. *)
            if handle_sigint then Sys.set_signal Sys.sigint Sys.Signal_ignore;
            List.iter
              (fun (_, _, _, dr, dw, ur, uw) ->
                List.iter
                  (fun fd ->
                    if fd <> down_rd && fd <> up_wr then
                      try Unix.close fd with Unix.Unix_error _ -> ())
                  [ dr; dw; ur; uw ])
              plumbing;
            Subproc.child_setup
              ~alarm_after:
                (match timeout with
                | None -> infinity
                | Some t -> t +. (2. *. grace) +. flush)
              ();
            run_worker ~deadline ~max_conflicts ~down:down_rd ~up:up_wr ~tmp ~index
              ~observe ~share:share_clauses
              ~seed_ub:(Option.map fst seed_incumbent)
              ~trace_ctx sp w
        | pid ->
            Unix.close down_rd;
            Unix.close up_wr;
            Unix.set_nonblock down_wr;
            Obs.emit sink ~id:index (Obs.Event.Worker_spawn { pid });
            {
              st_index = index;
              st_spec = sp;
              st_pid = pid;
              st_up = up_rd;
              st_down = down_wr;
              st_tmp = tmp;
              st_buf = Buffer.create 128;
              st_out = Wire.Outbuf.create ();
              st_lb = 0;
              st_ub = max_int;
              st_model = None;
              st_alive = true;
              st_eof = false;
              st_report = None;
              st_status = None;
            })
      plumbing
  in
  Sys.set_signal Sys.sigterm old_sigterm;
  let num_specs = List.length specs in
  let best_lb = ref 0
  and best_ub =
    (* The pre-seed is the bracket's starting point: the workers got it
       installed at fork, and the merge pairs it with the seed model. *)
    ref (match seed_incumbent with Some (c, _) -> c | None -> max_int)
  in
  (match seed_incumbent with
  | Some (c, _) -> say "c [portfolio] sls pre-seed -> ub %d (installed at fork)" c
  | None -> ());
  let cancel_started = ref None in
  let cancel_all why =
    if !cancel_started = None then begin
      say "c [portfolio] cancelling remaining workers (%s)" why;
      cancel_started := Some (Unix.gettimeofday ());
      List.iter
        (fun st -> if st.st_alive then Subproc.kill st.st_pid Sys.sigterm)
        !states
    end
  in
  (* Ctrl-C in the parent cancels the whole race through the ladder:
     workers get SIGTERM, flush their bounds, and the normal merge
     still runs — no orphaned children, no lost partial bounds. *)
  let old_sigint =
    if handle_sigint then
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> cancel_all "interrupt")))
    else None
  in
  let restore_sigint () =
    match old_sigint with
    | Some h -> Sys.set_signal Sys.sigint h
    | None -> ()
  in
  (* All parent->worker traffic goes through the per-worker out-buffer:
     the down pipes are nonblocking, so a full pipe (or a short write)
     parks the tail in the buffer and the pump's writable-select round
     finishes the job — no torn or dropped broadcast. *)
  let send st line =
    Wire.Outbuf.queue st.st_out line;
    Wire.Outbuf.flush st.st_out st.st_down
  in
  let broadcast () =
    let line =
      Wire.bounds_line ~lb:!best_lb
        ~ub:(if !best_ub = max_int then None else Some !best_ub)
    in
    List.iter (fun st -> if st.st_alive then send st line) !states
  in
  (* Fold worker bounds into the global bracket; rebroadcast on
     improvement and start cancellation once the bracket collapses. *)
  let note_bounds st lb ub =
    if lb > st.st_lb then st.st_lb <- lb;
    (match ub with Some u when u < st.st_ub -> st.st_ub <- u | _ -> ());
    let improved = ref false in
    if st.st_lb > !best_lb then begin
      best_lb := st.st_lb;
      improved := true
    end;
    if st.st_ub < !best_ub then begin
      best_ub := st.st_ub;
      improved := true
    end;
    if !improved then begin
      say "c [portfolio] %s -> global bounds [%d, %s]" st.st_spec.label !best_lb
        (if !best_ub = max_int then "?" else string_of_int !best_ub);
      broadcast ();
      if !best_ub < max_int && !best_lb >= !best_ub then
        cancel_all "bounds met"
    end
  in
  let num_vars_w = Wcnf.num_vars w in
  (* Dedup digest over every clause ever accepted into the shared pool:
     re-exports (from any worker) are dropped, so the rebroadcast fan-out
     is linear in the number of distinct clauses. *)
  let seen_clauses : (string, unit) Hashtbl.t = Hashtbl.create 97 in
  let handle_line st line =
    match String.split_on_char ' ' line with
    | [ "l"; v ] -> (
        match int_of_string_opt v with
        | Some lb when lb >= 0 -> note_bounds st lb None
        | _ -> ())
    | [ "u"; v ] -> (
        match int_of_string_opt v with
        | Some ub when ub >= 0 -> note_bounds st 0 (Some ub)
        | _ -> ())
    | "m" :: _ -> (
        (* Streamed incumbent: certified by re-costing against the
           instance here — the claimed cost is only a hint, and a model
           that falsifies a hard clause is rejected outright. *)
        match Wire.parse_model line with
        | Some (_claimed, bits) when Array.length bits >= num_vars_w -> (
            let m =
              if Array.length bits = num_vars_w then bits
              else Array.sub bits 0 num_vars_w
            in
            match Wcnf.cost_of_model w m with
            | Some c ->
                let improved =
                  match st.st_model with Some (c0, _) -> c < c0 | None -> true
                in
                if improved then begin
                  st.st_model <- Some (c, m);
                  Obs.emit sink ~id:st.st_index (Obs.Event.Incumbent { cost = c });
                  Obs.Metrics.inc m_incumbents;
                  note_bounds st 0 (Some c)
                end
            | None -> Obs.Metrics.inc m_shared_rej)
        | Some _ | None -> Obs.Metrics.inc m_shared_rej)
    | "c" :: _ when share_clauses -> (
        match Wire.parse_clause line with
        | Some (lbd, lits)
          when Array.for_all (fun l -> l lsr 1 < num_vars_w) lits ->
            (* The var bound is a soundness fence: a clause mentioning
               variables past the instance's (selectors, totalizer
               internals) escaped a worker's share-safety tracking and
               must not reach its peers. *)
            let key = Wire.digest lits in
            if Hashtbl.mem seen_clauses key then Obs.Metrics.inc m_shared_dup
            else begin
              Hashtbl.add seen_clauses key ();
              Obs.emit sink ~id:st.st_index
                (Obs.Event.Clause_shared { lbd; size = Array.length lits });
              Obs.Metrics.inc m_shared;
              let frame = Wire.clause_line ~lbd lits in
              List.iter
                (fun st' ->
                  if st'.st_alive && st'.st_index <> st.st_index then
                    send st' frame)
                !states
            end
        | Some _ -> Obs.Metrics.inc m_shared_rej
        | None -> Obs.Metrics.inc m_shared_rej)
    | "e" :: _ -> (
        (* Forwarded child event: re-emit into the parent's
           sink with the child's own id and timestamp. *)
        let wire = String.sub line 2 (String.length line - 2) in
        match Obs.Event.of_wire wire with
        | Some ev -> Obs.feed sink ev
        | None -> ())
    | _ -> ()
  in
  let read_worker st =
    let chunk = Bytes.create 1024 in
    match Unix.read st.st_up chunk 0 (Bytes.length chunk) with
    | 0 ->
        st.st_eof <- true;
        (* EOF flush: a worker killed mid-write leaves its last frame
           without the trailing newline — it is still a complete
           prefix-validated line more often than not, and dropping it
           here would lose the final certified bound. *)
        let rest = Buffer.contents st.st_buf in
        Buffer.clear st.st_buf;
        if rest <> "" then
          String.split_on_char '\n' rest
          |> List.iter (fun l -> if l <> "" then handle_line st l)
    | n ->
        Buffer.add_subbytes st.st_buf chunk 0 n;
        take_lines st.st_buf |> List.iter (handle_line st)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  let reap st =
    match Unix.waitpid [ Unix.WNOHANG ] st.st_pid with
    | 0, _ -> ()
    | _, status ->
        st.st_alive <- false;
        st.st_status <- Some status;
        (* Drain the pipe all the way to EOF before reporting the exit:
           the event stream stays causally ordered, and a frame torn by
           the death — bytes with no trailing newline — still reaches
           the EOF residual flush below.  A single read is not enough:
           it can return the torn bytes without the EOF, and a dead
           worker never re-enters the select set, so the residual would
           sit in the buffer forever.  Looping is safe because the child
           was the pipe's last writer, so reads return data then 0. *)
        while not st.st_eof do
          read_worker st
        done;
        let code, signaled =
          match status with
          | Unix.WEXITED n -> (n, false)
          | Unix.WSIGNALED n | Unix.WSTOPPED n -> (128 + n, true)
        in
        Obs.Metrics.inc (if signaled then m_exit_signaled else m_exit_normal);
        Obs.emit sink ~id:st.st_index
          (Obs.Event.Worker_exit { pid = st.st_pid; status = code; signaled });
        st.st_report <- Subproc.read_result st.st_tmp;
        (match st.st_report with
        | Some (Ok r) -> (
            let lb, ub = T.outcome_bounds r.T.outcome in
            note_bounds st lb ub;
            match r.T.outcome with
            | T.Optimum _ | T.Hard_unsat ->
                cancel_all ("decided by " ^ st.st_spec.label)
            | T.Bounds _ | T.Crashed _ -> ())
        | Some (Error _) | None -> ())
    | exception Unix.Unix_error _ ->
        st.st_alive <- false;
        st.st_report <- Subproc.read_result st.st_tmp
  in
  (* Lazy SLS rider.  Forked only if the race outlives the startup
     delay AND nobody holds a model-backed incumbent by then: an
     incomplete solver's one comparative advantage is finding a first
     feasible model fast, so once the pre-seed sprint or a streamed
     incumbent supplies one, further flips on a shared core are pure
     CPU tax against the exact provers.  Instances decided quickly pay
     nothing at all — no fork, no pipes, no reap. *)
  let rider_delay =
    if deadline = infinity then 0.5
    else Float.min 0.5 (0.25 *. Float.max 0. (deadline -. t0))
  in
  let rider_spawned = ref (not sls_worker) in
  let spawn_rider () =
    let sp = spec M.Sls in
    let index = num_specs in
    let tmp = Filename.temp_file "msu-portfolio" ".bin" in
    let down_rd, down_wr = Unix.pipe () in
    let up_rd, up_wr = Unix.pipe () in
    let siblings = !states in
    (* Same SIGTERM-inheritance dance as the main fork loop: a cancel
       racing the fork must trip the child's guard, not kill it raw. *)
    let prev_sigterm =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> G.cancel_current ()))
    in
    match Unix.fork () with
    | 0 ->
        if handle_sigint then Sys.set_signal Sys.sigint Sys.Signal_ignore;
        List.iter
          (fun st ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              [ st.st_up; st.st_down ])
          siblings;
        (try Unix.close down_wr with Unix.Unix_error _ -> ());
        (try Unix.close up_rd with Unix.Unix_error _ -> ());
        Subproc.child_setup
          ~alarm_after:
            (match timeout with
            | None -> infinity
            | Some t -> t +. (2. *. grace) +. flush)
          ();
        run_worker ~deadline ~max_conflicts ~down:down_rd ~up:up_wr ~tmp ~index
          ~observe ~share:share_clauses
          ~seed_ub:(if !best_ub = max_int then None else Some !best_ub)
          ~trace_ctx sp w
    | pid ->
        Sys.set_signal Sys.sigterm prev_sigterm;
        Unix.close down_rd;
        Unix.close up_wr;
        Unix.set_nonblock down_wr;
        Obs.emit sink ~id:index (Obs.Event.Worker_spawn { pid });
        let st =
          {
            st_index = index;
            st_spec = sp;
            st_pid = pid;
            st_up = up_rd;
            st_down = down_wr;
            st_tmp = tmp;
            st_buf = Buffer.create 128;
            st_out = Wire.Outbuf.create ();
            st_lb = 0;
            st_ub = max_int;
            st_model = None;
            st_alive = true;
            st_eof = false;
            st_report = None;
            st_status = None;
          }
        in
        states := !states @ [ st ];
        say "c [portfolio] sls rider forked at +%.2fs"
          (Unix.gettimeofday () -. t0);
        (* Catch the rider up on the bracket it missed. *)
        send st
          (Wire.bounds_line ~lb:!best_lb
             ~ub:(if !best_ub = max_int then None else Some !best_ub))
  in
  let rec pump () =
    if
      (not !rider_spawned)
      && !cancel_started = None
      && List.exists (fun st -> st.st_alive) !states
      && Unix.gettimeofday () -. t0 >= rider_delay
    then begin
      (* Decided once, at the delay boundary: incumbents only ever
         accumulate, so "somebody already has one" never reverses. *)
      rider_spawned := true;
      if
        seed_incumbent = None
        && List.for_all (fun st -> st.st_model = None) !states
      then spawn_rider ()
    end;
    List.iter (fun st -> if st.st_alive then reap st) !states;
    if List.exists (fun st -> st.st_alive) !states then begin
      let fds =
        List.filter_map
          (fun st -> if st.st_alive && not st.st_eof then Some st.st_up else None)
          !states
      in
      let now = Unix.gettimeofday () in
      let till_ladder =
        match !cancel_started with
        | Some t -> t +. flush -. now
        | None -> term_at -. now
      in
      let tmo =
        if Float.is_finite till_ladder then Float.min 0.05 (Float.max 0.0 till_ladder)
        else 0.05
      in
      let wfds =
        List.filter_map
          (fun st ->
            if st.st_alive && Wire.Outbuf.pending st.st_out then Some st.st_down
            else None)
          !states
      in
      (match Unix.select fds wfds [] tmo with
      | readable, writable, _ ->
          List.iter
            (fun st -> if List.mem st.st_up readable then read_worker st)
            !states;
          List.iter
            (fun st ->
              if List.mem st.st_down writable then
                Wire.Outbuf.flush st.st_out st.st_down)
            !states
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Unix.gettimeofday () in
      (match !cancel_started with
      | Some t ->
          if now > t +. flush then
            List.iter
              (fun st -> if st.st_alive then Subproc.kill st.st_pid Sys.sigkill)
              !states
      | None -> if now > term_at then cancel_all "timeout");
      pump ()
    end
  in
  Fun.protect ~finally:restore_sigint pump;
  List.iter
    (fun st ->
      (try Unix.close st.st_up with Unix.Unix_error _ -> ());
      (try Unix.close st.st_down with Unix.Unix_error _ -> ());
      try Sys.remove st.st_tmp with Sys_error _ -> ())
    !states;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* ---- merge ---- *)
  let report_of st =
    match st.st_report with
    | Some (Ok r) ->
        {
          w_label = st.st_spec.label;
          w_algorithm = st.st_spec.algorithm;
          w_outcome = r.T.outcome;
          w_time = r.T.elapsed;
          w_stats = r.T.stats;
        }
    | Some (Error _) | None ->
        let reason =
          match (st.st_report, st.st_status) with
          | Some (Error reason), _ -> reason
          | _, Some (Unix.WSIGNALED n) ->
              Printf.sprintf "worker killed (signal %d)" n
          | _, Some (Unix.WEXITED n) -> Printf.sprintf "worker exit %d" n
          | _, _ -> "worker produced no result"
        in
        {
          w_label = st.st_spec.label;
          w_algorithm = st.st_spec.algorithm;
          w_outcome =
            T.Crashed
              {
                reason;
                lb = st.st_lb;
                ub = (if st.st_ub = max_int then None else Some st.st_ub);
              };
          w_time = elapsed;
          w_stats = T.empty_stats;
        }
  in
  let reports = List.map report_of !states in
  let stats =
    List.fold_left (fun acc r -> T.merge_stats acc r.w_stats) T.empty_stats reports
  in
  let optima =
    List.filter_map
      (fun r ->
        match r.w_outcome with T.Optimum c -> Some (r.w_label, c) | _ -> None)
      reports
  in
  let hard_unsat =
    List.filter_map
      (fun r ->
        match r.w_outcome with T.Hard_unsat -> Some r.w_label | _ -> None)
      reports
  in
  (* Model-backed upper-bound candidates: only these may decide an
     optimum — a peer's published ub without a surviving model never
     masquerades as a solution.  Streamed incumbents count: they were
     re-costed against the instance on receipt, so they are certified
     even when the worker that found them died before writing a
     report.  The pre-seed sprint's model joins on the same terms: it
     was re-costed at birth, and a worker that proves lb up to the seed
     cost closes the gap through it. *)
  let candidates =
    List.filter_map
      (fun st ->
        match st.st_report with
        | Some (Ok r) -> (
            match (r.T.model, snd (T.outcome_bounds r.T.outcome)) with
            | Some m, Some u -> Some (u, m, st.st_spec.label)
            | _ -> None)
        | _ -> None)
      !states
    @ List.filter_map
        (fun st ->
          match st.st_model with
          | Some (c, m) -> Some (c, m, st.st_spec.label)
          | None -> None)
        !states
    @ (match seed_incumbent with
      | Some (c, m) -> [ (c, m, "sls-seed") ]
      | None -> [])
  in
  let best_candidate =
    List.fold_left
      (fun acc (u, m, l) ->
        match acc with
        | Some (u', _, _) when u' <= u -> acc
        | _ -> Some (u, m, l))
      None candidates
  in
  let disagreements = ref [] in
  let disagree fmt = Printf.ksprintf (fun s -> disagreements := s :: !disagreements) fmt in
  (match optima with
  | (l0, c0) :: rest ->
      List.iter
        (fun (l, c) ->
          if c <> c0 then disagree "%s proved optimum %d but %s proved %d" l0 c0 l c)
        rest;
      if !best_ub < c0 then
        disagree "%s proved optimum %d but a peer published ub %d" l0 c0 !best_ub;
      if !best_lb > c0 then
        disagree "%s proved optimum %d but a peer published lb %d" l0 c0 !best_lb;
      if hard_unsat <> [] then
        disagree "%s proved an optimum but %s reported hard-unsat" l0
          (List.hd hard_unsat)
  | [] ->
      if hard_unsat <> [] && candidates <> [] then
        disagree "%s reported hard-unsat but a peer found a model"
          (List.hd hard_unsat);
      if !best_ub < max_int && !best_lb > !best_ub then
        disagree "published bounds crossed: lb %d > ub %d" !best_lb !best_ub);
  let outcome, model, winner =
    match optima with
    | (l, c) :: rest ->
        let l, c =
          List.fold_left (fun (l, c) (l', c') -> if c' < c then (l', c') else (l, c))
            (l, c) rest
        in
        let model =
          List.find_map
            (fun st ->
              match st.st_report with
              | Some (Ok { T.outcome = T.Optimum c'; model = Some m; _ })
                when c' = c ->
                  Some m
              | _ -> None)
            !states
        in
        (T.Optimum c, model, Some l)
    | [] when hard_unsat <> [] -> (T.Hard_unsat, None, Some (List.hd hard_unsat))
    | [] ->
        let lb = !best_lb in
        let all_crashed =
          List.for_all
            (fun r -> match r.w_outcome with T.Crashed _ -> true | _ -> false)
            reports
        in
        if all_crashed then begin
          let ub = if !best_ub = max_int then None else Some !best_ub in
          (* Attach a salvaged model only when its cost matches the
             reported ub, so the merged Crashed still certifies. *)
          let model =
            match (best_candidate, ub) with
            | Some (u, m, _), Some b when u = b -> Some m
            | _ -> None
          in
          (T.Crashed { reason = "all workers crashed"; lb; ub }, model, None)
        end
        else (
          match best_candidate with
          | Some (u, m, l) when lb >= u ->
              (* Gap closed across workers: one proved the lower bound,
                 another holds a model at that cost. *)
              (T.Optimum u, Some m, Some l)
          | Some (u, m, _) -> (T.Bounds { lb; ub = Some u }, Some m, None)
          | None ->
              let ub = if !best_ub = max_int then None else Some !best_ub in
              ( T.Bounds
                  { lb = (match ub with Some u -> min lb u | None -> lb); ub },
                None,
                None ))
  in
  {
    outcome;
    model;
    winner;
    lb = !best_lb;
    ub = (if !best_ub = max_int then None else Some !best_ub);
    reports;
    disagreements = List.rev !disagreements;
    stats;
    elapsed;
  }

let to_result r =
  { T.outcome = r.outcome; model = r.model; stats = r.stats; elapsed = r.elapsed }

let pp_result ppf r =
  Format.fprintf ppf "%a (%.3fs, %d workers%s)" T.pp_outcome r.outcome r.elapsed
    (List.length r.reports)
    (match r.winner with Some w -> ", winner " ^ w | None -> "")
