(* The four workloads.  Each runs from a seed in a fresh process and
   calls the entry points users reach: Maxsat.solve_supervised (as
   msolve does), Client against a forked Service.run, and
   Portfolio.solve.  The timed window runs with tracing off; a traced
   run (--trace 1) first repeats the untraced window, then replays the
   same operations with the program's tracer and the benchmark's own
   spans on, and reduces both to per-layer figures. *)

module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Certify = Msu_maxsat.Certify
module Suites = Msu_gen.Suites
module Wcnf = Msu_cnf.Wcnf
module Canon = Msu_cnf.Canon
module Obs = Msu_obs.Obs
module Span = Obs.Span
module Service = Msu_service.Service
module Client = Msu_service.Client
module P = Msu_service.Protocol
module Portfolio = Msu_portfolio.Portfolio

let now = Infra.now

type size = Full | Tiny

(* The conflict cap is the only runaway guard: no wall-clock budget
   binds a timed solve, so the seed alone fixes the work.  The slowest
   solve of these suites needs well under a tenth of it. *)
let cap = 2_000_000

(* Instances certified per traced run (Certify.certify re-proves
   optimality from scratch; a debugging instance takes up to ~9 s). *)
let certified = 8

type report = {
  errors : string list;  (** wrong answers and determinism breaks *)
  attempted : int;
  failed : int;  (** operations that returned no checked optimum *)
  metrics : (string * float) list;
  notes : string list;  (** lines printed before the result *)
}

(* ---------------- instances ---------------- *)

type inst = { key : string; w : Wcnf.t }

let suite workload size ~seed =
  let scale = match size with Full -> 1.0 | Tiny -> 0.15 in
  match workload with
  | "industrial" -> Suites.industrial ~scale ~seed ()
  | "debugging" | "portfolio" -> Suites.debugging ~scale ~seed ()
  | "service" -> Suites.industrial ~scale ~seed () @ Suites.debugging ~scale ~seed ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* Bit-reversed index order: any prefix of a pass samples every family
   and size range of the suite evenly, so a window that ends mid-pass
   still sees the suite's mix. *)
let spread l =
  let n = List.length l in
  let bits = ref 0 in
  while 1 lsl !bits < n do incr bits done;
  let rev i =
    let r = ref 0 in
    for b = 0 to !bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
    done;
    !r
  in
  List.mapi (fun i x -> (rev i, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let build workload size seed =
  suite workload size ~seed
  |> List.map (fun i ->
         {
           key = Printf.sprintf "%d/%s" seed i.Suites.name;
           w = Wcnf.of_formula i.Suites.formula;
         })
  |> spread

(* Passes over the suite at seeds s, s+1, ...  Some families do not
   depend on the seed, so an instance whose content already ran in this
   run is dropped: no input repeats within a run. *)
type 'a passes = {
  make : int -> 'a list;
  content : 'a -> string;
  mutable seed : int;
  seen : (string, unit) Hashtbl.t;
  pending : 'a Queue.t;
}

let add_pass p l =
  List.iter
    (fun x ->
      let d = Digest.string (p.content x) in
      if not (Hashtbl.mem p.seen d) then begin
        Hashtbl.add p.seen d ();
        Queue.add x p.pending
      end)
    l

let passes ~make ~content ~seed first =
  let p = { make; content; seed; seen = Hashtbl.create 256; pending = Queue.create () } in
  add_pass p first;
  p

let rec next_item p =
  match Queue.take_opt p.pending with
  | Some x -> x
  | None ->
      p.seed <- p.seed + 1;
      add_pass p (p.make p.seed);
      next_item p

let inst_content i = Marshal.to_string i.w []

let setups = function Full -> 7 | Tiny -> 2

(* Set up [n] times from a collected heap and keep the last result;
   setup_s is the median of the samples. *)
let repeat_setup n ~discard f =
  let rec go i acc =
    Gc.compact ();
    let t0 = now () in
    let x = f () in
    let dt = now () -. t0 in
    if i >= n then (x, List.rev (dt :: acc))
    else begin
      discard x;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* ---------------- answers ---------------- *)

type answer = Optimum of int | Failed of string | Wrong of string

let check w (outcome : T.outcome) model =
  match outcome with
  | T.Optimum c ->
      let r = { T.outcome; model; stats = T.empty_stats; elapsed = 0. } in
      if model <> None && Certify.ok (Certify.recost w r) then Optimum c
      else Wrong (Printf.sprintf "model does not re-cost to the claimed optimum %d" c)
  | o -> Failed (Format.asprintf "%a" T.pp_outcome o)

(* One timed operation. *)
type op = {
  key : string;  (** instance key, or instance/configuration *)
  label : string;  (** algorithm, or the request kind *)
  wall : float;
  answer : answer;
  counts : int array;  (** seed-fixed counts (solver workloads) *)
  cached : bool;  (** service replies served from the cache *)
}

let op ?(counts = [||]) ?(cached = false) ~key ~label ~wall answer =
  { key; label; wall; answer; counts; cached }

(* Tally a window against reference optima: an operation counts as
   solved only when its re-costed optimum equals the reference. *)
let tally ~reference ops =
  let errors = ref [] in
  let solved = ref 0 in
  List.iter
    (fun o ->
      match (o.answer, reference o) with
      | Optimum c, Some c' when c = c' -> incr solved
      | Optimum c, Some c' ->
          errors := Printf.sprintf "%s: optimum %d, reference %d" o.key c c' :: !errors
      | Optimum _, None -> ()
      | Wrong why, _ -> errors := Printf.sprintf "%s: %s" o.key why :: !errors
      | Failed _, _ -> ())
    ops;
  (!solved, List.rev !errors)

let e2e ~setup ~ops ~solved ~window_s ~rss =
  let walls = List.map (fun o -> o.wall *. 1000.) ops in
  let tail, pct = Infra.tail walls in
  ( [
      ("setup_s", Infra.median setup);
      ("solved_per_s", float_of_int solved /. window_s);
      ("latency_ms.p50", Infra.median walls);
      ("latency_ms.tail", tail);
      ("peak_rss_mb", rss);
    ],
    Printf.sprintf
      "# latency_ms.tail is p%.1f over %d samples; window %.3f s; setup samples %s"
      pct (List.length walls) window_s
      (String.concat " " (List.map (Printf.sprintf "%.4f") setup)) )

(* ---------------- determinism records ---------------- *)

(* Counts the seed fixes, per operation, kept per (workload, seed,
   program build) under the output directory.  Any later run of the
   same seed with the same program must reproduce every count it
   shares with the record. *)
let record_check ~workload ~seed ops =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Infra.out_path
      (Printf.sprintf "counts-%s-%d-%s.txt" workload seed (String.sub exe 0 12))
  in
  let known = Hashtbl.create 256 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | key :: vals -> Hashtbl.replace known key vals
      | [] -> ())
    (Infra.read_lines path);
  let errors = ref [] in
  List.iter
    (fun o ->
      let vals = Array.to_list (Array.map string_of_int o.counts) in
      match Hashtbl.find_opt known o.key with
      | Some prev when prev <> vals ->
          errors :=
            Printf.sprintf "%s: counts [%s] differ from an earlier run's [%s]" o.key
              (String.concat " " vals) (String.concat " " prev)
            :: !errors
      | Some _ -> ()
      | None -> Hashtbl.replace known o.key vals)
    ops;
  let b = Buffer.create 4096 in
  Hashtbl.iter
    (fun k v -> Buffer.add_string b (String.concat " " (k :: v) ^ "\n"))
    known;
  let tmp = path ^ ".tmp" in
  Infra.write_file tmp (Buffer.contents b);
  Sys.rename tmp path;
  List.rev !errors

(* ---------------- the traced replay ---------------- *)

let collector () =
  let c = Obs.Collector.create () in
  (c, Span.create ~sink:(Obs.Collector.sink c) ~id:0 ())

(* Write the span stream once, at the end, as a Chrome trace. *)
let write_trace ~workload ~seed events =
  let path = Infra.out_path (Printf.sprintf "%s-%d.trace.json" workload seed) in
  Infra.write_file path (Obs.Chrome.of_events ~process_name:("perfbench " ^ workload) events);
  Printf.sprintf "# chrome trace: %s (%d events)" path (List.length events)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let x = f () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  ( x,
    [
      ("gc.minor_words", m1 -. m0);
      ("gc.major_words", g1.Gc.major_words -. g0.Gc.major_words);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ] )

let rate ops_solved window_s = float_of_int ops_solved /. window_s
let walls ops = List.fold_left (fun s o -> s +. o.wall) 0. ops

(* ---------------- industrial and debugging ---------------- *)

let algorithms = function
  | "industrial" -> M.[ Msu4_v2; Msu3; Oll; Msu1; Pbo_linear ]
  | _ -> M.[ Msu4_v2; Msu3; Oll; Msu1 ]

let h_conflicts = Obs.Metrics.histogram "msu_solver_call_conflicts"
let conflicts () = int_of_float (Obs.Metrics.histogram_sum h_conflicts)

let count_names =
  [| "sat.conflicts"; "core.sat_calls"; "core.cores"; "card.encoding_clauses";
     "core.blocking_vars"; "gc.minor_words"; "gc.major_words"; "gc.major_collections" |]

(* Counts that tracing must leave alone: the search ones, not GC. *)
let search_counts = 5

let solve_op ~spans algo (inst : inst) =
  let label = M.algorithm_to_string algo in
  let phase = "bench.solve." ^ label in
  let config = { T.default_config with T.max_conflicts = Some cap; spans } in
  Gc.compact ();
  let c0 = conflicts () in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = Span.wrap spans phase (fun () -> M.solve_supervised ~config algo inst.w) in
  let wall = now () -. t0 in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let s = r.T.stats in
  let counts =
    [|
      conflicts () - c0;
      s.T.sat_calls;
      s.T.cores;
      s.T.encoding_clauses;
      s.T.blocking_vars;
      int_of_float (m1 -. m0);
      int_of_float (g1.Gc.major_words -. g0.Gc.major_words);
      g1.Gc.major_collections - g0.Gc.major_collections;
    |]
  in
  (r, op ~counts ~key:(inst.key ^ "/" ^ label) ~label ~wall (check inst.w r.T.outcome r.T.model))

(* Rounds until the first pass is done and [seconds] of timed work have
   accumulated: a round is one instance through every configuration of
   the workload, so a window holds whole rounds and always the seed's
   whole suite.  Only the instance key outlives its round, so the
   process's memory does not grow with the window.  Also returns the
   process's peak RSS at the end of the first pass: over more passes the
   peak is the largest instance of several seeds, and one memory-heavy
   seed would then raise the figure of every run that reaches it. *)
let rounds ~seconds ~first ~next f =
  let rss = ref 0. in
  let rec go acc n spent =
    if n = first then rss := Infra.peak_rss_mb 0;
    if spent >= seconds && n >= first then (List.rev acc, spent, !rss)
    else
      let (inst : inst) = next () in
      let ops = f inst in
      go ((inst.key, ops) :: acc) (n + 1) (spent +. walls ops)
  in
  go [] 0 0.

(* The instances behind [keys], rebuilt from their pass seeds, in order. *)
let reload workload size keys =
  let table = Hashtbl.create 64 in
  List.map (fun k -> int_of_string (String.sub k 0 (String.index k '/'))) keys
  |> List.sort_uniq compare
  |> List.iter (fun seed ->
         List.iter (fun (i : inst) -> Hashtbl.replace table i.key i) (build workload size seed));
  List.map (Hashtbl.find table) keys

(* The reference optimum of an instance is the one its algorithms agree
   on; a disagreement is an error and leaves no reference. *)
let consensus rounds =
  let refs = Hashtbl.create 64 in
  let errors = ref [] in
  List.iter
    (fun (key, ops) ->
      match
        List.sort_uniq compare
          (List.filter_map (fun o -> match o.answer with Optimum c -> Some c | _ -> None) ops)
      with
      | [ c ] -> Hashtbl.replace refs key c
      | [] -> ()
      | cs ->
          errors :=
            Printf.sprintf "%s: algorithms disagree on the optimum (%s)" key
              (String.concat ", " (List.map string_of_int cs))
            :: !errors)
    rounds;
  (refs, List.rev !errors)

let inprocess_counters =
  [
    ("sat.inprocess_passes", "msu_inprocess_passes_total");
    ("sat.eliminated_vars", "msu_inprocess_eliminated_vars_total");
    ("sat.subsumed_clauses", "msu_inprocess_subsumed_clauses_total");
  ]

let read_counters () =
  List.map
    (fun (_, m) -> Obs.Metrics.counter_value (Obs.Metrics.counter m))
    inprocess_counters

let per_algorithm_sums algos ops =
  List.map
    (fun a ->
      let label = M.algorithm_to_string a in
      let sums = Array.make (Array.length count_names) 0 in
      List.iter
        (fun o ->
          if o.label = label then Array.iteri (fun i v -> sums.(i) <- sums.(i) + v) o.counts)
        ops;
      (label, sums))
    algos

let solo ~workload ~size ~seed ~seconds ~trace =
  let algos = algorithms workload in
  let first, setup =
    repeat_setup (setups size) ~discard:ignore (fun () ->
        build workload size seed)
  in
  let ps = passes ~make:(build workload size) ~content:inst_content ~seed first in
  let first = Queue.length ps.pending in
  let round_list, window_s, rss =
    rounds ~seconds ~first ~next:(fun () -> next_item ps) (fun inst ->
        List.map (fun a -> snd (solve_op ~spans:Span.disabled a inst)) algos)
  in
  let ops = List.concat_map snd round_list in
  let refs, disagreements = consensus round_list in
  let reference o = Hashtbl.find_opt refs (String.sub o.key 0 (String.rindex o.key '/')) in
  let solved, wrong = tally ~reference ops in
  let failed = List.length ops - solved in
  let record_errors = record_check ~workload ~seed ops in
  let count_notes =
    List.map
      (fun (label, s) ->
        Printf.sprintf "# counts %s: %s" label
          (String.concat " "
             (Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s=%d" count_names.(i) v) s))))
      (per_algorithm_sums algos ops)
  in
  let window_note =
    Printf.sprintf "# %d rounds of %d algorithms over pass seeds %d..%d" (List.length round_list)
      (List.length algos) seed ps.seed
  in
  let errors = disagreements @ wrong @ record_errors in
  if trace = 0 then begin
    let metrics, note = e2e ~setup ~ops ~solved ~window_s ~rss in
    { errors; attempted = List.length ops; failed; metrics; notes = window_note :: note :: count_notes }
  end
  else begin
    (* Per-layer figures cover the seed's own suite (the window's first
       pass), so they measure the same work on every run of a seed. *)
    let first_pass = List.filteri (fun i _ -> i < first) round_list in
    let pass_ops = List.concat_map snd first_pass in
    let gc =
      List.mapi
        (fun i name -> (name, float_of_int (List.fold_left (fun s o -> s + o.counts.(i + 5)) 0 pass_ops)))
        [ "gc.minor_words"; "gc.major_words"; "gc.major_collections" ]
    in
    let coll, spans = collector () in
    let inprocess = Array.make (List.length inprocess_counters) 0 in
    (* Each operation again, untraced then traced: both replays run in
       the same aged process, so their ratio is the cost of tracing. *)
    let traced =
      List.map2
        (fun inst (_, os) ->
          ( inst,
            List.map2
              (fun a o ->
                let _, u = solve_op ~spans:Span.disabled a inst in
                let c0 = read_counters () in
                let t = solve_op ~spans a inst in
                List.iteri (fun i (x, y) -> inprocess.(i) <- inprocess.(i) + y - x)
                  (List.combine c0 (read_counters ()));
                (o, u, t))
              algos os ))
        (reload workload size (List.map fst first_pass))
        first_pass
    in
    let triples = List.concat_map snd traced in
    let uops = List.map (fun (_, u, _) -> u) triples in
    let tops = List.map (fun (_, _, (_, t)) -> t) triples in
    let usolved, _ = tally ~reference uops in
    let tsolved, twrong = tally ~reference tops in
    let drift =
      List.filter_map
        (fun (o, _, (_, t)) ->
          if Array.sub o.counts 0 search_counts = Array.sub t.counts 0 search_counts then None
          else Some (Printf.sprintf "%s: search counts differ traced vs untraced" o.key))
        triples
    in
    (* The answer check: certify msu4-v2's traced result for the first
       [certified] instances, outside the timed window. *)
    let certify_errors =
      List.filter_map
        (fun ((inst : inst), l) ->
          match l with
          | (_, _, (r, _)) :: _ ->
              let rep = Span.wrap spans "bench.certify" (fun () -> Certify.certify inst.w r) in
              if Certify.ok rep then None
              else
                Some
                  (Printf.sprintf "%s: certify failed: %s" inst.key
                     (String.concat "; " rep.Certify.failures))
          | [] -> None)
        (List.filteri (fun i _ -> i < certified) traced)
    in
    let events = Obs.Collector.events coll in
    let lay = Layers.of_events events in
    let sum_count i = float_of_int (List.fold_left (fun s o -> s + o.counts.(i)) 0 tops) in
    let solve_s =
      List.map
        (fun a ->
          let l = M.algorithm_to_string a in
          (Printf.sprintf "core.%s.solve_s" l, Layers.total lay ("bench.solve." ^ l)))
        algos
    in
    let metrics =
      Layers.program_layers lay
      @ List.mapi (fun i (name, _) -> (name, float_of_int inprocess.(i))) inprocess_counters
      @ [
          ("card.encoding_clauses", sum_count 3);
          ("core.sat_calls", sum_count 1);
          ("core.cores", sum_count 2);
          ("core.blocking_vars", sum_count 4);
          ("core.certify_s", Layers.total lay "bench.certify");
          ("obs.trace_overhead", rate tsolved (walls tops) /. rate usolved (walls uops));
        ]
      @ solve_s @ gc
    in
    let total_solve = List.fold_left (fun s (_, v) -> s +. v) 0. solve_s in
    let shares =
      List.map
        (fun (phase, self_s, share) ->
          Printf.sprintf "# share %-18s self %8.3f s  %5.1f%% of traced solve time" phase self_s
            (100. *. share))
        (Layers.shares lay ~solve_s:total_solve)
    in
    {
      errors = errors @ twrong @ drift @ certify_errors;
      attempted = List.length ops + List.length uops + List.length tops;
      failed = failed + (List.length uops - usolved) + (List.length tops - tsolved);
      metrics;
      notes = (window_note :: count_notes) @ shares @ [ write_trace ~workload ~seed events ];
    }
  end

(* ---------------- service ---------------- *)

(* One instance as the service sees it: the original and two clause-
   and literal-permuted copies, which canonicalize to the same
   fingerprint and so must be cache hits. *)
type group = { inst : inst; copies : Wcnf.t array }

let permuted ~seed ~copy (inst : inst) =
  let st = Random.State.make [| seed; Hashtbl.hash inst.key; copy |] in
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let w = inst.w in
  let w' = Wcnf.create () in
  Wcnf.ensure_vars w' (Wcnf.num_vars w);
  Array.iter (Wcnf.add_hard w')
    (shuffle (Array.init (Wcnf.num_hard w) (fun i -> shuffle (Wcnf.hard w i))));
  Array.iter
    (fun (weight, c) -> ignore (Wcnf.add_soft w' ~weight c))
    (shuffle (Array.init (Wcnf.num_soft w) (fun i -> (Wcnf.weight w i, shuffle (Wcnf.soft w i)))));
  w'

let groups size seed =
  List.map
    (fun inst ->
      { inst; copies = [| inst.w; permuted ~seed ~copy:1 inst; permuted ~seed ~copy:2 inst |] })
    (build "service" size seed)

let start_daemon ~socket ~sink_file =
  Infra.flush_all ();
  match Unix.fork () with
  | 0 ->
      Obs.after_fork ();
      let oc = Option.map open_out_bin sink_file in
      let sink = match oc with Some oc -> Obs.Jsonl.sink oc | None -> Obs.null in
      let code =
        match Service.run { (Service.default_config ~socket_path:socket) with Service.sink } with
        | () -> 0
        | exception e ->
            prerr_endline ("perfbench daemon: " ^ Printexc.to_string e);
            1
      in
      Option.iter close_out oc;
      Unix._exit code
  | pid -> pid

(* Connect as soon as the freshly forked daemon listens.  Client.connect
   polls every 50 ms, which would quantize setup_s; this polls every
   millisecond. *)
let connect socket =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

type daemon = { pid : int; socket : string; conns : Unix.file_descr array }

let daemon_count = ref 0

(* Daemons still running; a run that dies on an exception kills and
   reaps them on its way out, so it leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let open_daemon ?sink_file () =
  incr daemon_count;
  let socket = Infra.out_path (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !daemon_count) in
  let pid = start_daemon ~socket ~sink_file in
  live := pid :: !live;
  { pid; socket; conns = [| connect socket; connect socket |] }

let close_daemon d =
  Array.iter Client.close d.conns;
  Client.shutdown ~drain:true ~socket:d.socket ();
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  try Sys.remove d.socket with Sys_error _ -> ()

type reply = { group : group; copy : int; latency : float; answer : answer; cached : bool }

(* The closed loop: two connections, each waiting for its reply before
   sending again.  A group's permuted copies become sendable only once
   its original's reply has arrived (the cache holds the answer by
   then), and they go before any new original. *)
let closed_loop ~d ~spans ~more =
  let repeats = Queue.create () in
  let replies = ref [] in
  let busy = Array.make (Array.length d.conns) None in
  let next () = match Queue.take_opt repeats with Some r -> Some r | None -> more () in
  let send i (g, copy) =
    let h = if Span.enabled spans then Some (Span.start spans "bench.request") else None in
    let t0 = now () in
    Client.send d.conns.(i) (P.Solve { wcnf = P.to_wire g.copies.(copy); options = P.default_options });
    busy.(i) <- Some (g, copy, t0, h)
  in
  let receive i =
    match busy.(i) with
    | None -> ()
    | Some (g, copy, t0, h) -> (
        match Client.recv d.conns.(i) with
        | Some (P.Accepted _) -> ()
        | Some (P.Result { outcome; model; cached; _ }) ->
            let latency = now () -. t0 in
            Option.iter (Span.stop spans) h;
            busy.(i) <- None;
            if copy = 0 then begin
              Queue.add (g, 1) repeats;
              Queue.add (g, 2) repeats
            end;
            let answer = check g.copies.(copy) outcome model in
            replies := { group = g; copy; latency; answer; cached } :: !replies
        | Some (P.Rejected { reason }) ->
            let latency = now () -. t0 in
            Option.iter (Span.stop spans) h;
            busy.(i) <- None;
            replies := { group = g; copy; latency; answer = Failed reason; cached = false } :: !replies
        | Some _ -> ()
        | None -> failwith "the daemon closed a connection")
  in
  let rec loop () =
    Array.iteri (fun i b -> if b = None then Option.iter (send i) (next ())) busy;
    let fds = List.filteri (fun i _ -> busy.(i) <> None) (Array.to_list d.conns) in
    if fds <> [] then begin
      let ready =
        match Unix.select fds [] [] (-1.) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iteri (fun i fd -> if List.mem fd ready then receive i) d.conns;
      loop ()
    end
  in
  let t0 = now () in
  loop ();
  (List.rev !replies, now () -. t0)

let reply_op r =
  op ~cached:r.cached ~key:(Printf.sprintf "%s#%d" r.group.inst.key r.copy)
    ~label:(if r.cached then "hit" else "miss")
    ~wall:r.latency r.answer

(* [List.map f xs] over two processes, the second half in a forked
   child.  Used outside the timed window only, to keep a run short. *)
let parallel_map f xs =
  let half = List.length xs / 2 in
  let join = Infra.spawn (fun () -> List.map f (List.filteri (fun i _ -> i >= half) xs)) in
  let left = List.map f (List.filteri (fun i _ -> i < half) xs) in
  left @ join ()

(* The reference optimum of every instance sent: an in-process msu4-v2
   solve, outside the timed window. *)
let references groups =
  let refs = Hashtbl.create 64 in
  let solved =
    parallel_map
      (fun g ->
        let config = { T.default_config with T.max_conflicts = Some cap } in
        let r = M.solve_supervised ~config M.Msu4_v2 g.inst.w in
        (g.inst.key, check g.inst.w r.T.outcome r.T.model))
      groups
  in
  let errors =
    List.filter_map
      (fun (key, answer) ->
        match answer with
        | Optimum c ->
            Hashtbl.replace refs key c;
            None
        | Failed why | Wrong why -> Some (Printf.sprintf "%s: reference solve: %s" key why))
      solved
  in
  (refs, errors)

let hit_pattern replies =
  List.filter_map
    (fun r ->
      if r.cached = (r.copy > 0) then None
      else
        Some
          (Printf.sprintf "%s copy %d: cached=%b breaks the 1 miss + 2 hits pattern"
             r.group.inst.key r.copy r.cached))
    replies

let service ~size ~seed ~seconds ~trace =
  let (d, first), setup =
    repeat_setup (setups size)
      ~discard:(fun (d, _) -> close_daemon d)
      (fun () ->
        let d = open_daemon () in
        (d, groups size seed))
  in
  let ps =
    passes ~make:(groups size) ~content:(fun g -> inst_content g.inst) ~seed first
  in
  let first = Queue.length ps.pending in
  (* The closed loop must not stall on building a pass: build two more
     ahead, outside both the window and setup_s. *)
  List.iter (fun s -> add_pass ps (groups size s)) [ seed + 1; seed + 2 ];
  ps.seed <- seed + 2;
  let sent = ref [] in
  let t_start = ref 0. in
  let more () =
    if !sent = [] then t_start := now ();
    if List.compare_length_with !sent first >= 0 && now () -. !t_start >= seconds then None
    else begin
      let g = next_item ps in
      sent := g :: !sent;
      Some (g, 0)
    end
  in
  let (replies, window_s), gc = gc_delta (fun () -> closed_loop ~d ~spans:Span.disabled ~more) in
  let stats = Client.stats ~socket:d.socket in
  let rss = Infra.peak_rss_mb d.pid in
  close_daemon d;
  let groups_sent = List.rev !sent in
  let refs, ref_errors = references groups_sent in
  let ops = List.map reply_op replies in
  let reference o = Hashtbl.find_opt refs (String.sub o.key 0 (String.rindex o.key '#')) in
  let solved, wrong = tally ~reference ops in
  let hits = List.length (List.filter (fun r -> r.cached) replies) in
  let misses = List.length replies - hits in
  let stats_errors =
    if stats.P.hits = hits && stats.P.misses = misses then []
    else
      [
        Printf.sprintf "daemon counts %d hits / %d misses, client saw %d / %d" stats.P.hits
          stats.P.misses hits misses;
      ]
  in
  let errors = ref_errors @ wrong @ hit_pattern replies @ stats_errors in
  let notes =
    [
      Printf.sprintf "# %d instances x 3 requests over 2 connections; pass seeds %d..%d"
        (List.length groups_sent) seed ps.seed;
      Printf.sprintf "# service.hits=%d service.misses=%d rejected=%d crashes=%d" stats.P.hits
        stats.P.misses stats.P.rejected stats.P.crashes;
    ]
  in
  let failed = List.length ops - solved in
  if trace = 0 then begin
    let metrics, note = e2e ~setup ~ops ~solved ~window_s ~rss in
    { errors; attempted = List.length ops; failed; metrics; notes = notes @ [ note ] }
  end
  else begin
    let sink_file = Infra.out_path (Printf.sprintf "service-%d-daemon.jsonl" seed) in
    let coll, spans = collector () in
    (* The seed's own suite again, on a fresh untraced daemon and then
       on a fresh traced one: their ratio is the cost of tracing. *)
    let replay ?sink_file spans =
      let d = open_daemon ?sink_file () in
      let pending = ref (List.filteri (fun i _ -> i < first) groups_sent) in
      let more () =
        match !pending with
        | g :: tl ->
            pending := tl;
            Some (g, 0)
        | [] -> None
      in
      let replies, window = closed_loop ~d ~spans ~more in
      close_daemon d;
      (replies, window)
    in
    let ureplies, uwindow = replay Span.disabled in
    let treplies, twindow = replay ~sink_file spans in
    let daemon_events =
      let ic = open_in_bin sink_file in
      let evs = Obs.Jsonl.read_all ic in
      close_in ic;
      evs
    in
    (* Client-side costs a request pays before it reaches a worker,
       timed per request outside the closed loop. *)
    List.iter
      (fun r ->
        let w = r.group.copies.(r.copy) in
        ignore (Span.wrap spans "bench.fingerprint" (fun () -> Canon.fingerprint w));
        ignore
          (Span.wrap spans "bench.codec" (fun () ->
               let frame = P.encode (P.Solve { wcnf = P.to_wire w; options = P.default_options }) in
               let buf = Buffer.create (Bytes.length frame) in
               Buffer.add_bytes buf frame;
               match (P.decode_frames buf : P.request list) with
               | [ P.Solve { wcnf; _ } ] -> Wcnf.num_vars (P.of_wire wcnf)
               | _ -> failwith "codec round trip")))
      treplies;
    let events = daemon_events @ Obs.Collector.events coll in
    let lay = Layers.of_events events in
    let uops = List.map reply_op ureplies and tops = List.map reply_op treplies in
    let usolved, _ = tally ~reference uops in
    let tsolved, twrong = tally ~reference tops in
    let p50 kind =
      Infra.median
        (List.filter_map (fun r -> if r.cached = kind then Some (r.latency *. 1000.) else None) replies)
    in
    let metrics =
      Layers.program_layers lay @ gc
      @ [
          ("cnf.fingerprint_ms", Layers.mean_ms lay "bench.fingerprint");
          ("service.codec_ms", Layers.mean_ms lay "bench.codec");
          ("service.hit_ms.p50", p50 true);
          ("service.miss_ms.p50", p50 false);
          ("service.cache_lookup_s", Layers.total lay "cache_lookup");
          ("service.queue_wait_s", Layers.total lay "queue_wait");
          ("service.worker_solve_s", Layers.total lay "supervise");
          ("service.worker_overhead_s", Layers.self lay "worker_solve");
          ("service.hits", float_of_int stats.P.hits);
          ("service.misses", float_of_int stats.P.misses);
          ("service.rejected", float_of_int stats.P.rejected);
          ("service.crashes", float_of_int stats.P.crashes);
          ("obs.trace_overhead", rate tsolved twindow /. rate usolved uwindow);
        ]
    in
    {
      errors = errors @ twrong @ hit_pattern ureplies @ hit_pattern treplies;
      attempted = List.length ops + List.length uops + List.length tops;
      failed = failed + (List.length uops - usolved) + (List.length tops - tsolved);
      metrics;
      notes = notes @ [ write_trace ~workload:"service" ~seed events ];
    }
  end

(* ---------------- portfolio ---------------- *)

(* What a race leaves for the per-layer figures once its model is
   dropped. *)
type race = { winner : string option; winner_s : float; worker_s : float; elapsed : float }

(* The msolve --portfolio -j 2 defaults: msu4-v2 + msu3, no clause
   sharing, no SLS rider (the rider forks on a wall-clock delay, so
   whether it runs would depend on timing). *)
let race ?(sink = Obs.null) ~spans (inst : inst) =
  Gc.compact ();
  Infra.flush_all ();
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r =
    Span.wrap spans "bench.portfolio" (fun () ->
        Portfolio.solve ~jobs:2 ~max_conflicts:cap ~sink ~spans inst.w)
  in
  let wall = now () -. t0 in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let answer =
    match r.Portfolio.disagreements with
    | [] -> check inst.w r.Portfolio.outcome r.Portfolio.model
    | ds -> Wrong ("workers disagree: " ^ String.concat "; " ds)
  in
  let win = List.find_opt (fun w -> Some w.Portfolio.w_label = r.Portfolio.winner) r.Portfolio.reports in
  let summary =
    {
      winner = Option.map (fun w -> M.algorithm_to_string w.Portfolio.w_algorithm) win;
      winner_s = (match win with Some w -> w.Portfolio.w_time | None -> 0.);
      worker_s = List.fold_left (fun s w -> s +. w.Portfolio.w_time) 0. r.Portfolio.reports;
      elapsed = r.Portfolio.elapsed;
    }
  in
  let counts =
    [|
      int_of_float (m1 -. m0);
      int_of_float (g1.Gc.major_words -. g0.Gc.major_words);
      g1.Gc.major_collections - g0.Gc.major_collections;
    |]
  in
  (summary, op ~counts ~key:inst.key ~label:"portfolio" ~wall answer)

let portfolio ~size ~seed ~seconds ~trace =
  let first, setup =
    repeat_setup (setups size) ~discard:ignore (fun () ->
        build "portfolio" size seed)
  in
  let ps = passes ~make:(build "portfolio" size) ~content:inst_content ~seed first in
  let first = Queue.length ps.pending in
  let races = ref [] in
  let round_list, window_s, rss =
    rounds ~seconds ~first ~next:(fun () -> next_item ps) (fun inst ->
        let summary, o = race ~spans:Span.disabled inst in
        races := summary :: !races;
        [ o ])
  in
  let ops = List.concat_map snd round_list in
  let refs, ref_errors =
    references
      (List.map (fun inst -> { inst; copies = [||] }) (reload "portfolio" size (List.map fst round_list)))
  in
  let reference o = Hashtbl.find_opt refs o.key in
  let solved, wrong = tally ~reference ops in
  let failed = List.length ops - solved in
  let errors = ref_errors @ wrong in
  let note = Printf.sprintf "# %d races over pass seeds %d..%d" (List.length ops) seed ps.seed in
  if trace = 0 then begin
    let metrics, n = e2e ~setup ~ops ~solved ~window_s ~rss in
    { errors; attempted = List.length ops; failed; metrics; notes = [ note; n ] }
  end
  else begin
    (* Per-layer figures cover the seed's own suite, as for the solver
       workloads. *)
    let first_pass = List.filteri (fun i _ -> i < first) round_list in
    let pass_races = List.filteri (fun i _ -> i < first) (List.rev !races) in
    let pass_ops = List.concat_map snd first_pass in
    let sum f = List.fold_left (fun s r -> s +. f r) 0. pass_races in
    let wins algo =
      float_of_int (List.length (List.filter (fun r -> r.winner = Some algo) pass_races))
    in
    let gc =
      List.mapi
        (fun i name -> (name, float_of_int (List.fold_left (fun s o -> s + o.counts.(i)) 0 pass_ops)))
        [ "gc.minor_words"; "gc.major_words"; "gc.major_collections" ]
    in
    let coll, spans = collector () in
    let sink = Obs.Collector.sink coll in
    (* Each race again, untraced then traced. *)
    let replay =
      List.map
        (fun inst -> (snd (race ~spans:Span.disabled inst), snd (race ~sink ~spans inst)))
        (reload "portfolio" size (List.map fst first_pass))
    in
    let uops = List.map fst replay and traced = List.map snd replay in
    let usolved, _ = tally ~reference uops in
    let tsolved, twrong = tally ~reference traced in
    let events = Obs.Collector.events coll in
    let lay = Layers.of_events events in
    let metrics =
      Layers.program_layers lay @ gc
      @ [
          ("portfolio.overhead_s", sum (fun r -> r.elapsed -. r.winner_s));
          ("portfolio.worker_s", sum (fun r -> r.worker_s));
          ("portfolio.useful_ratio", sum (fun r -> r.winner_s) /. sum (fun r -> r.worker_s));
          ("portfolio.wins.msu4-v2", wins "msu4-v2");
          ("portfolio.wins.msu3", wins "msu3");
          ("obs.trace_overhead", rate tsolved (walls traced) /. rate usolved (walls uops));
        ]
    in
    {
      errors = errors @ twrong;
      attempted = List.length ops + List.length uops + List.length traced;
      failed = failed + (List.length uops - usolved) + (List.length traced - tsolved);
      metrics;
      notes = [ note; write_trace ~workload:"portfolio" ~seed events ];
    }
  end

let names = [ "industrial"; "debugging"; "service"; "portfolio" ]

let run ~workload ~size ~seed ~seconds ~trace =
  match workload with
  | "industrial" | "debugging" -> solo ~workload ~size ~seed ~seconds ~trace
  | "service" -> service ~size ~seed ~seconds ~trace
  | "portfolio" -> portfolio ~size ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)
