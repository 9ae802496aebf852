(* Measurement plumbing shared by the four workloads: the metric
   catalogue, order statistics, process facts read from /proc, the run
   record and the result line. *)

let now = Unix.gettimeofday

(* ---------------- the metric catalogue ---------------- *)

(* End-to-end metrics, reported by every untraced run (bounds live in
   BENCHMARK.json; the self-test checks that file against this list). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("solved_per_s", "1/s");
    ("latency_ms.p50", "ms");
    ("latency_ms.tail", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Per-layer metrics, reported by every traced run: name, unit, the
   end-to-end metric it should move, and the workloads it is measured
   on.  A metric reads 0 on a workload outside its list. *)
type layer = { name : string; unit_ : string; moves : string; on : string list }

let solvers = [ "industrial"; "debugging" ]
let forked = [ "service"; "portfolio" ]
let all = solvers @ forked

let layer ?(moves = "none predicted") name unit_ on = { name; unit_; moves; on }

let per_layer =
  [
    layer "sat.search_s" "s" all ~moves:"solved_per_s, latency_ms.tail";
    layer "sat.propagate_s" "s" all ~moves:"solved_per_s, latency_ms.tail";
    layer "sat.analyze_s" "s" all ~moves:"solved_per_s, latency_ms.tail";
    layer "sat.restart_s" "s" all ~moves:"solved_per_s";
    layer "sat.reduce_db_s" "s" all ~moves:"solved_per_s";
    layer "sat.conflicts" "count" all ~moves:"explains the sat.* times";
    layer "sat.propagations" "count" all ~moves:"explains the sat.* times";
    layer "sat.props_per_s" "1/s" all ~moves:"solved_per_s";
    layer "sat.bve_s" "s" all ~moves:"latency_ms.p50, solved_per_s";
    layer "sat.subsume_s" "s" all ~moves:"solved_per_s, latency_ms.tail";
    layer "sat.probe_s" "s" all;
    layer "sat.inprocess_passes" "count" solvers ~moves:"explains sat.bve_s";
    layer "sat.eliminated_vars" "count" solvers ~moves:"explains sat.bve_s";
    layer "sat.subsumed_clauses" "count" solvers ~moves:"explains sat.subsume_s";
    layer "card.extend_s" "s" all ~moves:"solved_per_s";
    layer "card.encoding_clauses" "count" solvers ~moves:"peak_rss_mb, solved_per_s";
    layer "core.self_s" "s" all
      ~moves:"latency_ms.p50 on debugging, solved_per_s on industrial";
    layer "core.core_extract_s" "s" all;
    layer "core.sat_calls" "count" solvers ~moves:"explains core.self_s";
    layer "core.cores" "count" solvers ~moves:"explains core.self_s";
    layer "core.blocking_vars" "count" solvers ~moves:"explains core.self_s";
    layer "core.msu4-v2.solve_s" "s" solvers ~moves:"solved_per_s";
    layer "core.msu3.solve_s" "s" solvers ~moves:"solved_per_s";
    layer "core.oll.solve_s" "s" solvers ~moves:"solved_per_s";
    layer "core.msu1.solve_s" "s" solvers ~moves:"solved_per_s";
    layer "core.pbo.solve_s" "s" [ "industrial" ] ~moves:"solved_per_s";
    layer "core.certify_s" "s" solvers ~moves:"no end-to-end metric (answer check)";
    layer "gc.minor_words" "count" all ~moves:"peak_rss_mb, solved_per_s";
    layer "gc.major_words" "count" all ~moves:"peak_rss_mb, solved_per_s";
    layer "gc.major_collections" "count" all ~moves:"peak_rss_mb, solved_per_s";
    layer "cnf.fingerprint_ms" "ms" [ "service" ] ~moves:"latency_ms.p50";
    layer "service.codec_ms" "ms" [ "service" ] ~moves:"latency_ms.p50";
    layer "service.hit_ms.p50" "ms" [ "service" ] ~moves:"latency_ms.p50";
    layer "service.miss_ms.p50" "ms" [ "service" ] ~moves:"latency_ms.tail";
    layer "service.cache_lookup_s" "s" [ "service" ];
    layer "service.queue_wait_s" "s" [ "service" ];
    layer "service.worker_solve_s" "s" [ "service" ] ~moves:"latency_ms.tail, solved_per_s";
    layer "service.worker_overhead_s" "s" [ "service" ]
      ~moves:"latency_ms.tail, solved_per_s";
    layer "service.hits" "count" [ "service" ] ~moves:"solved_per_s (must stay 2/3)";
    layer "service.misses" "count" [ "service" ] ~moves:"solved_per_s";
    layer "service.rejected" "count" [ "service" ] ~moves:"solved_per_s";
    layer "service.crashes" "count" [ "service" ] ~moves:"solved_per_s";
    layer "portfolio.overhead_s" "s" [ "portfolio" ] ~moves:"latency_ms.p50";
    layer "portfolio.worker_s" "s" [ "portfolio" ] ~moves:"solved_per_s";
    layer "portfolio.useful_ratio" "ratio" [ "portfolio" ] ~moves:"solved_per_s";
    layer "portfolio.wins.msu4-v2" "count" [ "portfolio" ] ~moves:"explains latency_ms.p50";
    layer "portfolio.wins.msu3" "count" [ "portfolio" ] ~moves:"explains latency_ms.p50";
    layer "obs.trace_overhead" "ratio" all ~moves:"none (the cost of tracing)";
  ]

(* ---------------- order statistics ---------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   order statistic with exactly ten larger samples.  Returns the value
   and the percentile it sits at; below eleven samples no percentile
   qualifies and the maximum stands in. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n < 11 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* ---------------- process facts ---------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* [s] cut at every occurrence of [sep]. *)
let split_on sep s =
  let n = String.length sep in
  let rec go start i acc =
    if i + n > String.length s then List.rev (String.sub s start (String.length s - start) :: acc)
    else if String.sub s i n = sep then go (i + n) (i + n) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

let field_after prefix line =
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

(* Peak resident set (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  List.find_map
    (fun l ->
      match field_after "VmHWM:" l with
      | Some v -> Scanf.sscanf_opt v "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | None -> None)
    (read_lines path)
  |> Option.value ~default:0.

let cpu_model () =
  List.find_map
    (fun l ->
      match field_after "model name" l with
      | Some v when String.length v > 0 && v.[0] = ':' ->
          Some (String.trim (String.sub v 1 (String.length v - 1)))
      | _ -> None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* The commit of the checkout, read from .git without running git (the
   benchmark may run in an export that is not a repository). *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [ head ] -> (
      match field_after "ref:" head with
      | None -> head
      | Some ref_ -> (
          match read_lines (Filename.concat ".git" ref_) with
          | [ c ] -> c
          | _ ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ c; r ] when r = ref_ -> Some c
                  | _ -> None)
                (read_lines ".git/packed-refs")
              |> Option.value ~default:"unknown"))
  | _ -> "none (not a git checkout)"

(* A fixed integer loop, timed at the start and the end of every run and
   recorded ungated: it tells host drift apart from a program change. *)
let spin () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 40_000_000 do
    x := (!x * 31) + (i land 0xffff)
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

(* Run output lives under this directory of the checkout: sockets,
   temporary files, the daemon's event log, Chrome traces, run records
   and the determinism records. *)
let out_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let out_path name =
  mkdir_p out_dir;
  Filename.concat out_dir name

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run [f] in a forked child; the returned join waits for it and yields
   its result, marshalled back through a temporary file ([f]'s result
   must hold no closures).  An exception in the child fails the join. *)
let flush_all () =
  flush stdout;
  flush stderr

let spawn f =
  let tmp = Filename.temp_file "perfbench" ".bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let out = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = open_out_bin tmp in
      Marshal.to_channel oc out [];
      close_out oc;
      Unix._exit 0
  | pid ->
      fun () ->
        ignore (Unix.waitpid [] pid);
        let ic = open_in_bin tmp in
        let r = Marshal.from_channel ic in
        close_in ic;
        Sys.remove tmp;
        match r with Ok v -> v | Error e -> failwith ("child: " ^ e)

(* ---------------- the result line ---------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = "\"" ^ String.escaped s ^ "\""

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
          (json_num v) (json_str unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
