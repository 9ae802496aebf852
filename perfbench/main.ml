(* perfbench: the end-to-end benchmark with per-layer attribution.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest BENCHMARK.json

   The last line of standard output is the result object; the lines
   before it are the run record (environment, host drift, the counts the
   seed fixes, and for traced runs the layer table). *)

let usage () =
  prerr_endline
    "usage: perfbench --workload industrial|debugging|service|portfolio --seed N \
     --seconds S --trace 0|1\n       perfbench --selftest BENCHMARK.json";
  exit 2

let fill ~workload ~trace (r : Workloads.report) =
  let catalogue =
    if trace = 0 then List.map (fun (n, u) -> (n, u, true)) Infra.end_to_end
    else
      List.map
        (fun l -> (l.Infra.name, l.Infra.unit_, List.mem workload l.Infra.on))
        Infra.per_layer
  in
  List.map
    (fun (name, unit_, applies) ->
      match List.assoc_opt name r.metrics with
      | Some v -> (name, unit_, v, applies)
      | None -> (name, unit_, 0., false))
    catalogue

let env_lines ~workload ~seed ~seconds ~trace =
  [
    Printf.sprintf "# perfbench workload=%s seed=%d seconds=%g trace=%d" workload seed seconds
      trace;
    Printf.sprintf "# env cpu=%S nproc=%d ocaml=%s commit=%s" (Infra.cpu_model ())
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (Infra.git_commit ());
  ]

let layer_table ~workload metrics =
  List.filter_map
    (fun (name, unit_, v, applies) ->
      if not applies then None
      else
        let l = List.find (fun l -> l.Infra.name = name) Infra.per_layer in
        Some
          (Printf.sprintf "# layer %-26s %16.6f %-6s moves %s on %s" name v unit_ l.Infra.moves
             workload))
    metrics

let run_once ~size ~workload ~seed ~seconds ~trace =
  let spin0 = Infra.spin () in
  let r = Workloads.run ~workload ~size ~seed ~seconds ~trace in
  let spin1 = Infra.spin () in
  let metrics = fill ~workload ~trace r in
  let lines =
    env_lines ~workload ~seed ~seconds ~trace
    @ [ Printf.sprintf "# drift spin_start_s=%.4f spin_end_s=%.4f" spin0 spin1 ]
    @ r.notes
    @ (if trace = 1 then layer_table ~workload metrics else [])
    @ List.map (fun e -> "# ERROR " ^ e) r.errors
  in
  let correct = r.errors = [] in
  let line =
    Infra.result_line ~correct ~attempted:r.attempted ~failed:r.failed
      (List.map (fun (n, u, v, _) -> (n, u, v)) metrics)
  in
  Infra.write_file
    (Infra.out_path (Printf.sprintf "record-%s-%d-trace%d.txt" workload seed trace))
    (String.concat "\n" (lines @ [ line; "" ]));
  (r, metrics, lines, line)

(* Tiny sizes of all four workloads through the same code, traced and
   untraced: every metric must be emitted with its unit, every answer
   checked, and BENCHMARK.json must list the same metrics. *)
let selftest benchmark_json =
  let spec = String.concat "\n" (Infra.read_lines benchmark_json) in
  let mentions s = List.length (Infra.split_on s spec) > 1 in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, unit_) ->
      if not (mentions (Printf.sprintf "\"name\": %S, \"unit\": %S" name unit_)) then
        fail "BENCHMARK.json lacks %s (%s)" name unit_)
    (Infra.end_to_end
    @ List.map (fun l -> (l.Infra.name, l.Infra.unit_)) Infra.per_layer);
  (* The workloads are the entries with a "why": at least two, each one
     this program runs. *)
  let listed =
    List.filter_map
      (fun piece ->
        match String.index_opt piece '"' with
        | Some k when String.length piece >= k + 8 && String.sub piece k 8 = "\", \"why\"" ->
            Some (String.sub piece 0 k)
        | _ -> None)
      (List.tl (Infra.split_on "{\"name\": \"" spec))
  in
  if List.length listed < 2 then fail "BENCHMARK.json lists fewer than two workloads";
  List.iter
    (fun w -> if not (List.mem w Workloads.names) then fail "BENCHMARK.json: unknown workload %s" w)
    listed;
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          (* Each run in its own process, as in real use: the counts the
             seed fixes include GC counts, which depend on the heap's
             history. *)
          let (r : Workloads.report), metrics, _, _ =
            Infra.spawn
              (fun () -> run_once ~size:Workloads.Tiny ~workload ~seed:7 ~seconds:0. ~trace)
              ()
          in
          Printf.printf "%s trace=%d: %d attempted, %d failed, %d metrics\n%!" workload trace
            r.attempted r.failed (List.length metrics);
          List.iter (fun e -> fail "%s trace=%d: %s" workload trace e) r.errors;
          if r.attempted < 1 then fail "%s trace=%d: nothing attempted" workload trace;
          if r.failed > 0 then fail "%s trace=%d: %d operations failed" workload trace r.failed;
          List.iter
            (fun (name, _, v, applies) ->
              if not (List.mem_assoc name r.metrics) && (trace = 0 || applies) then
                fail "%s trace=%d: %s not measured" workload trace name;
              if not (Float.is_finite v) then fail "%s trace=%d: %s is not finite" workload trace name;
              if trace = 0 && v <= 0. then fail "%s trace=%d: %s is not positive" workload trace name)
            metrics;
          List.iter
            (fun (name, _) ->
              if not (List.exists (fun (n, _, _, _) -> n = name) metrics) then
                fail "%s trace=%d: %s is not in the catalogue" workload trace name)
            r.metrics)
        [ 0; 1 ])
    Workloads.names;
  match !problems with
  | [] -> print_endline "perfbench selftest: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perfbench selftest: " ^ p)) (List.rev ps);
      exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Temporary files of the program (worker reports, checkpoints) stay
     inside the checkout too. *)
  let tmp = Infra.out_path "tmp" in
  Infra.mkdir_p tmp;
  Filename.set_temp_dir_name (Filename.concat (Sys.getcwd ()) tmp);
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--selftest"; path ] -> selftest path
  | _ ->
      let rec parse acc = function
        | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) tl
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload Workloads.names) then usage ();
      let num f k = match f (get k) with Some v -> v | None -> usage () in
      let seed = num int_of_string_opt "seed" in
      let seconds = num float_of_string_opt "seconds" in
      let trace = num int_of_string_opt "trace" in
      if trace <> 0 && trace <> 1 then usage ();
      let _, _, lines, line = run_once ~size:Workloads.Full ~workload ~seed ~seconds ~trace in
      List.iter print_endline lines;
      print_endline line
