(* The solve service: canonical fingerprints, the bounded priority
   queue, the verified instance cache, and end-to-end daemon behaviour
   (cache hits, crash isolation, cancellation, admission control)
   against a forked server on a temp socket. *)

module Wcnf = Msu_cnf.Wcnf
module Canon = Msu_cnf.Canon
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Fault = Msu_guard.Fault
module Service = Msu_service.Service
module Client = Msu_service.Client
module Proto = Msu_service.Protocol
module Jobq = Msu_service.Jobq
module Cache = Msu_service.Cache
module Journal = Msu_service.Journal
open Test_util

(* The paper's Example 2: optimum cost 2. *)
let example2_clauses =
  [ [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ] ]

let example2 () =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w 4;
  List.iter (fun c -> ignore (Wcnf.add_soft w (clause c))) example2_clauses;
  w

(* ----- canonical fingerprints ----- *)

let fp = Canon.fingerprint

(* Permuting the clause list, permuting literals inside clauses, and
   duplicating a literal inside a clause all leave the cost function —
   and hence the fingerprint — unchanged. *)
let test_fingerprint_invariances () =
  let base = example2 () in
  let permuted = Wcnf.create () in
  Wcnf.ensure_vars permuted 4;
  List.iter
    (fun c -> ignore (Wcnf.add_soft permuted (clause (List.rev c))))
    (List.rev example2_clauses);
  Alcotest.(check string) "clause and literal order is canonicalized" (fp base)
    (fp permuted);
  let doubled_lit = Wcnf.create () in
  Wcnf.ensure_vars doubled_lit 4;
  List.iter
    (fun c -> ignore (Wcnf.add_soft doubled_lit (clause (c @ c))))
    example2_clauses;
  Alcotest.(check string) "duplicated literals are dropped" (fp base)
    (fp doubled_lit);
  (* Declared-but-unreferenced variables are free and cost-irrelevant. *)
  let padded = example2 () in
  Wcnf.ensure_vars padded 12;
  Alcotest.(check string) "unreferenced variables are forgotten" (fp base)
    (fp padded)

(* One soft clause of weight 2 is the same cost function as the clause
   twice at weight 1; duplicated hard clauses collapse. *)
let test_fingerprint_merges_duplicates () =
  let twice = Wcnf.create () in
  Wcnf.ensure_vars twice 2;
  ignore (Wcnf.add_soft twice (clause [ 1; 2 ]));
  ignore (Wcnf.add_soft twice (clause [ 2; 1 ]));
  let once = Wcnf.create () in
  Wcnf.ensure_vars once 2;
  ignore (Wcnf.add_soft once ~weight:2 (clause [ 1; 2 ]));
  Alcotest.(check string) "duplicate softs merge by summing weights"
    (fp twice) (fp once);
  let dup_hard = Wcnf.create () in
  Wcnf.ensure_vars dup_hard 2;
  Wcnf.add_hard dup_hard (clause [ 1; 2 ]);
  Wcnf.add_hard dup_hard (clause [ 2; 1 ]);
  ignore (Wcnf.add_soft dup_hard (clause [ -1 ]));
  let one_hard = Wcnf.create () in
  Wcnf.ensure_vars one_hard 2;
  Wcnf.add_hard one_hard (clause [ 1; 2 ]);
  ignore (Wcnf.add_soft one_hard (clause [ -1 ]));
  Alcotest.(check string) "duplicate hards collapse" (fp dup_hard) (fp one_hard)

(* Distinct cost functions must not collide: a flipped literal, a
   changed weight, and a hard/soft swap each change the digest. *)
let test_fingerprint_distinguishes () =
  let mk soft_weight lit1 =
    let w = Wcnf.create () in
    Wcnf.ensure_vars w 3;
    Wcnf.add_hard w (clause [ lit1; 2 ]);
    ignore (Wcnf.add_soft w ~weight:soft_weight (clause [ -2; 3 ]));
    w
  in
  let base = mk 1 1 in
  Alcotest.(check bool) "flipped literal differs" false
    (fp base = fp (mk 1 (-1)));
  Alcotest.(check bool) "changed weight differs" false (fp base = fp (mk 2 1));
  let swapped = Wcnf.create () in
  Wcnf.ensure_vars swapped 3;
  ignore (Wcnf.add_soft swapped (clause [ 1; 2 ]));
  Wcnf.add_hard swapped (clause [ -2; 3 ]);
  Alcotest.(check bool) "hard/soft swap differs" false (fp base = fp swapped)

(* The canonical text as the list-and-Hashtbl canonicalizer built it
   before [Canon.fingerprint] moved to one pass over the instance: the
   reference the digests must keep matching, since cache files persist
   them. *)
module Reference_canon = struct
  module Lit = Msu_cnf.Lit

  let compare_clause a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else begin
      let rec go i =
        if i = la then 0
        else
          let c = Lit.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    end

  let norm_clause c =
    let c = Array.copy c in
    Array.sort Lit.compare c;
    let n = Array.length c in
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i = 0 || not (Lit.equal c.(i) c.(i - 1)) then out := c.(i) :: !out
    done;
    Array.of_list !out

  let canonical w =
    let hard =
      let cs = ref [] in
      Wcnf.iter_hard (fun _ c -> cs := norm_clause c :: !cs) w;
      List.sort_uniq compare_clause !cs
    in
    let soft = Hashtbl.create 64 in
    Wcnf.iter_soft
      (fun _ c weight ->
        let c = norm_clause c in
        let prev = Option.value ~default:0 (Hashtbl.find_opt soft c) in
        Hashtbl.replace soft c (prev + weight))
      w;
    let soft =
      Hashtbl.fold (fun c weight acc -> (c, weight) :: acc) soft []
      |> List.sort (fun (a, wa) (b, wb) ->
             let c = compare_clause a b in
             if c <> 0 then c else compare wa wb)
    in
    let max_var = ref (-1) in
    let note c = Array.iter (fun l -> max_var := max !max_var (Lit.var l)) c in
    List.iter note hard;
    List.iter (fun (c, _) -> note c) soft;
    let out = Wcnf.create () in
    Wcnf.ensure_vars out (!max_var + 1);
    List.iter (fun c -> Wcnf.add_hard out c) hard;
    List.iter (fun (c, weight) -> ignore (Wcnf.add_soft out ~weight c)) soft;
    out

  let render w =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "p wcnf %d %d\n" (Wcnf.num_vars w)
         (Wcnf.num_hard w + Wcnf.num_soft w));
    let add_clause prefix c =
      Buffer.add_string buf prefix;
      Array.iter
        (fun l ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int (Lit.to_dimacs l)))
        c;
      Buffer.add_string buf " 0\n"
    in
    Wcnf.iter_hard (fun _ c -> add_clause "h" c) w;
    Wcnf.iter_soft
      (fun _ c weight -> add_clause (Printf.sprintf "s %d" weight) c)
      w;
    Buffer.contents buf

  let fingerprint w = Digest.to_hex (Digest.string (render (canonical w)))
end

(* Random WCNFs over every case the canonical form handles: hard and
   soft clauses, weights above 1, duplicated literals (the variable
   range is small), tautologies, empty clauses, duplicated clauses
   (re-added with their literals shuffled, as hard or soft), and
   declared variables no clause mentions. *)
let random_wcnf st =
  let n_vars = 1 + Random.State.int st 6 in
  let w = Wcnf.create () in
  Wcnf.ensure_vars w (n_vars + Random.State.int st 3);
  let added = ref [] in
  let fresh () =
    Array.init (Random.State.int st 5) (fun _ ->
        Msu_cnf.Lit.make (Random.State.int st n_vars) (Random.State.bool st))
  in
  let shuffled c =
    let c = Array.copy c in
    for i = Array.length c - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = c.(i) in
      c.(i) <- c.(j);
      c.(j) <- t
    done;
    c
  in
  for _ = 1 to Random.State.int st 12 do
    let c =
      match !added with
      | _ :: _ when Random.State.int st 4 = 0 ->
          shuffled (List.nth !added (Random.State.int st (List.length !added)))
      | _ -> fresh ()
    in
    added := c :: !added;
    if Random.State.int st 3 = 0 then Wcnf.add_hard w c
    else ignore (Wcnf.add_soft w ~weight:(1 + Random.State.int st 3) c)
  done;
  w

let prop_fingerprint_matches_reference =
  QCheck.Test.make ~name:"fingerprint matches the reference canonical text"
    ~count:2000 QCheck.int (fun seed ->
      let w = random_wcnf (Random.State.make [| seed |]) in
      fp w = Reference_canon.fingerprint w)

(* The digest of the paper's Example 2, computed by the list-and-Hashtbl
   canonicalizer: a change to the canonical text cannot pass silently,
   even one the reference above were edited to follow. *)
let test_fingerprint_pinned () =
  Alcotest.(check string) "example 2's digest" "f091e575400d3d7ffdcffd02c0b1f7f9"
    (fp (example2 ()))

(* ----- bounded priority queue ----- *)

let test_jobq () =
  let q = Jobq.create ~capacity:3 in
  Alcotest.(check bool) "p1 admitted" true (Jobq.push q ~priority:0 "a");
  Alcotest.(check bool) "p2 admitted" true (Jobq.push q ~priority:5 "b");
  Alcotest.(check bool) "p3 admitted" true (Jobq.push q ~priority:0 "c");
  Alcotest.(check bool) "full" true (Jobq.is_full q);
  Alcotest.(check bool) "admission control rejects at capacity" false
    (Jobq.push q ~priority:9 "d");
  Alcotest.(check (option string)) "higher priority first" (Some "b")
    (Jobq.pop q);
  Alcotest.(check (option string)) "FIFO within a priority" (Some "a")
    (Jobq.pop q);
  Alcotest.(check bool) "room again" true (Jobq.push q ~priority:0 "e");
  Alcotest.(check (option string)) "remove finds a queued item" (Some "e")
    (Jobq.remove q (fun x -> x = "e"));
  Alcotest.(check (option string)) "removed item is gone" None
    (Jobq.remove q (fun x -> x = "e"));
  Alcotest.(check (list string)) "drain empties in pop order" [ "c" ]
    (Jobq.drain q);
  Alcotest.(check bool) "empty after drain" true (Jobq.is_empty q)

(* ----- verified instance cache ----- *)

let optimum_model_of w =
  match M.solve_supervised M.Msu4_v2 w with
  | { T.outcome = T.Optimum c; model = Some m; _ } -> (c, m)
  | r -> Alcotest.failf "setup solve failed: %a" T.pp_outcome r.T.outcome

let test_cache_hit_and_verify () =
  let w = example2 () in
  let cost, model = optimum_model_of w in
  let c = Cache.create ~capacity:4 in
  Alcotest.(check (option (pair int reject))) "empty cache misses" None
    (Cache.find c ~fingerprint:(fp w) w);
  Cache.store c ~fingerprint:(fp w) ~cost ~model;
  (match Cache.find c ~fingerprint:(fp w) w with
  | Some (c', m') ->
      Alcotest.(check int) "hit returns the optimum" cost c';
      Alcotest.(check (option int)) "hit's model achieves it" (Some cost)
        (Wcnf.cost_of_model w m')
  | None -> Alcotest.fail "expected a cache hit");
  (* A poisoned entry — wrong claimed cost for the stored model — must
     fail the re-cost, be evicted, and degrade to a miss. *)
  Cache.store c ~fingerprint:"poisoned" ~cost:(cost + 1) ~model;
  Alcotest.(check int) "two entries stored" 2 (Cache.length c);
  let w2 = example2 () in
  Alcotest.(check (option (pair int reject))) "poisoned entry is a miss" None
    (Cache.find c ~fingerprint:"poisoned" w2);
  Alcotest.(check int) "poisoned entry evicted" 1 (Cache.length c)

let test_cache_lru_and_persistence () =
  let c = Cache.create ~capacity:2 in
  let w = example2 () in
  let cost, model = optimum_model_of w in
  Cache.store c ~fingerprint:"a" ~cost ~model;
  Cache.store c ~fingerprint:"b" ~cost ~model;
  (* Touch "a" so "b" is the least recently used when "c" arrives. *)
  ignore (Cache.find c ~fingerprint:"a" w);
  Cache.store c ~fingerprint:"c" ~cost ~model;
  Alcotest.(check int) "capacity holds" 2 (Cache.length c);
  Alcotest.(check bool) "recently used entry survives" true
    (Cache.find c ~fingerprint:"a" w <> None);
  Alcotest.(check bool) "LRU entry evicted" true
    (Cache.find c ~fingerprint:"b" w = None);
  let path = Filename.temp_file "msu-test-cache" ".bin" in
  Cache.save c path;
  let c2 = Cache.load ~capacity:2 path in
  Alcotest.(check int) "snapshot round-trips" (Cache.length c)
    (Cache.length c2);
  Alcotest.(check bool) "loaded entry still serves (and re-verifies)" true
    (Cache.find c2 ~fingerprint:"a" w <> None);
  (* One changed byte anywhere in the snapshot: the load keeps at most
     the entries before the bad frame, and whatever it keeps still
     re-verifies or misses. *)
  let snapshot = In_channel.with_open_bin path In_channel.input_all in
  String.iteri
    (fun i ch ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub snapshot 0 i);
          output_char oc (Char.chr (Char.code ch lxor 0x5a));
          output_string oc (String.sub snapshot (i + 1) (String.length snapshot - i - 1)));
      let c = Cache.load ~capacity:2 path in
      Alcotest.(check bool) "a changed byte loses the frame it lands in" true
        (Cache.length c < 2);
      match Cache.find c ~fingerprint:"a" w with
      | Some (cost', _) -> Alcotest.(check int) "a kept entry still serves" cost cost'
      | None -> ())
    snapshot;
  let oc = open_out path in
  output_string oc "not a cache snapshot";
  close_out oc;
  let c3 = Cache.load ~capacity:2 path in
  Alcotest.(check int) "alien snapshot loads as empty" 0 (Cache.length c3);
  Sys.remove path

(* ----- end-to-end, against a forked daemon ----- *)

(* max_attempts defaults to 1 here: most tests probe single-attempt
   behavior (a crash is a crash); the retry tests opt in explicitly. *)
let with_server ?(workers = 1) ?(queue_capacity = 64) ?(timeout = 10.0)
    ?(max_attempts = 1) ?journal_file f =
  let sock = Filename.temp_file "msu-test-service" ".sock" in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    let cfg =
      {
        (Service.default_config ~socket_path:sock) with
        Service.workers;
        queue_capacity;
        default_timeout = timeout;
        grace = 0.5;
        max_attempts;
        journal_file;
        retry_backoff = 0.05;
      }
    in
    (try Service.run cfg with _ -> ());
    Unix._exit 0
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Client.shutdown ~drain:false ~socket:sock () with _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () -> f sock)

let solve_ok ?options sock w =
  match Client.solve ?options ~socket:sock w with
  | Ok r -> r
  | Error reason -> Alcotest.failf "service rejected the request: %s" reason

(* The acceptance scenario: the same instance twice — the second answer
   comes from the cache, both match brute force, and a permuted
   presentation of the instance hits too. *)
let test_e2e_cache_hit () =
  with_server @@ fun sock ->
  let w = example2 () in
  let expected =
    match Wcnf.brute_force_min_cost w with
    | Some c -> c
    | None -> Alcotest.fail "example2 has satisfiable hard clauses"
  in
  let r1 = solve_ok sock w in
  Alcotest.(check bool) "first solve is cold" false r1.Client.cached;
  (match r1.Client.outcome with
  | T.Optimum c -> Alcotest.(check int) "cold optimum = brute force" expected c
  | o -> Alcotest.failf "cold solve: %a" T.pp_outcome o);
  (* Same instance again, under a different algorithm: the cache is
     keyed on the instance, and the answer must be byte-identical. *)
  let r2 =
    solve_ok
      ~options:{ Proto.default_options with Proto.algorithm = M.Msu3 }
      sock w
  in
  Alcotest.(check bool) "second solve is a cache hit" true r2.Client.cached;
  Alcotest.(check bool) "hit outcome equals cold outcome" true
    (r1.Client.outcome = r2.Client.outcome);
  Alcotest.(check bool) "hit model equals cold model" true
    (r1.Client.model = r2.Client.model);
  (* A permuted presentation fingerprints identically and hits too. *)
  let permuted = Wcnf.create () in
  Wcnf.ensure_vars permuted 4;
  List.iter
    (fun c -> ignore (Wcnf.add_soft permuted (clause (List.rev c))))
    (List.rev example2_clauses);
  let r3 = solve_ok sock permuted in
  Alcotest.(check bool) "permuted instance hits" true r3.Client.cached;
  (match r3.Client.outcome with
  | T.Optimum c -> Alcotest.(check int) "hit optimum" expected c
  | o -> Alcotest.failf "permuted hit: %a" T.pp_outcome o);
  (* --no-cache forces a fresh solve of a cached instance. *)
  let r4 =
    solve_ok
      ~options:{ Proto.default_options with Proto.use_cache = false }
      sock w
  in
  Alcotest.(check bool) "use_cache=false bypasses the cache" false
    r4.Client.cached;
  let s = Client.stats ~socket:sock in
  Alcotest.(check bool) "stats count the hits" true (s.Proto.hits >= 2);
  Alcotest.(check bool) "stats count the misses" true (s.Proto.misses >= 2);
  (* Live observability riding the Stats reply. *)
  Alcotest.(check int) "pool size reported" 1 s.Proto.workers_total;
  Alcotest.(check bool)
    "hit rate between 0 and 1" true
    (s.Proto.hit_rate > 0. && s.Proto.hit_rate <= 1.);
  Alcotest.(check bool)
    "optimum outcomes counted" true
    (match List.assoc_opt "optimum" s.Proto.outcomes with
    | Some n -> n >= 3
    | None -> false);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "prometheus text carries the hit-rate gauge" true
    (contains s.Proto.prometheus "msu_service_cache_hit_rate");
  Alcotest.(check bool)
    "prometheus text carries the queue-depth gauge" true
    (contains s.Proto.prometheus "msu_jobq_depth")

(* A worker crash is the requesting client's problem only: its reply is
   Crashed, and the daemon immediately serves the next request. *)
let test_e2e_crash_isolation () =
  with_server @@ fun sock ->
  let w = example2 () in
  let crashing =
    {
      Proto.default_options with
      Proto.fault = Some Fault.Crash_mid_solve;
      use_cache = false;
    }
  in
  let r = solve_ok ~options:crashing sock w in
  (match r.Client.outcome with
  | T.Bounds { lb; ub } ->
      (* The checkpoint the worker streamed before dying degrades the
         crash to a sound bracket around the optimum (2). *)
      Alcotest.(check bool) "salvaged bracket contains the optimum" true
        (lb <= 2 && match ub with Some u -> u >= 2 | None -> true)
  | T.Crashed _ -> ()  (* nothing flushed before the fault fired *)
  | o -> Alcotest.failf "expected bounds or a crash report, got %a" T.pp_outcome o);
  let r2 = solve_ok sock w in
  (match r2.Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "daemon did not survive the crash: %a" T.pp_outcome o);
  let s = Client.stats ~socket:sock in
  Alcotest.(check bool) "crash counted" true (s.Proto.crashes >= 1)

(* Cancelling queued and running jobs returns salvaged (non-optimum)
   results to the submitter, and the daemon keeps serving.  One worker:
   the first job occupies it, so the second is deterministically still
   queued when its cancel arrives; the first — branch and bound on
   PHP(10,9), whose optimality proof is a pigeonhole refutation far
   beyond the test's patience — is deterministically still running. *)
let test_e2e_cancel () =
  with_server ~timeout:60.0 @@ fun sock ->
  let hard = Wcnf.of_formula (pigeonhole 9) in
  let options =
    {
      Proto.default_options with
      Proto.algorithm = M.Branch_bound;
      use_cache = false;
    }
  in
  let fd = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close fd) @@ fun () ->
  let submit () =
    match Client.submit fd ~options hard with
    | Ok id -> id
    | Error reason -> Alcotest.failf "rejected: %s" reason
  in
  let id1 = submit () in
  let id2 = submit () in
  Unix.sleepf 0.1;
  Alcotest.(check bool) "cancel finds the queued job" true
    (Client.cancel ~socket:sock id2);
  let r2 = Client.wait fd id2 in
  (match r2.Client.outcome with
  | T.Optimum _ -> Alcotest.fail "cancelled queued job reported an optimum"
  | T.Crashed _ | T.Bounds _ | T.Hard_unsat -> ());
  Alcotest.(check bool) "cancel finds the running job" true
    (Client.cancel ~socket:sock id1);
  let r1 = Client.wait fd id1 in
  (match r1.Client.outcome with
  | T.Optimum _ -> Alcotest.fail "cancelled running job reported an optimum"
  | T.Crashed _ | T.Bounds _ | T.Hard_unsat -> ());
  let r3 = solve_ok sock (example2 ()) in
  match r3.Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "daemon dead after cancel: %a" T.pp_outcome o

(* Admission control: with one worker busy and a one-slot queue, a third
   concurrent submission is rejected with a reason, not queued forever. *)
let test_e2e_queue_full () =
  with_server ~queue_capacity:1 ~timeout:60.0 @@ fun sock ->
  let hard = Wcnf.of_formula (pigeonhole 9) in
  let options =
    {
      Proto.default_options with
      Proto.algorithm = M.Branch_bound;
      use_cache = false;
    }
  in
  let fds = List.init 3 (fun _ -> Client.connect sock) in
  Fun.protect ~finally:(fun () -> List.iter Client.close fds) @@ fun () ->
  let replies = List.map (fun fd -> Client.submit fd ~options hard) fds in
  let accepted, rejected =
    List.partition (function Ok _ -> true | Error _ -> false) replies
  in
  Alcotest.(check int) "worker + one queue slot admitted" 2
    (List.length accepted);
  Alcotest.(check int) "third concurrent request rejected" 1
    (List.length rejected);
  let s = Client.stats ~socket:sock in
  Alcotest.(check bool) "rejection counted" true (s.Proto.rejected >= 1)

(* ----- write-ahead journal ----- *)

let admitted id =
  Journal.Admitted
    {
      id;
      wcnf = Proto.to_wire (example2 ());
      options = Proto.default_options;
      submitted = 0.;
    }

let journal_id = function
  | Journal.Admitted { id; _ } | Journal.Completed { id } -> id

let test_journal_roundtrip () =
  let path = Filename.temp_file "msu-test-journal" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let j = Journal.restart path ~keep:[] in
  Journal.append j (admitted 1);
  Journal.append j (admitted 2);
  Journal.append j (Journal.Completed { id = 1 });
  Journal.close j;
  let past = Journal.replay path in
  Alcotest.(check int) "all records replay" 3 (List.length past);
  (match Journal.pending past with
  | [ Journal.Admitted { id = 2; wcnf; _ } ] ->
      (* the instance survives the round-trip intact *)
      Alcotest.(check string) "instance round-trips" (fp (example2 ()))
        (fp (Proto.of_wire wcnf))
  | p -> Alcotest.failf "pending: %d records" (List.length p));
  (* compaction drops the completed history *)
  Journal.close (Journal.restart path ~keep:(Journal.pending past));
  Alcotest.(check (list int)) "compacted to the pending job" [ 2 ]
    (List.map journal_id (Journal.replay path))

let test_journal_torn_tail () =
  let path = Filename.temp_file "msu-test-journal" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let j = Journal.restart path ~keep:[] in
  Journal.append j (admitted 1);
  Journal.append j (admitted 2);
  Journal.close j;
  let full = (Unix.stat path).Unix.st_size in
  (* tear the tail mid-record: record 1 must survive, record 2 vanish *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (full - 7);
  Unix.close fd;
  Alcotest.(check (list int)) "torn tail loses only the tail" [ 1 ]
    (List.map journal_id (Journal.replay path));
  (* flip a byte inside the first record: nothing replays *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 30 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xFF') 0 1);
  Unix.close fd;
  Alcotest.(check int) "corrupt record stops the replay" 0
    (List.length (Journal.replay path));
  (* an alien file replays as empty instead of raising *)
  let oc = open_out path in
  output_string oc "this is not a journal";
  close_out oc;
  Alcotest.(check int) "alien file replays empty" 0
    (List.length (Journal.replay path));
  Alcotest.(check int) "missing file replays empty" 0
    (List.length (Journal.replay (path ^ ".does-not-exist")))

(* ----- protocol versioning ----- *)

let test_version_mismatch_rejected () =
  with_server @@ fun sock ->
  (* Happy path first, so the daemon is known-up. *)
  (match (solve_ok sock (example2 ())).Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "warm-up solve: %a" T.pp_outcome o);
  (* Hand-corrupt the version word of an otherwise valid frame: the
     daemon must answer Rejected naming the versions, not just drop the
     connection. *)
  let fd = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close fd) @@ fun () ->
  let frame = Proto.encode Proto.Stats in
  Bytes.set_int32_be frame 4 (Int32.of_int (Msu_frame.Frame.version + 1));
  let rec write_all off =
    if off < Bytes.length frame then
      write_all (off + Unix.write fd frame off (Bytes.length frame - off))
  in
  write_all 0;
  (match Client.recv fd with
  | Some (Proto.Rejected { reason }) ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "reason names the version" true
        (contains reason "version")
  | Some _ -> Alcotest.fail "expected Rejected for a stale client"
  | None -> Alcotest.fail "connection closed without a reply");
  (* and the daemon still serves current-version clients *)
  match (solve_ok sock (example2 ())).Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "daemon dead after stale client: %a" T.pp_outcome o

(* ----- crash retry and journal replay, end to end ----- *)

(* Kill_mid_solve SIGKILLs the worker right after it publishes a bound:
   no result file, no flush — only the checkpoint pipe survives.  With
   a second attempt allowed, the daemon respawns the job (fault
   stripped, checkpoint re-seeded) and the client still gets the
   optimum. *)
let test_e2e_crash_retry () =
  with_server ~max_attempts:2 @@ fun sock ->
  let w = example2 () in
  let killing =
    {
      Proto.default_options with
      Proto.fault = Some Fault.Kill_mid_solve;
      use_cache = false;
    }
  in
  let r = solve_ok ~options:killing sock w in
  (match r.Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "retry did not recover the optimum: %a" T.pp_outcome o);
  let s = Client.stats ~socket:sock in
  Alcotest.(check bool) "the crash was counted" true (s.Proto.crashes >= 1)

(* A journal with an admitted-but-unfinished job: a daemon starting on
   it re-runs the job unprompted and parks the optimum in the cache,
   where the resubmitting client finds it. *)
let test_e2e_journal_replay () =
  let path = Filename.temp_file "msu-test-journal" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let j = Journal.restart path ~keep:[] in
  Journal.append j (admitted 41);
  Journal.append j (admitted 42);
  Journal.append j (Journal.Completed { id = 41 });
  Journal.close j;
  with_server ~journal_file:path @@ fun sock ->
  (* wait for the replayed job to finish *)
  let rec settle n =
    let s = Client.stats ~socket:sock in
    if s.Proto.completed >= 1 then s
    else if n = 0 then Alcotest.fail "replayed job never completed"
    else begin
      Unix.sleepf 0.1;
      settle (n - 1)
    end
  in
  let s = settle 100 in
  Alcotest.(check bool) "replay solved without a client" true
    (s.Proto.completed >= 1);
  (* ids continue past the journal's *)
  let r = solve_ok sock (example2 ()) in
  Alcotest.(check bool) "replayed result serves from the cache" true
    r.Client.cached;
  (match r.Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "replayed result: %a" T.pp_outcome o);
  Alcotest.(check bool) "job ids resume past the journal" true
    (r.Client.id > 42);
  (* the journal is compacted: the replayed job is completed on disk *)
  Alcotest.(check int) "journal owes nothing" 0
    (List.length (Journal.pending (Journal.replay path)))

(* ----- bad input on the socket ----- *)

let solves_example2 what sock =
  match (solve_ok sock (example2 ())).Client.outcome with
  | T.Optimum 2 -> ()
  | o -> Alcotest.failf "%s: %a" what T.pp_outcome o

(* A well-formed request whose instance is out of range — here one that
   declares max_int variables for an instance already in the cache — is
   rejected as a malformed instance, and the daemon keeps serving. *)
let test_huge_w_vars_rejected () =
  with_server @@ fun sock ->
  solves_example2 "first solve" sock;
  let fd = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close fd) (fun () ->
      Client.send fd
        (Proto.Solve
           {
             wcnf = { (Proto.to_wire (example2 ())) with Proto.w_vars = max_int };
             options = Proto.default_options;
           });
      match Client.recv fd with
      | Some (Proto.Rejected { reason }) ->
          Alcotest.(check string) "reason" "malformed instance" reason
      | _ -> Alcotest.fail "expected Rejected for w_vars = max_int");
  solves_example2 "solve after the huge w_vars" sock

(* Forty request frames, each with one payload byte changed (fixed
   seed), go to one daemon; after each, a normal solve still succeeds. *)
let test_corrupt_request_frames () =
  let w =
    match Msu_gen.Suites.debugging ~scale:0.2 ~seed:9801 () with
    | i :: _ -> Wcnf.of_formula i.Msu_gen.Suites.formula
    | [] -> example2 ()
  in
  let frame =
    Proto.encode (Proto.Solve { wcnf = Proto.to_wire w; options = Proto.default_options })
  in
  let header = Msu_frame.Frame.header_bytes in
  let st = Random.State.make [| 9801 |] in
  with_server @@ fun sock ->
  for trial = 1 to 40 do
    let b = Bytes.copy frame in
    let i = header + Random.State.int st (Bytes.length b - header) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int st 255)));
    let fd = Client.connect sock in
    Fun.protect ~finally:(fun () -> Client.close fd) (fun () ->
        ignore (Unix.write fd b 0 (Bytes.length b));
        match Client.recv fd with
        | None | Some (Proto.Rejected _) -> ()
        | Some _ -> Alcotest.failf "trial %d: a corrupt request was served" trial
        | exception Client.Error _ -> ());
    solves_example2 (Printf.sprintf "solve after corrupt frame %d" trial) sock
  done

let suite =
  [
    Alcotest.test_case "fingerprint invariances" `Quick
      test_fingerprint_invariances;
    Alcotest.test_case "fingerprint merges duplicates" `Quick
      test_fingerprint_merges_duplicates;
    Alcotest.test_case "fingerprint distinguishes" `Quick
      test_fingerprint_distinguishes;
    QCheck_alcotest.to_alcotest prop_fingerprint_matches_reference;
    Alcotest.test_case "fingerprint pinned" `Quick test_fingerprint_pinned;
    Alcotest.test_case "job queue" `Quick test_jobq;
    Alcotest.test_case "cache hit is re-verified" `Quick
      test_cache_hit_and_verify;
    Alcotest.test_case "cache LRU and persistence" `Quick
      test_cache_lru_and_persistence;
    Alcotest.test_case "e2e cache hit" `Quick test_e2e_cache_hit;
    Alcotest.test_case "e2e crash isolation" `Quick test_e2e_crash_isolation;
    Alcotest.test_case "e2e cancel" `Quick test_e2e_cancel;
    Alcotest.test_case "e2e queue full" `Quick test_e2e_queue_full;
    Alcotest.test_case "journal round-trip and compaction" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "version mismatch rejected" `Quick
      test_version_mismatch_rejected;
    Alcotest.test_case "huge w_vars rejected, daemon serves on" `Quick
      test_huge_w_vars_rejected;
    Alcotest.test_case "corrupt request frames, daemon serves on" `Quick
      test_corrupt_request_frames;
    Alcotest.test_case "e2e crash retry" `Quick test_e2e_crash_retry;
    Alcotest.test_case "e2e journal replay" `Quick test_e2e_journal_replay;
  ]
