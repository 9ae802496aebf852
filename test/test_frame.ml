(* The frame codec, generated: every frame kind that crosses a pipe,
   socket or file round-trips random values, and no corruption of its
   bytes (a strict prefix, a changed byte, random bytes, or a changed
   payload under a freshly computed digest) raises anything but the
   codec's own exceptions or decodes to a value out of range. *)

module Frame = Msu_frame.Frame
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Card = Msu_card.Card
module Fault = Msu_guard.Fault
module Ck = Msu_guard.Checkpoint
module Proto = Msu_service.Protocol
module Journal = Msu_service.Journal
module Cache = Msu_service.Cache
module Portfolio = Msu_portfolio.Portfolio

(* ---------------- generators ---------------- *)

let int st n = Random.State.int st n
let pick st l = List.nth l (int st (List.length l))
let opt st g = if Random.State.bool st then Some (g st) else None
let bits st = Array.init (int st 20) (fun _ -> Random.State.bool st)
let text st = String.init (int st 12) (fun _ -> Char.chr (int st 256))

let bracket st =
  let lb = int st 50 in
  (lb, opt st (fun st -> lb + int st 50))

let outcome st =
  let lb, ub = bracket st in
  match int st 4 with
  | 0 -> T.Optimum lb
  | 1 -> T.Bounds { lb; ub }
  | 2 -> T.Hard_unsat
  | _ -> T.Crashed { reason = text st; lb; ub }

let result st =
  {
    T.outcome = outcome st;
    model = opt st bits;
    stats =
      { T.sat_calls = int st 99; cores = int st 99; blocking_vars = int st 99; encoding_clauses = int st 99 };
    elapsed = Random.State.float st 10.;
  }

let wcnf st =
  let vars = 1 + int st 12 in
  let lits st = Array.init (1 + int st 4) (fun _ -> int st (2 * vars)) in
  {
    Proto.w_vars = vars;
    w_hard = Array.init (int st 4) (fun _ -> lits st);
    w_soft = Array.init (int st 6) (fun _ -> (1 + int st 9, lits st));
  }

let options st =
  {
    Proto.algorithm = pick st (M.Sls :: M.all_algorithms);
    encoding = opt st (fun st -> pick st Card.all_encodings);
    timeout = opt st (fun st -> Random.State.float st 20.);
    max_conflicts = opt st (fun st -> int st 1000);
    priority = int st 20 - 10;
    use_cache = Random.State.bool st;
    fault =
      opt st (fun st ->
          pick st
            Fault.
              [
                Corrupt_model_bit; Flip_sat_answer; Drop_core_clause; Crash_mid_solve;
                Kill_mid_solve; Torn_checkpoint; Kill_after_result;
              ]);
  }

let request st =
  match int st 4 with
  | 0 -> Proto.Solve { wcnf = wcnf st; options = options st }
  | 1 -> Proto.Stats
  | 2 -> Proto.Cancel (int st 1000)
  | _ -> Proto.Shutdown { drain = Random.State.bool st }

let latency st =
  let f () = Random.State.float st 5. in
  { Proto.l_count = int st 100; l_mean = f (); l_p50 = f (); l_p95 = f () }

let stats st =
  let n () = int st 500 in
  {
    Proto.uptime = Random.State.float st 100.;
    requests = n ();
    completed = n ();
    hits = n ();
    misses = n ();
    rejected = n ();
    crashes = n ();
    cancelled = n ();
    queue_depth = n ();
    running = n ();
    workers_total = n ();
    hit_rate = Random.State.float st 1.;
    cache_entries = n ();
    outcomes = List.init (int st 4) (fun _ -> (text st, n ()));
    per_algorithm = List.init (int st 3) (fun _ -> (text st, latency st));
    prometheus = text st;
  }

let reply st =
  match int st 6 with
  | 0 -> Proto.Accepted { id = int st 1000 }
  | 1 -> Proto.Rejected { reason = text st }
  | 2 ->
      Proto.Result
        {
          id = int st 1000;
          outcome = outcome st;
          model = opt st bits;
          cached = Random.State.bool st;
          elapsed = Random.State.float st 9.;
        }
  | 3 -> Proto.Stats_report (stats st)
  | 4 -> Proto.Cancel_ack { id = int st 1000; found = Random.State.bool st }
  | _ -> Proto.Bye

let record st =
  if Random.State.bool st then
    Journal.Admitted
      { id = int st 1000; wcnf = wcnf st; options = options st; submitted = Random.State.float st 1e6 }
  else Journal.Completed { id = int st 1000 }

(* ---------------- ranges ---------------- *)

let bracket_ok lb ub = lb >= 0 && match ub with Some u -> lb <= u | None -> true

let outcome_ok = function
  | T.Optimum c -> c >= 0
  | T.Bounds { lb; ub } | T.Crashed { lb; ub; _ } -> bracket_ok lb ub
  | T.Hard_unsat -> true

let wcnf_ok (w : Proto.wire_wcnf) =
  let in_range = Array.for_all (fun l -> l >= 0 && l lsr 1 < w.Proto.w_vars) in
  w.Proto.w_vars >= 0
  && w.Proto.w_vars <= Proto.max_vars
  && Array.for_all in_range w.Proto.w_hard
  && Array.for_all (fun (weight, c) -> weight > 0 && in_range c) w.Proto.w_soft

let request_ok = function
  | Proto.Solve { wcnf; _ } -> wcnf_ok wcnf
  | Proto.Cancel id -> id >= 0
  | Proto.Stats | Proto.Shutdown _ -> true

let reply_ok = function
  | Proto.Accepted { id } | Proto.Cancel_ack { id; _ } -> id >= 0
  | Proto.Result { id; outcome; _ } -> id >= 0 && outcome_ok outcome
  | Proto.Stats_report s -> s.Proto.requests >= 0 && s.Proto.hits >= 0
  | Proto.Rejected _ | Proto.Bye -> true

(* ---------------- the property ---------------- *)

type kind =
  | Kind : {
      name : string;
      tag : Frame.tag;
      codec : 'a Frame.codec;
      gen : Random.State.t -> 'a;
      ok : 'a -> bool;
    }
      -> kind

(* Bytes that go into a payload as they are, under a digest computed
   for them. *)
let raw = { Frame.write = Buffer.add_string; read = (fun _ -> invalid_arg "raw") }

let prop (Kind k) =
  QCheck.Test.make ~name:(k.name ^ " frames round-trip and reject corruption") ~count:150
    QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let decode s =
        match Frame.parse s 0 with
        | Some (f, _) -> Some (Frame.decode k.tag k.codec f)
        | None -> None
      in
      (* No value out of range, and no exception but the codec's. *)
      let safe s =
        match decode s with
        | None -> true
        | Some v -> k.ok v
        | exception (Frame.Malformed _ | Frame.Version_mismatch _) -> true
      in
      (* Nothing decodes at all. *)
      let rejected s =
        match decode s with
        | None -> true
        | Some _ -> false
        | exception (Frame.Malformed _ | Frame.Version_mismatch _) -> true
      in
      let change s i =
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + int st 255)));
        Bytes.to_string b
      in
      let positions n = if n <= 96 then List.init n Fun.id else List.init 96 (fun _ -> int st n) in
      let v = k.gen st in
      let frame = Bytes.to_string (Frame.encode k.tag k.codec v) in
      let n = String.length frame in
      let payload = String.sub frame Frame.header_bytes (n - Frame.header_bytes) in
      let p = String.length payload in
      let reframe s = Bytes.to_string (Frame.encode k.tag raw s) in
      let random () = String.init (int st 80) (fun _ -> Char.chr (int st 256)) in
      decode frame = Some v
      && List.for_all (fun i -> Frame.parse (String.sub frame 0 i) 0 = None) (List.init n Fun.id)
      && List.for_all (fun i -> rejected (change frame i)) (positions n)
      && rejected (random ())
      && List.for_all (fun i -> safe (reframe (change payload i))) (positions p)
      && List.for_all (fun i -> safe (reframe (String.sub payload 0 i))) (List.init p Fun.id)
      && safe (reframe (random ())))

let kinds =
  [
    Kind { name = "request"; tag = Frame.Request; codec = Proto.request_codec; gen = request; ok = request_ok };
    Kind { name = "reply"; tag = Frame.Reply; codec = Proto.reply_codec; gen = reply; ok = reply_ok };
    Kind
      {
        name = "journal record";
        tag = Frame.Record;
        codec = Journal.codec;
        gen = record;
        ok =
          (function
          | Journal.Admitted { id; wcnf; _ } -> id >= 0 && wcnf_ok wcnf
          | Journal.Completed { id } -> id >= 0);
      };
    Kind
      {
        name = "cache entry";
        tag = Frame.Entry;
        codec = Cache.entry_codec;
        gen = (fun st -> ("fp" ^ text st, int st 100, bits st));
        ok = (fun (fp, cost, _) -> fp <> "" && cost >= 0);
      };
    Kind
      {
        name = "bracket";
        tag = Frame.Bracket;
        codec = Ck.codec;
        gen =
          (fun st ->
            let lb, ub = bracket st in
            { Ck.lb; ub; model = opt st bits });
        ok = (fun c -> bracket_ok c.Ck.lb c.Ck.ub);
      };
    Kind
      {
        name = "clause";
        tag = Frame.Clause;
        codec = Portfolio.clause_codec;
        gen = (fun st -> (int st 10, Array.init (1 + int st 8) (fun _ -> int st 500)));
        ok =
          (fun (lbd, lits) ->
            lbd >= 0 && Array.length lits >= 1 && Array.length lits <= 64
            && Array.for_all (fun l -> l >= 0) lits);
      };
    Kind
      {
        name = "worker result";
        tag = Frame.Result;
        codec = Frame.result T.result_codec Frame.string;
        gen = (fun st -> if int st 5 = 0 then Error (text st) else Ok (result st));
        ok = (function Ok r -> outcome_ok r.T.outcome | Error _ -> true);
      };
  ]

(* ---------------- primitives ---------------- *)

let frame_of c v = Option.get (Option.map fst (Frame.parse (Bytes.to_string (Frame.encode Frame.Event c v)) 0))

(* Varints cover the whole int range, negative ints included, and a
   nat refuses a varint that reads back negative. *)
let test_varint_range () =
  let round c v = Frame.decode Frame.Event c (frame_of c v) in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (round Frame.int v))
    [ 0; 1; -1; 63; -64; 64; max_int; min_int; 1 lsl 40; -(1 lsl 40) ];
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (round Frame.nat v))
    [ 0; 127; 128; max_int ];
  (* max_int zigzags to a varint with the sign bit set *)
  Alcotest.(check bool) "a varint with the sign bit set is not a nat" true
    (match Frame.decode Frame.Event Frame.nat (frame_of Frame.int max_int) with
    | _ -> false
    | exception Frame.Malformed _ -> true)

(* A count larger than the bytes left is refused before anything is
   allocated for it. *)
let test_count_checked () =
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) what true
        (match f (frame_of Frame.nat max_int) with
        | _ -> false
        | exception Frame.Malformed _ -> true))
    [
      ("string", fun f -> ignore (Frame.decode Frame.Event Frame.string f));
      ("list", fun f -> ignore (Frame.decode Frame.Event (Frame.list Frame.bool) f));
      ("array", fun f -> ignore (Frame.decode Frame.Event (Frame.array Frame.nat) f));
      ("bits", fun f -> ignore (Frame.decode Frame.Event Frame.bits f));
    ]

(* A file of frames loads up to its first bad frame. *)
let test_file_stops_at_bad_frame () =
  let path = Filename.temp_file "msu-test-frames" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let f v = Frame.encode Frame.Event Frame.nat v in
  Frame.write_file path [ f 1; f 2; f 3 ];
  Alcotest.(check (list int)) "whole file" [ 1; 2; 3 ] (Frame.read_file Frame.Event Frame.nat path);
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\x7f') 0 1);
  Unix.close fd;
  Alcotest.(check (list int)) "stops at the bad frame" [ 1; 2 ]
    (Frame.read_file Frame.Event Frame.nat path);
  Alcotest.(check (list int)) "another tag reads as nothing" []
    (Frame.read_file Frame.Entry Frame.nat path);
  Alcotest.(check (list int)) "missing file" [] (Frame.read_file Frame.Event Frame.nat (path ^ ".none"))

let suite =
  [
    Alcotest.test_case "varint range" `Quick test_varint_range;
    Alcotest.test_case "counts checked before allocation" `Quick test_count_checked;
    Alcotest.test_case "file stops at the first bad frame" `Quick test_file_stops_at_bad_frame;
  ]
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop k)) kinds
