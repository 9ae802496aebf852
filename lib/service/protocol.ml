module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Card = Msu_card.Card
module Fault = Msu_guard.Fault
module Frame = Msu_frame.Frame

(* Instances cross the socket as plain integer arrays rather than as
   Wcnf.t, in a mirror type the codec below checks field by field. *)
type wire_wcnf = {
  w_vars : int;
  w_hard : int array array;  (* Lit.to_int per literal *)
  w_soft : (int * int array) array;  (* (weight, literals) *)
}

let to_wire w =
  let lits c = Array.map Lit.to_int c in
  {
    w_vars = Wcnf.num_vars w;
    w_hard = Array.init (Wcnf.num_hard w) (fun i -> lits (Wcnf.hard w i));
    w_soft = Array.init (Wcnf.num_soft w) (fun i -> (Wcnf.weight w i, lits (Wcnf.soft w i)));
  }

let max_vars = 1 lsl 22

(* Only a decoded instance reaches [of_wire] in the daemon, and the
   codec has already checked every literal against [w_vars]. *)
let of_wire ww =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w ww.w_vars;
  Array.iter
    (fun c -> Wcnf.add_hard w (Array.map Lit.of_int_unsafe c))
    ww.w_hard;
  Array.iter
    (fun (weight, c) ->
      ignore (Wcnf.add_soft w ~weight (Array.map Lit.of_int_unsafe c)))
    ww.w_soft;
  w

type options = {
  algorithm : M.algorithm;
  encoding : Msu_card.Card.encoding option;  (* None = server default *)
  timeout : float option;  (* None = server default *)
  max_conflicts : int option;
  priority : int;  (* higher pops sooner; FIFO within a priority *)
  use_cache : bool;
  fault : Msu_guard.Fault.kind option;  (* armed in the worker; tests only *)
}

let default_options =
  {
    algorithm = M.Msu4_v2;
    encoding = None;
    timeout = None;
    max_conflicts = None;
    priority = 0;
    use_cache = true;
    fault = None;
  }

type request =
  | Solve of { wcnf : wire_wcnf; options : options }
  | Stats
  | Cancel of int
  | Shutdown of { drain : bool }

type latency = { l_count : int; l_mean : float; l_p50 : float; l_p95 : float }

type stats = {
  uptime : float;
  requests : int;
  completed : int;
  hits : int;
  misses : int;
  rejected : int;
  crashes : int;
  cancelled : int;
  queue_depth : int;
  running : int;
  workers_total : int;
  hit_rate : float;
  cache_entries : int;
  outcomes : (string * int) list;
  per_algorithm : (string * latency) list;
  prometheus : string;
}

type reply =
  | Accepted of { id : int }
  | Rejected of { reason : string }
  | Result of {
      id : int;
      outcome : T.outcome;
      model : bool array option;
      cached : bool;
      elapsed : float;
    }
  | Stats_report of stats
  | Cancel_ack of { id : int; found : bool }
  | Bye

(* ---------------- codecs ----------------

   Constructors travel under the explicit numbers below, algorithms,
   encodings and faults by name.  Every range check of an instance
   fails as "malformed instance", which the daemon sends back as the
   rejection reason. *)

let lits_codec = Frame.array Frame.nat

let wcnf_codec =
  let in_range vars = Array.for_all (fun l -> l lsr 1 < vars) in
  let ok w =
    w.w_vars <= max_vars
    && Array.for_all (in_range w.w_vars) w.w_hard
    && Array.for_all (fun (weight, c) -> weight > 0 && in_range w.w_vars c) w.w_soft
  in
  let shape = Frame.(pair nat (pair (array lits_codec) (array (pair nat lits_codec)))) in
  {
    Frame.write = (fun b w -> shape.write b (w.w_vars, (w.w_hard, w.w_soft)));
    read =
      (fun s ->
        match shape.read s with
        | w_vars, (w_hard, w_soft) when ok { w_vars; w_hard; w_soft } -> { w_vars; w_hard; w_soft }
        | _ | (exception Frame.Malformed _) -> Frame.malformed "malformed instance");
  }

let options_codec =
  let open Frame in
  map
    (fun o -> ((o.algorithm, o.encoding), ((o.timeout, o.max_conflicts), ((o.priority, o.use_cache), o.fault))))
    (fun ((algorithm, encoding), ((timeout, max_conflicts), ((priority, use_cache), fault))) ->
      { algorithm; encoding; timeout; max_conflicts; priority; use_cache; fault })
    (pair
       (pair (named M.algorithm_to_string M.algorithm_of_string)
          (option (named Card.encoding_to_string Card.encoding_of_string)))
       (pair (pair (option float) (option nat))
          (pair (pair int bool) (option (named Fault.to_string Fault.of_string)))))

let request_codec =
  let open Frame in
  {
    write =
      (fun b -> function
        | Solve { wcnf; options } -> nat.write b 0; wcnf_codec.write b wcnf; options_codec.write b options
        | Stats -> nat.write b 1
        | Cancel id -> nat.write b 2; nat.write b id
        | Shutdown { drain } -> nat.write b 3; bool.write b drain);
    read =
      (fun s ->
        match nat.read s with
        | 0 -> let wcnf = wcnf_codec.read s in Solve { wcnf; options = options_codec.read s }
        | 1 -> Stats
        | 2 -> Cancel (nat.read s)
        | 3 -> Shutdown { drain = bool.read s }
        | _ -> malformed "unknown request");
  }

let stats_codec =
  let open Frame in
  let latency =
    map
      (fun l -> ((l.l_count, l.l_mean), (l.l_p50, l.l_p95)))
      (fun ((l_count, l_mean), (l_p50, l_p95)) -> { l_count; l_mean; l_p50; l_p95 })
      (pair (pair nat float) (pair float float))
  in
  let counts = list nat and outcomes = list (pair string nat) and latencies = list (pair string latency) in
  {
    write =
      (fun b st ->
        counts.write b
          [
            st.requests; st.completed; st.hits; st.misses; st.rejected; st.crashes; st.cancelled;
            st.queue_depth; st.running; st.workers_total; st.cache_entries;
          ];
        List.iter (float.write b) [ st.uptime; st.hit_rate ];
        outcomes.write b st.outcomes;
        latencies.write b st.per_algorithm;
        string.write b st.prometheus);
    read =
      (fun s ->
        match counts.read s with
        | [ requests; completed; hits; misses; rejected; crashes; cancelled; queue_depth; running;
            workers_total; cache_entries ] ->
            let uptime = float.read s in
            let hit_rate = float.read s in
            let outcomes = outcomes.read s in
            let per_algorithm = latencies.read s in
            { uptime; requests; completed; hits; misses; rejected; crashes; cancelled; queue_depth;
              running; workers_total; hit_rate; cache_entries; outcomes; per_algorithm;
              prometheus = string.read s }
        | _ -> malformed "stats counts");
  }

let reply_codec =
  let open Frame in
  let model = option bits in
  {
    write =
      (fun b -> function
        | Accepted { id } -> nat.write b 0; nat.write b id
        | Rejected { reason } -> nat.write b 1; string.write b reason
        | Result { id; outcome; model = m; cached; elapsed } ->
            nat.write b 2; nat.write b id; T.outcome_codec.write b outcome; model.write b m;
            bool.write b cached; float.write b elapsed
        | Stats_report st -> nat.write b 3; stats_codec.write b st
        | Cancel_ack { id; found } -> nat.write b 4; nat.write b id; bool.write b found
        | Bye -> nat.write b 5);
    read =
      (fun s ->
        match nat.read s with
        | 0 -> Accepted { id = nat.read s }
        | 1 -> Rejected { reason = string.read s }
        | 2 ->
            let id = nat.read s in
            let outcome = T.outcome_codec.read s in
            let m = model.read s in
            let cached = bool.read s in
            Result { id; outcome; model = m; cached; elapsed = float.read s }
        | 3 -> Stats_report (stats_codec.read s)
        | 4 -> let id = nat.read s in Cancel_ack { id; found = bool.read s }
        | 5 -> Bye
        | _ -> malformed "unknown reply");
  }

let encode req = Frame.encode Frame.Request request_codec req

(* Every whole frame in [buf] in one pass over one copy of it; a
   trailing partial frame stays buffered. *)
let decode_frames buf =
  let s = Buffer.contents buf in
  let rec go pos acc =
    match Frame.parse s pos with
    | Some (f, next) -> go next (Frame.decode Frame.Request request_codec f :: acc)
    | None ->
        Buffer.clear buf;
        Buffer.add_substring buf s pos (String.length s - pos);
        List.rev acc
  in
  go 0 []
