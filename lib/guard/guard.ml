type reason = Timeout | Conflicts | Propagations | Memory | Cancelled

let reason_to_string = function
  | Timeout -> "timeout"
  | Conflicts -> "conflict budget"
  | Propagations -> "propagation budget"
  | Memory -> "memory budget"
  | Cancelled -> "cancelled"

exception Interrupt of reason

type t = {
  deadline : float;
  max_conflicts : int;
  max_propagations : int;
  max_memory_words : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable polls : int;
  mutable tripped : reason option;
  (* Bounds proved elsewhere (another portfolio worker) and installed
     here; sound for the instance but not backed by local work. *)
  mutable ext_lb : int;
  mutable ext_ub : int; (* max_int = none *)
  mutable ticker : (unit -> unit) option;
}

let create ?(deadline = infinity) ?(max_conflicts = max_int)
    ?(max_propagations = max_int) ?(max_memory_words = max_int) () =
  {
    deadline;
    max_conflicts;
    max_propagations;
    max_memory_words;
    conflicts = 0;
    propagations = 0;
    polls = 0;
    tripped = None;
    ext_lb = 0;
    ext_ub = max_int;
    ticker = None;
  }

let unlimited () = create ()
let add_conflicts g n = g.conflicts <- g.conflicts + n
let add_propagations g n = g.propagations <- g.propagations + n

(* One counter per trip reason: a fleet-wide view of *why* solves stop
   (timeout-bound vs. conflict-bound workloads look identical in the
   result record but not here). *)
let m_trips =
  let mk r =
    ( r,
      Msu_obs.Obs.Metrics.counter
        ~help:("guard trips: " ^ reason_to_string r)
        ("msu_guard_trips_total_"
        ^ String.map (function ' ' -> '_' | c -> c) (reason_to_string r)) )
  in
  [ mk Timeout; mk Conflicts; mk Propagations; mk Memory; mk Cancelled ]

let trip g r =
  if g.tripped = None then begin
    g.tripped <- Some r;
    match List.assoc_opt r m_trips with
    | Some c -> Msu_obs.Obs.Metrics.inc c
    | None -> ()
  end
let tripped g = g.tripped

(* ----- externally proved bounds (portfolio bound sharing) ----- *)

let install_bounds g ~lb ~ub =
  if lb > g.ext_lb then g.ext_lb <- lb;
  match ub with Some u when u < g.ext_ub -> g.ext_ub <- u | _ -> ()

let external_lb g = g.ext_lb
let external_ub g = if g.ext_ub = max_int then None else Some g.ext_ub
let set_ticker g f = g.ticker <- Some f
let tick g = match g.ticker with Some f -> f () | None -> ()

(* ----- cooperative cancellation by signal ----- *)

(* One guard per process is the cancellation target (a forked worker
   runs exactly one supervised solve); the handler only flips a mutable
   field, which is safe inside an OCaml signal handler. *)
let cancel_target : t option ref = ref None

(* A cancellation arriving before any guard is registered (e.g. SIGTERM
   racing a freshly forked worker's setup) must not be swallowed: it is
   remembered and trips the next registered guard. *)
let cancel_pending = ref false

let set_cancel_target g =
  cancel_target := Some g;
  if !cancel_pending then begin
    cancel_pending := false;
    trip g Cancelled
  end

let cancel_current () =
  match !cancel_target with
  | Some g -> trip g Cancelled
  | None -> cancel_pending := true

let install_sigterm_handler () =
  cancel_target := None;
  cancel_pending := false;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> cancel_current ()))
let conflicts g = g.conflicts
let propagations g = g.propagations

let remaining_conflicts g =
  if g.max_conflicts = max_int then None else Some (max 0 (g.max_conflicts - g.conflicts))

let over_deadline g = g.deadline < infinity && Unix.gettimeofday () > g.deadline

let over_memory g =
  (* quick_stat reads counters without walking the heap, so it is cheap
     enough for a sampled poll (unlike Gc.stat). *)
  g.max_memory_words < max_int && (Gc.quick_stat ()).Gc.heap_words > g.max_memory_words

let counters_breached g =
  if g.conflicts > g.max_conflicts then Some Conflicts
  else if g.propagations > g.max_propagations then Some Propagations
  else None

let breached g =
  match g.tripped with
  | Some _ as r -> r
  | None ->
      tick g;
      let r =
        match counters_breached g with
        | Some _ as r -> r
        | None ->
            if over_deadline g then Some Timeout
            else if over_memory g then Some Memory
            else None
      in
      (match r with Some reason -> trip g reason | None -> ());
      g.tripped

let poll g =
  match g.tripped with
  | Some _ as r -> r
  | None -> (
      g.polls <- g.polls + 1;
      match counters_breached g with
      | Some reason ->
          trip g reason;
          g.tripped
      | None ->
          if g.polls land 0x3f = 0 then begin
            tick g;
            if g.tripped = None && over_deadline g then trip g Timeout
          end;
          if g.tripped = None && g.polls land 0xff = 0 && over_memory g then
            trip g Memory;
          g.tripped)

let check g = match poll g with None -> () | Some r -> raise (Interrupt r)

module Progress = struct
  type cell = {
    mutable lb : int;
    mutable ub : int option;
    mutable model : bool array option;
  }

  let create () = { lb = 0; ub = None; model = None }
  let note_lb c lb = if lb > c.lb then c.lb <- lb

  let note_ub c ub model =
    let better = match c.ub with None -> true | Some u -> ub < u in
    if better then begin
      c.ub <- Some ub;
      match model with
      | Some m -> c.model <- Some (Array.copy m)
      | None -> ()
    end

  let lb c = c.lb
  let ub c = c.ub
  let model c = c.model

  (* [note_ub] installs a fresh [Some] whenever the upper bound falls,
     and the model only ever changes with it, so the physical identity
     of [c.ub] is an exact change test for both.  What was sent is
     recorded after [send] returns: a send that raises is retried on
     the next call. *)
  let publisher c send =
    let sent_lb = ref (-1) and sent_ub = ref None in
    fun () ->
      let lb = c.lb and ub = c.ub in
      if lb <> !sent_lb || ub != !sent_ub then begin
        send ~lb:(lb <> !sent_lb) ~ub:(ub != !sent_ub);
        sent_lb := lb;
        sent_ub := ub
      end
end

let supervise ?(spans = Msu_obs.Obs.Span.disabled) f =
  Msu_obs.Obs.Span.wrap spans "supervise" @@ fun () ->
  try Ok (f ()) with
  | (Interrupt _ | Invalid_argument _) as e -> raise e
  | Stack_overflow -> Error "stack overflow"
  | Out_of_memory -> Error "out of memory"
  | Failure msg -> Error (Printf.sprintf "failure: %s" msg)
  | e -> Error (Printexc.to_string e)
