module Obs = Msu_obs.Obs
module Guard = Msu_guard.Guard
module Fault = Msu_guard.Fault
module Frame = Msu_frame.Frame

(* Per-peer output buffer for a nonblocking pipe: a short write or
   EAGAIN keeps the unsent tail queued, and the next [flush] (on the
   select loop's writable round) resumes exactly where the kernel
   stopped — a frame is never torn mid-way or silently dropped. *)
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

  let queue t frame =
    compact t;
    let n = Bytes.length frame in
    if t.len + n > Bytes.length t.data then begin
      let cap = ref (max 256 (Bytes.length t.data)) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let d = Bytes.create !cap in
      Bytes.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    Bytes.blit frame 0 t.data t.len n;
    t.len <- t.len + n

  let flush t fd =
    let continue = ref true in
    while !continue && pending t do
      match Unix.write fd t.data t.pos (t.len - t.pos) with
      | 0 -> continue := false
      | n -> t.pos <- t.pos + n
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ ->
          (* Dead peer (EPIPE with SIGPIPE ignored): drop the backlog. *)
          t.pos <- 0;
          t.len <- 0;
          continue := false
    done
end

let write_frame fd frame = try Frame.write fd frame with Unix.Unix_error _ -> ()

let event_sink fd =
  Obs.of_fn (fun e -> write_frame fd (Frame.encode Frame.Event Frame.string (Obs.Event.to_json e)))

(* ---------------- pool ---------------- *)

(* Seconds a SIGTERMed worker gets to flush before SIGKILL. *)
let flush_grace grace = Float.max 0.25 (0.5 *. grace)

(* The worker-exit split (the "label" is in the name: the registry has
   no label dimension). *)
let m_exit_normal =
  Obs.Metrics.counter ~help:"workers that exited normally (WEXITED)"
    "msu_worker_exit_total_normal"

let m_exit_signaled =
  Obs.Metrics.counter ~help:"workers killed by a signal (WSIGNALED/WSTOPPED)"
    "msu_worker_exit_total_signaled"

(* OCaml numbers signals with its own negative constants
   ([Sys.sigkill = -7]); statuses and messages use the system's number
   (Linux numbering).  A positive number is a signal OCaml has no
   constant for, already in the system's numbering. *)
let posix_signals =
  Sys.
    [
      (sighup, 1); (sigint, 2); (sigquit, 3); (sigill, 4); (sigtrap, 5);
      (sigabrt, 6); (sigbus, 7); (sigfpe, 8); (sigkill, 9); (sigusr1, 10);
      (sigsegv, 11); (sigusr2, 12); (sigpipe, 13); (sigalrm, 14); (sigterm, 15);
      (sigchld, 17); (sigcont, 18); (sigstop, 19); (sigtstp, 20); (sigttin, 21);
      (sigttou, 22); (sigurg, 23); (sigxcpu, 24); (sigxfsz, 25); (sigvtalrm, 26);
      (sigprof, 27); (sigpoll, 29); (sigsys, 31);
    ]

let posix_signal n = Option.value (List.assoc_opt n posix_signals) ~default:n

let exit_code = function
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + posix_signal n

type 'a exit = {
  status : Unix.process_status;
  result : ('a, string) result;
  termed : bool;
}

type 'a worker = {
  pid : int;
  id : int;
  up : Unix.file_descr;  (* read end *)
  down : (Unix.file_descr * Outbuf.t) option;  (* write end, nonblocking *)
  reader : Frame.reader;  (* up-pipe bytes past the last whole frame *)
  mutable result : ('a, string) result option;  (* the result frame, once whole *)
  on_frame : Frame.t -> unit;
  events : Obs.sink;
  on_exit : 'a exit -> unit;
  flush : float;
  mutable term_at : float;  (* SIGTERM rung; SIGKILL follows [flush] later *)
  mutable termed : bool;
  mutable killed : bool;
  mutable reaped : bool;
}

type 'a t = {
  sink : Obs.sink;
  grace : float;
  result_codec : ('a, string) result Frame.codec;
  mutable live : 'a worker list;  (* spawn order *)
}

let create ?(sink = Obs.null) ~grace ~codec () =
  { sink; grace; result_codec = Frame.result codec Frame.string; live = [] }

(* Parent-side pipe ends of every live worker of every pool: a child
   closes them all, so no worker holds another worker's pipe. *)
let held : Unix.file_descr list ref = ref []

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()
let pid w = w.pid
let running t = List.length t.live

let descriptors w =
  if w.reaped then []
  else w.up :: (match w.down with Some (fd, _) -> [ fd ] | None -> [])

(* Child side.  Nothing may escape: an exception unwinding past this
   frame would run the caller's continuation (its whole program) a
   second time in the child.  The result is the last frame on the up
   pipe. *)
let run_child t ~close ~ignore_sigint ~alarm_after ~mask ~up f =
  try
    Obs.after_fork ();
    List.iter close_quietly (close @ !held);
    held := [];
    if ignore_sigint then Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Guard.install_sigterm_handler ();
    (* A write to a dead parent surfaces as EPIPE, not death. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if Float.is_finite alarm_after then begin
      Sys.set_signal Sys.sigalrm Sys.Signal_default;
      ignore (Unix.alarm (max 1 (int_of_float (ceil alarm_after) + 1)))
    end;
    (* Unblocking delivers a SIGTERM that arrived since the fork to the
       guard handler: it is remembered and trips the solve's guard as
       soon as the solve registers it. *)
    ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    write_frame up (Frame.encode Frame.Result t.result_codec result);
    if Fault.consume Fault.Kill_after_result then kill (Unix.getpid ()) Sys.sigkill;
    Unix._exit (match result with Ok _ -> 0 | Error _ -> 2)
  with _ -> Unix._exit 2

let spawn t ?(id = 0) ?(close = []) ?(ignore_sigint = false) ?(down = false)
    ?(events = Obs.null) ~deadline ~on_frame ~on_exit f =
  let up_rd, up_wr = Unix.pipe () in
  let down_pipe = if down then Some (Unix.pipe ()) else None in
  let flush = flush_grace t.grace in
  let alarm_after = deadline -. Unix.gettimeofday () +. (2. *. t.grace) +. flush in
  (* Blocked across the fork: the parent's own handlers (the daemon's
     shutdown flag, the portfolio's Ctrl-C) must never run in the
     child, and a SIGTERM meant for the parent must not be lost. *)
  let mask = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ] in
  match Unix.fork () with
  | 0 ->
      close_quietly up_rd;
      Option.iter (fun (_, wr) -> close_quietly wr) down_pipe;
      run_child t ~close ~ignore_sigint ~alarm_after ~mask ~up:up_wr (fun () ->
          f ~up:up_wr ~down:(Option.map fst down_pipe))
  | pid ->
      ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
      close_quietly up_wr;
      Unix.set_nonblock up_rd;
      let down =
        Option.map
          (fun (rd, wr) ->
            close_quietly rd;
            Unix.set_nonblock wr;
            (wr, Outbuf.create ()))
          down_pipe
      in
      let w =
        {
          pid;
          id;
          up = up_rd;
          down;
          reader = Frame.reader ();
          result = None;
          on_frame;
          events;
          on_exit;
          flush;
          term_at = deadline +. t.grace;
          termed = false;
          killed = false;
          reaped = false;
        }
      in
      t.live <- t.live @ [ w ];
      held := descriptors w @ !held;
      Obs.emit t.sink ~id (Obs.Event.Worker_spawn { pid });
      w
  | exception e ->
      ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
      List.iter close_quietly
        (up_rd :: up_wr
        :: (match down_pipe with Some (rd, wr) -> [ rd; wr ] | None -> []));
      raise e

let send w frame =
  match w.down with
  | Some (fd, out) when not w.reaped ->
      Outbuf.queue out frame;
      Outbuf.flush out fd
  | _ -> ()

(* ---------------- ladder ---------------- *)

let term w =
  w.termed <- true;
  w.term_at <- Unix.gettimeofday ();
  kill w.pid Sys.sigterm

let cancel w = if not (w.reaped || w.termed) then term w

let next_rung w =
  if not w.termed then w.term_at
  else if not w.killed then w.term_at +. w.flush
  else infinity

let ladder t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      if (not w.termed) && now >= w.term_at then term w
      else if w.termed && (not w.killed) && now >= w.term_at +. w.flush then begin
        w.killed <- true;
        kill w.pid Sys.sigkill
      end)
    t.live

(* ---------------- reap ---------------- *)

let rec waitpid_block pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_block pid
  | exception Unix.Unix_error _ -> Unix.WEXITED 255

(* EOF on the up pipe: the child closed it by exiting, so the blocking
   waitpid returns at once.  Bytes past the last whole frame are a
   frame torn by the death and are dropped. *)
let reap t w =
  let fds = descriptors w in
  w.reaped <- true;
  t.live <- List.filter (fun w' -> w' != w) t.live;
  held := List.filter (fun fd -> not (List.mem fd fds)) !held;
  List.iter close_quietly fds;
  let status = waitpid_block w.pid in
  let signaled = match status with Unix.WEXITED _ -> false | _ -> true in
  Obs.Metrics.inc (if signaled then m_exit_signaled else m_exit_normal);
  Obs.emit t.sink ~id:w.id
    (Obs.Event.Worker_exit { pid = w.pid; status = exit_code status; signaled });
  let result =
    match w.result with
    | Some r -> r
    | None -> (
        match status with
        | Unix.WEXITED 0 -> Error "worker produced no result"
        | Unix.WEXITED n -> Error (Printf.sprintf "worker exit %d" n)
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            Error (Printf.sprintf "worker killed (signal %d)" (posix_signal n)))
  in
  w.on_exit { status; result; termed = w.termed }

(* Results and events are the pool's own frames; the rest go to the
   caller.  A frame the stream carried whole but whose payload does not
   decode is dropped. *)
let deliver t w (f : Frame.t) =
  try
    match f.Frame.tag with
    | Frame.Result -> w.result <- Some (Frame.decode Frame.Result t.result_codec f)
    | Frame.Event ->
        Option.iter (Obs.feed w.events)
          (Obs.Event.of_json (Frame.decode Frame.Event Frame.string f))
    | _ -> w.on_frame f
  with Frame.Malformed _ -> ()

(* A bad frame leaves the reader dropping the rest of the pipe, which
   is still read to EOF so the child never blocks. *)
let drain t w =
  match Frame.drain w.reader w.up (deliver t w) with
  | true | (exception (Frame.Malformed _ | Frame.Version_mismatch _)) -> ()
  | false | (exception Unix.Unix_error _) -> reap t w

let poll t ?(read = []) ~timeout () =
  let live = t.live in
  let due = List.fold_left (fun acc w -> Float.min acc (next_rung w)) infinity live in
  let timeout = Float.max 0. (Float.min timeout (due -. Unix.gettimeofday ())) in
  let ups = List.map (fun w -> w.up) live in
  let downs =
    List.filter_map
      (fun w ->
        match w.down with
        | Some (fd, out) when Outbuf.pending out -> Some fd
        | _ -> None)
      live
  in
  let readable, writable =
    match Unix.select (read @ ups) downs [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  List.iter
    (fun w ->
      match w.down with
      | Some (fd, out) when List.mem fd writable -> Outbuf.flush out fd
      | _ -> ())
    live;
  List.iter (fun w -> if List.mem w.up readable then drain t w) live;
  ladder t;
  List.filter (fun fd -> List.mem fd readable) read

let wait t =
  while t.live <> [] do
    ignore (poll t ~timeout:1.0 ())
  done
