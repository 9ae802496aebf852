module Obs = Msu_obs.Obs
module Guard = Msu_guard.Guard
module Fault = Msu_guard.Fault

(* ---------------- line framing ---------------- *)

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
   stopped — a line is never torn mid-way or silently dropped. *)
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
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ ->
          (* Dead peer (EPIPE with SIGPIPE ignored): drop the backlog. *)
          t.pos <- 0;
          t.len <- 0;
          continue := false
    done
end

let write_line fd s =
  let line = s ^ "\n" in
  try ignore (Unix.write_substring fd line 0 (String.length line))
  with Unix.Unix_error _ -> ()

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
  buf : Buffer.t;  (* up-pipe bytes past the last newline *)
  tmp : string;  (* result file *)
  on_line : string -> unit;
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
  mutable live : 'a worker list;  (* spawn order *)
  chunk : Bytes.t;
}

let create ?(sink = Obs.null) ~grace () =
  { sink; grace; live = []; chunk = Bytes.create 65536 }

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

let write_result tmp result =
  try
    let oc = open_out_bin tmp in
    Marshal.to_channel oc result [];
    close_out oc
  with _ -> ()

let read_result tmp =
  try
    let ic = open_in_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (Marshal.from_channel ic))
  with _ -> None

(* Child side.  Nothing may escape: an exception unwinding past this
   frame would run the caller's continuation (its whole program) a
   second time in the child. *)
let run_child ~close ~ignore_sigint ~alarm_after ~mask ~tmp f =
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
    write_result tmp result;
    if Fault.consume Fault.Kill_after_result then kill (Unix.getpid ()) Sys.sigkill;
    Unix._exit (match result with Ok _ -> 0 | Error _ -> 2)
  with _ -> Unix._exit 2

let spawn t ?(id = 0) ?(close = []) ?(ignore_sigint = false) ?(down = false)
    ~deadline ~on_line ~on_exit f =
  let tmp = Filename.temp_file "msu-worker" ".bin" in
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
      run_child ~close ~ignore_sigint ~alarm_after ~mask ~tmp (fun () ->
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
          buf = Buffer.create 256;
          tmp;
          on_line;
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
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let send w line =
  match w.down with
  | Some (fd, out) when not w.reaped ->
      Outbuf.queue out line;
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
   waitpid returns at once.  The tail without a newline is a frame torn
   by the death; it still goes to the caller's parser, which validates
   it like any other line. *)
let reap t w =
  let tail = Buffer.contents w.buf in
  Buffer.clear w.buf;
  if tail <> "" then w.on_line tail;
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
    match read_result w.tmp with
    | Some r -> r
    | None -> (
        match status with
        | Unix.WEXITED 0 -> Error "worker produced no result"
        | Unix.WEXITED n -> Error (Printf.sprintf "worker exit %d" n)
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            Error (Printf.sprintf "worker killed (signal %d)" (posix_signal n)))
  in
  (try Sys.remove w.tmp with Sys_error _ -> ());
  w.on_exit { status; result; termed = w.termed }

let rec drain t w =
  match Unix.read w.up t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> reap t w
  | n ->
      Buffer.add_subbytes w.buf t.chunk 0 n;
      List.iter w.on_line (take_lines w.buf);
      drain t w
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> reap t w

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
