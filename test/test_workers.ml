(* The forked-worker pool shared by the runner, the portfolio and the
   service: frame reading, the down-pipe output buffer, the kill ladder,
   the reap and the child's descriptor hygiene. *)

module W = Msu_harness.Workers
module R = Msu_harness.Runner
module M = Msu_maxsat.Maxsat
module Ck = Msu_guard.Checkpoint
module Fault = Msu_guard.Fault
module Frame = Msu_frame.Frame

(* Spawn one worker and block until it is reaped. *)
let run_one ?(grace = 0.05) ?(on_frame = ignore) ~codec ~deadline f =
  let pool = W.create ~grace ~codec () in
  let exit = ref None in
  ignore (W.spawn pool ~deadline ~on_frame ~on_exit:(fun e -> exit := Some e) f);
  W.wait pool;
  Option.get !exit

(* A clause frame, the shape a portfolio worker sends most. *)
let clause i = Frame.encode Frame.Clause (Frame.pair Frame.nat Frame.nat) (i, i + 1)

let clause_of f = Frame.decode Frame.Clause (Frame.pair Frame.nat Frame.nat) f

(* The whole frames in [s] from [pos] on, and where the rest starts. *)
let rec split s pos =
  match Frame.parse s pos with
  | Some (f, next) ->
      let fs, rest = split s next in
      (clause_of f :: fs, rest)
  | None -> ([], pos)

(* ---------------- frame reading ---------------- *)

(* Frame splitting: whole frames come out, the trailing partial frame
   stays buffered until the rest of it arrives. *)
let test_frame_reader_residual () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
  let reader = Frame.reader () in
  let a = clause 1 and b = clause 4 and c = clause 6 in
  let cut = Bytes.length c - 3 in
  List.iter (fun f -> ignore (Unix.write w f 0 (Bytes.length f))) [ a; b ];
  ignore (Unix.write w c 0 cut);
  let take () =
    let got = ref [] in
    ignore (Frame.drain reader r (fun f -> got := clause_of f :: !got) : bool);
    List.rev !got
  in
  Alcotest.(check (list (pair int int))) "whole frames" [ (1, 2); (4, 5) ] (take ());
  Alcotest.(check int) "partial frame retained" cut (Frame.pending reader);
  ignore (Unix.write w c cut 3);
  Alcotest.(check (list (pair int int))) "finished frame" [ (6, 7) ] (take ());
  Alcotest.(check int) "buffer drained" 0 (Frame.pending reader)

(* Outbuf: a full pipe (EAGAIN) or short write keeps the unsent tail
   queued and the next flush resumes mid-frame; nothing is torn or
   dropped.  The pipe is filled to capacity first so the flush hits
   EAGAIN for real. *)
let test_outbuf_resumes_after_full_pipe () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  Unix.set_nonblock r;
  (* Fill the pipe buffer to capacity. *)
  let filler = Bytes.make 4096 'x' in
  let filled = ref 0 in
  (try
     while true do
       filled := !filled + Unix.write w filler 0 (Bytes.length filler)
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let out = W.Outbuf.create () in
  let sent = List.init 200 (fun i -> (i, i + 1)) in
  List.iter (fun (i, _) -> W.Outbuf.queue out (clause i)) sent;
  W.Outbuf.flush out w;
  Alcotest.(check bool) "backlog pending while pipe is full" true
    (W.Outbuf.pending out);
  (* Drain the reader in lockstep with repeated flushes, mimicking the
     parent's writable-select rounds. *)
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let received = ref [] in
  (* Whole frames move from [buf] to [received]. *)
  let take () =
    let s = Buffer.contents buf in
    let fs, rest = split s 0 in
    Buffer.clear buf;
    Buffer.add_substring buf s rest (String.length s - rest);
    received := !received @ fs
  in
  let rounds = ref 0 in
  while (W.Outbuf.pending out || !filled > 0) && !rounds < 10_000 do
    incr rounds;
    (match Unix.read r chunk 0 (Bytes.length chunk) with
    | n ->
        if !filled >= n then filled := !filled - n
        else begin
          Buffer.add_subbytes buf chunk !filled (n - !filled);
          filled := 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    W.Outbuf.flush out w;
    take ()
  done;
  (* The backlog is flushed; drain what is still in flight in the pipe. *)
  (try
     while true do
       match Unix.read r chunk 0 (Bytes.length chunk) with
       | 0 -> raise Exit
       | n ->
           if !filled >= n then filled := !filled - n
           else begin
             Buffer.add_subbytes buf chunk !filled (n - !filled);
             filled := 0
           end
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) | Exit -> ());
  take ();
  Unix.close r;
  Unix.close w;
  Alcotest.(check (list (pair int int))) "every frame arrives intact, in order" sent
    !received

(* A dead peer (EPIPE) drops the backlog instead of raising or spinning. *)
let test_outbuf_dead_peer () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  Unix.close r;
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let out = W.Outbuf.create () in
  W.Outbuf.queue out (clause 1);
  W.Outbuf.flush out w;
  Sys.set_signal Sys.sigpipe previous;
  Unix.close w;
  Alcotest.(check bool) "backlog dropped on EPIPE" false (W.Outbuf.pending out)

(* ---------------- ladder ---------------- *)

let test_sigterm_flushes_partial_bounds () =
  (* The timeout bugfix, deterministically: a child that never finishes
     on its own but cooperates with cancellation must come back as a
     Timeout abort carrying the bounds it computed — before the fix the
     parent SIGKILLed it and the bounds were lost (lb 0, ub None). *)
  let thunk () =
    let g = Msu_guard.Guard.unlimited () in
    Msu_guard.Guard.set_cancel_target g;
    let rec spin () =
      match Msu_guard.Guard.tripped g with
      | Some _ -> (7, Some 9)
      | None ->
          Unix.sleepf 0.002;
          spin ()
    in
    spin ()
  in
  let e =
    run_one ~grace:0.05
      ~codec:(Frame.pair Frame.nat (Frame.option Frame.nat))
      ~deadline:(Unix.gettimeofday ())
      (fun ~up:_ ~down:_ -> thunk ())
  in
  match e.W.result with
  | Ok (7, Some 9) -> ()
  | Ok (lb, ub) ->
      Alcotest.failf "partial bounds lost: lb=%d ub=%s" lb
        (match ub with Some u -> string_of_int u | None -> "?")
  | Error reason -> Alcotest.failf "partial bounds lost: %s" reason

let test_sigkill_backstop () =
  (* A child that ignores the cancellation entirely must still be
     reaped (SIGKILL rung of the ladder), and classified as a crash. *)
  let thunk () =
    let rec spin () =
      Unix.sleepf 0.01;
      spin ()
    in
    spin ()
  in
  let t0 = Unix.gettimeofday () in
  match run_one ~grace:0.02 ~codec:Frame.bool ~deadline:t0 (fun ~up:_ ~down:_ -> thunk ()) with
  | { W.result = Error _; _ } ->
      (* timeout 0 + grace 0.02 + flush >= 0.25: well under a second *)
      Alcotest.(check bool) "reaped promptly" true (Unix.gettimeofday () -. t0 < 5.0)
  | _ -> Alcotest.fail "expected a crash-classified abort"

(* The reaping ladder must survive a signal storm: waitpid/select race
   EINTR from a 200 Hz itimer while (1) a child exits on its own and
   (2) a SIGTERM-deaf child is walked down the SIGTERM -> flush ->
   SIGKILL ladder. *)
let test_wait_ladder_eintr () =
  let old_alrm = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.005; it_value = 0.005 });
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
      Sys.set_signal Sys.sigalrm old_alrm)
    (fun () ->
      (* EINTR-proof sleep for the children (the parent's itimer dies
         with the fork, but the handler is inherited). *)
      let nap seconds =
        let until = Unix.gettimeofday () +. seconds in
        let rec go () =
          let left = until -. Unix.gettimeofday () in
          if left > 0. then (
            (try Unix.sleepf left
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go ())
        in
        go ()
      in
      (match
         (run_one ~grace:1.0 ~codec:Frame.bool
            ~deadline:(Unix.gettimeofday () +. 4.)
            (fun ~up:_ ~down:_ ->
              nap 0.2;
              Unix._exit 42))
           .W.status
       with
      | Unix.WEXITED 42 -> ()
      | _ -> Alcotest.fail "well-behaved child lost under EINTR fire");
      (* The pool routes SIGTERM to the child's guard before the child
         runs any code of its own, so a child that never polls a guard
         is SIGTERM-deaf from its first instruction; its ladder starts
         at once. *)
      match
        (run_one ~grace:0.1 ~codec:Frame.bool
           ~deadline:(Unix.gettimeofday () -. 0.1)
           (fun ~up:_ ~down:_ ->
             nap 30.;
             Unix._exit 0))
          .W.status
      with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
          Alcotest.fail "SIGTERM-deaf child escaped the ladder")

(* ---------------- reap ---------------- *)

(* A pipe at EOF is reaped at once: the select that sees the EOF also
   delivers the exit, instead of a later round sleeping out its whole
   timeout on a pipe that has already closed.  The worker widens the
   gap between its EOF and its exit to 0.2 s, so a pool that polled
   waitpid without blocking would miss the exit and sleep. *)
let test_exit_reaped_promptly () =
  let pool = W.create ~grace:1.0 ~codec:Frame.bool () in
  let exited = ref false in
  ignore
    (W.spawn pool ~deadline:infinity ~on_frame:ignore
       ~on_exit:(fun _ -> exited := true)
       (fun ~up ~down:_ ->
         Unix.close up;
         Unix.sleepf 0.2;
         true));
  let t0 = Unix.gettimeofday () in
  let polls = ref 0 in
  while (not !exited) && !polls < 10 do
    incr polls;
    ignore (W.poll pool ~timeout:1.0 ())
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "worker reaped" true !exited;
  Alcotest.(check bool)
    (Printf.sprintf "reaped well inside a 1 s select timeout (%.3f s)" dt)
    true (dt < 0.6)

(* A worker holds none of another live worker's pipe ends: the first
   worker's parent-side descriptors are closed in the second child. *)
let test_sibling_holds_no_pipe_ends () =
  let pool = W.create ~grace:1.0 ~codec:(Frame.list Frame.string) () in
  let first =
    W.spawn pool ~down:true ~deadline:infinity ~on_frame:ignore ~on_exit:ignore
      (fun ~up:_ ~down ->
        (* Wait for the parent's go-ahead on the down pipe. *)
        ignore (Unix.read (Option.get down) (Bytes.create 1) 0 1);
        [])
  in
  let theirs = W.descriptors first in
  Alcotest.(check int) "up and down pipe ends" 2 (List.length theirs);
  let result = ref None in
  ignore
    (W.spawn pool ~deadline:infinity ~on_frame:ignore
       ~on_exit:(fun e -> result := Some e.W.result)
       (fun ~up:_ ~down:_ ->
         List.map
           (fun fd ->
             match Unix.fstat fd with
             | _ -> "open"
             | exception Unix.Unix_error (Unix.EBADF, _, _) -> "EBADF"
             | exception Unix.Unix_error (e, _, _) -> Unix.error_message e)
           theirs));
  while !result = None do
    ignore (W.poll pool ~timeout:1.0 ())
  done;
  W.send first (Bytes.of_string "go");
  W.wait pool;
  match !result with
  | Some (Ok seen) ->
      Alcotest.(check (list string)) "fstat in the second child" [ "EBADF"; "EBADF" ] seen
  | Some (Error reason) -> Alcotest.failf "second worker failed: %s" reason
  | None -> Alcotest.fail "second worker not reaped"

(* A result frame written whole is the result even when the worker is
   SIGKILLed afterwards, before it can exit cleanly. *)
let test_whole_result_survives_kill () =
  let e =
    run_one ~codec:Frame.int ~deadline:infinity (fun ~up:_ ~down:_ ->
        Fault.arm Fault.Kill_after_result;
        42)
  in
  (match e.W.status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> Alcotest.fail "expected the worker to die of SIGKILL after its result");
  Alcotest.(check bool) "the result frame is the result" true (e.W.result = Ok 42);
  (* The runner's isolated path keeps it too, instead of a crash. *)
  Test_guard.with_fault Fault.Kill_after_result (fun () ->
      let r =
        R.run_one ~isolate:true ~timeout:10.0 M.Msu4_v2
          ("paper", "toy", Test_guard.paper_wcnf ())
      in
      match r.R.outcome with
      | R.Solved 2 -> ()
      | o ->
          Alcotest.failf "runner reported %s"
            (match o with
            | R.Aborted { why; _ } -> R.abort_reason_to_string why
            | R.Unsat_hard -> "hard-unsat"
            | R.Solved c -> Printf.sprintf "solved %d" c))

(* A SIGKILLed worker reads as the shell reports it: status 137 in its
   Worker_exit event, and signal 9 (not OCaml's -7) in its reason. *)
let test_signal_exit_status () =
  Alcotest.(check (list int)) "OCaml to system signal numbers" [ 9; 15; 42 ]
    (List.map W.posix_signal [ Sys.sigkill; Sys.sigterm; 42 ]);
  let exits = ref [] in
  let sink =
    Msu_obs.Obs.of_fn (fun ev ->
        match ev.Msu_obs.Obs.Event.kind with
        | Msu_obs.Obs.Event.Worker_exit { status; signaled; _ } ->
            exits := (status, signaled) :: !exits
        | _ -> ())
  in
  let pool = W.create ~sink ~grace:1.0 ~codec:Frame.bool () in
  let result = ref None in
  ignore
    (W.spawn pool ~deadline:infinity ~on_frame:ignore
       ~on_exit:(fun e -> result := Some e.W.result)
       (fun ~up:_ ~down:_ ->
         Unix.kill (Unix.getpid ()) Sys.sigkill;
         true));
  W.wait pool;
  Alcotest.(check (list (pair int bool))) "Worker_exit status and signaled"
    [ (137, true) ] !exits;
  match !result with
  | Some (Error reason) ->
      Alcotest.(check string) "reason names signal 9" "worker killed (signal 9)" reason
  | Some (Ok _) -> Alcotest.fail "a killed worker returned a result"
  | None -> Alcotest.fail "worker not reaped"

(* At EOF the tail goes through the frame reader like any other bytes:
   a whole checkpoint frame written just before the exit is delivered,
   and half a frame is dropped, leaving the last whole one. *)
let test_eof_tail_reaches_parser () =
  let frame lb = Ck.frame { Ck.empty with Ck.lb; ub = Some 9 } in
  let run tail =
    let latest = ref None and frames = ref 0 in
    ignore
      (run_one ~codec:Frame.bool ~deadline:infinity
         ~on_frame:(fun f ->
           latest := Some (Ck.of_frame f).Ck.lb;
           incr frames)
         (fun ~up ~down:_ ->
           W.write_frame up (frame 1);
           ignore (Unix.write up tail 0 (Bytes.length tail));
           Unix._exit 0));
    (!latest, !frames)
  in
  Alcotest.(check (pair (option int) int)) "whole frame at EOF accepted" (Some 2, 2)
    (run (frame 2));
  let f = frame 3 in
  Alcotest.(check (pair (option int) int)) "half frame dropped, last whole frame kept"
    (Some 1, 1)
    (run (Bytes.sub f 0 (Bytes.length f / 2)))

let suite =
  [
    Alcotest.test_case "frame reader keeps the partial frame" `Quick
      test_frame_reader_residual;
    Alcotest.test_case "outbuf resumes after a full pipe" `Quick
      test_outbuf_resumes_after_full_pipe;
    Alcotest.test_case "outbuf drops backlog on dead peer" `Quick
      test_outbuf_dead_peer;
    Alcotest.test_case "SIGTERM flushes partial bounds" `Quick
      test_sigterm_flushes_partial_bounds;
    Alcotest.test_case "SIGKILL backstop reaps" `Quick test_sigkill_backstop;
    Alcotest.test_case "wait ladder survives EINTR" `Quick test_wait_ladder_eintr;
    Alcotest.test_case "exited worker reaped without a select timeout" `Quick
      test_exit_reaped_promptly;
    Alcotest.test_case "sibling holds no pipe ends" `Quick
      test_sibling_holds_no_pipe_ends;
    Alcotest.test_case "whole result survives a kill" `Quick
      test_whole_result_survives_kill;
    Alcotest.test_case "EOF tail reaches the parser" `Quick
      test_eof_tail_reaches_parser;
    Alcotest.test_case "signaled worker exit status" `Quick test_signal_exit_status;
  ]
