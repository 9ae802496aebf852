(* The forked-worker pool shared by the runner, the portfolio and the
   service: line framing, the down-pipe output buffer, the kill ladder,
   the reap and the child's descriptor hygiene. *)

module W = Msu_harness.Workers
module R = Msu_harness.Runner
module M = Msu_maxsat.Maxsat
module Ck = Msu_guard.Checkpoint
module Fault = Msu_guard.Fault

(* Spawn one worker and block until it is reaped. *)
let run_one ?(grace = 0.05) ?(on_line = ignore) ~deadline f =
  let pool = W.create ~grace () in
  let exit = ref None in
  ignore (W.spawn pool ~deadline ~on_line ~on_exit:(fun e -> exit := Some e) f);
  W.wait pool;
  Option.get !exit

(* ---------------- line framing ---------------- *)

(* Line splitting: complete lines come out, the trailing partial frame
   stays buffered until its newline (or the EOF flush) arrives. *)
let test_take_lines_residual () =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "l 1\nu 4\nc 2 6 ";
  Alcotest.(check (list string)) "complete lines" [ "l 1"; "u 4" ]
    (W.take_lines buf);
  Alcotest.(check string) "partial frame retained" "c 2 6 " (Buffer.contents buf);
  Buffer.add_string buf "8\n";
  Alcotest.(check (list string)) "finished frame" [ "c 2 6 8" ]
    (W.take_lines buf);
  Alcotest.(check string) "buffer drained" "" (Buffer.contents buf);
  (* Empty lines are noise, not frames. *)
  Buffer.add_string buf "\n\nl 2\n\n";
  Alcotest.(check (list string)) "empties filtered" [ "l 2" ] (W.take_lines buf)

(* Outbuf: a full pipe (EAGAIN) or short write keeps the unsent tail
   queued and the next flush resumes mid-line; nothing is torn or
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
  let sent = List.init 200 (fun i -> Printf.sprintf "b %d %d" i (i + 1)) in
  List.iter (W.Outbuf.queue out) sent;
  W.Outbuf.flush out w;
  Alcotest.(check bool) "backlog pending while pipe is full" true
    (W.Outbuf.pending out);
  (* Drain the reader in lockstep with repeated flushes, mimicking the
     parent's writable-select rounds. *)
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let received = ref [] in
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
    received := !received @ W.take_lines buf
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
  received := !received @ W.take_lines buf;
  Unix.close r;
  Unix.close w;
  Alcotest.(check (list string)) "every line arrives intact, in order" sent !received

(* A dead peer (EPIPE) drops the backlog instead of raising or spinning. *)
let test_outbuf_dead_peer () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  Unix.close r;
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let out = W.Outbuf.create () in
  W.Outbuf.queue out "b 1 2";
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
      | Some _ -> (R.Aborted { why = R.Timeout; lb = 7; ub = Some 9 }, 0.01)
      | None ->
          Unix.sleepf 0.002;
          spin ()
    in
    spin ()
  in
  let e =
    run_one ~grace:0.05 ~deadline:(Unix.gettimeofday ()) (fun ~up:_ ~down:_ ->
        thunk ())
  in
  match e.W.result with
  | Ok (R.Aborted { why = R.Timeout; lb = 7; ub = Some 9 }, _) -> ()
  | Ok (outcome, _) ->
      Alcotest.failf "partial bounds lost: %s"
        (match outcome with
        | R.Solved c -> Printf.sprintf "Solved %d" c
        | R.Unsat_hard -> "Unsat_hard"
        | R.Aborted { why; lb; ub } ->
            Printf.sprintf "Aborted (%s) lb=%d ub=%s"
              (R.abort_reason_to_string why)
              lb
              (match ub with Some u -> string_of_int u | None -> "?"))
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
  match run_one ~grace:0.02 ~deadline:t0 (fun ~up:_ ~down:_ -> thunk ()) with
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
         (run_one ~grace:1.0
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
        (run_one ~grace:0.1
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
  let pool = W.create ~grace:1.0 () in
  let exited = ref false in
  ignore
    (W.spawn pool ~deadline:infinity ~on_line:ignore
       ~on_exit:(fun _ -> exited := true)
       (fun ~up ~down:_ ->
         Unix.close up;
         Unix.sleepf 0.2));
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
  let pool = W.create ~grace:1.0 () in
  let first =
    W.spawn pool ~down:true ~deadline:infinity ~on_line:ignore ~on_exit:ignore
      (fun ~up:_ ~down ->
        (* Wait for the parent's go-ahead on the down pipe. *)
        ignore (Unix.read (Option.get down) (Bytes.create 1) 0 1);
        [])
  in
  let theirs = W.descriptors first in
  Alcotest.(check int) "up and down pipe ends" 2 (List.length theirs);
  let result = ref None in
  ignore
    (W.spawn pool ~deadline:infinity ~on_line:ignore
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
  W.send first "go";
  W.wait pool;
  match !result with
  | Some (Ok seen) ->
      Alcotest.(check (list string)) "fstat in the second child" [ "EBADF"; "EBADF" ] seen
  | Some (Error reason) -> Alcotest.failf "second worker failed: %s" reason
  | None -> Alcotest.fail "second worker not reaped"

(* A result file written whole is the result even when the worker is
   SIGKILLed afterwards, before it can exit cleanly. *)
let test_whole_result_survives_kill () =
  let e =
    run_one ~deadline:infinity (fun ~up:_ ~down:_ ->
        Fault.arm Fault.Kill_after_result;
        42)
  in
  (match e.W.status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> Alcotest.fail "expected the worker to die of SIGKILL after its result");
  Alcotest.(check bool) "the result file is the result" true (e.W.result = Ok 42);
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
  let pool = W.create ~sink ~grace:1.0 () in
  let result = ref None in
  ignore
    (W.spawn pool ~deadline:infinity ~on_line:ignore
       ~on_exit:(fun e -> result := Some e.W.result)
       (fun ~up:_ ~down:_ -> Unix.kill (Unix.getpid ()) Sys.sigkill));
  W.wait pool;
  Alcotest.(check (list (pair int bool))) "Worker_exit status and signaled"
    [ (137, true) ] !exits;
  match !result with
  | Some (Error reason) ->
      Alcotest.(check string) "reason names signal 9" "worker killed (signal 9)" reason
  | Some (Ok ()) -> Alcotest.fail "a killed worker returned a result"
  | None -> Alcotest.fail "worker not reaped"

(* At EOF the tail without a newline reaches the caller's parser like
   any other line: a whole checkpoint frame is accepted, and half a
   frame fails its digest and is dropped. *)
let test_eof_tail_reaches_parser () =
  let frame lb = Ck.to_wire { Ck.empty with Ck.lb; ub = Some 9 } in
  let run tail =
    let reader = Ck.reader () in
    ignore
      (run_one ~deadline:infinity
         ~on_line:(fun line -> Ck.feed reader (line ^ "\n"))
         (fun ~up ~down:_ ->
           W.write_line up (frame 1);
           ignore (Unix.write_substring up tail 0 (String.length tail))));
    reader
  in
  let lb_of r = Option.map (fun c -> c.Ck.lb) (Ck.latest r) in
  let whole = run (frame 2) in
  Alcotest.(check (option int)) "whole frame without its newline accepted" (Some 2)
    (lb_of whole);
  let f = frame 3 in
  let half = run (String.sub f 0 (String.length f / 2)) in
  Alcotest.(check (option int)) "half frame dropped, last intact frame kept" (Some 1)
    (lb_of half);
  Alcotest.(check int) "half frame counted as dropped" 1 (Ck.dropped half)

let suite =
  [
    Alcotest.test_case "take_lines keeps the partial frame" `Quick
      test_take_lines_residual;
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
