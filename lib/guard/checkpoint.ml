(* Warm-resume checkpoints.

   A checkpoint is the crash-survivable digest of one solve: the
   certified lb/ub bracket and the incumbent model backing the ub.
   Workers stream frames up their pipe on the guard ticker cadence; the
   parent keeps the last intact frame and re-seeds a retried solve from
   it.

   Soundness: lb and ub are only ever published after being proved
   (UNSAT core counted / model costed), so installing them into a fresh
   guard as *external* bounds — plus re-verifying the incumbent model
   against the instance before seeding it — is safe even when the dying
   worker was arbitrarily corrupted after the frame was written. *)

type t = {
  lb : int;
  ub : int option;
  model : bool array option;  (* incumbent achieving [ub], when known *)
}

let empty = { lb = 0; ub = None; model = None }
let is_empty c = c.lb = 0 && c.ub = None && c.model = None

let of_cell cell =
  {
    lb = Guard.Progress.lb cell;
    ub = Guard.Progress.ub cell;
    model = Guard.Progress.model cell;
  }

(* Best certified bracket across two checkpoints; the model follows
   whichever ub wins. *)
let merge a b =
  let lb = max a.lb b.lb in
  let ub, model =
    match (a.ub, b.ub) with
    | None, None -> (None, None)
    | Some _, None -> (a.ub, a.model)
    | None, Some _ -> (b.ub, b.model)
    | Some ua, Some ub' ->
        if ub' < ua then (b.ub, b.model)
        else if ub' > ua then (a.ub, a.model)
        else
          (* tie: keep whichever side actually holds the incumbent *)
          (a.ub, (match b.model with Some _ -> b.model | None -> a.model))
  in
  { lb; ub; model }

let install c g = Guard.install_bounds g ~lb:c.lb ~ub:c.ub

(* ----- frames ----- *)

module Frame = Msu_frame.Frame

let bracket =
  Frame.map Fun.id
    (function lb, Some u when u < lb -> Frame.malformed "crossed bracket" | b -> b)
    Frame.(pair nat (option nat))

let codec =
  Frame.map
    (fun c -> ((c.lb, c.ub), c.model))
    (fun ((lb, ub), model) -> { lb; ub; model })
    (Frame.pair bracket (Frame.option Frame.bits))

let frame c = Frame.encode Frame.Bracket codec c
let of_frame f = Frame.decode Frame.Bracket codec f

(* ----- streaming writer (worker side) ----- *)

(* The ticker fires far more often than bounds move (only at the end of
   a SAT call), so a frame is encoded only when the cell's change gate
   opens.  A worker killed mid-write leaves a torn tail, which the
   parent's frame reader drops at EOF.  A write error (EPIPE: the
   parent is gone) silently stops the stream: the solve itself keeps
   running under its own guard. *)
let writer fd cell =
  let frames = ref 0 in
  let dead = ref false in
  Guard.Progress.publisher cell (fun ~lb:_ ~ub:_ ->
      let c = of_cell cell in
      if not (!dead || is_empty c) then begin
        let f = frame c in
        (* Chaos hook: after at least one intact frame, die mid-write —
           the torn frame must not displace the intact one. *)
        if !frames > 0 && Fault.consume Fault.Torn_checkpoint then begin
          (try ignore (Unix.write fd f 0 (Bytes.length f / 2))
           with Unix.Unix_error _ -> ());
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        try
          Frame.write fd f;
          incr frames
        with Unix.Unix_error _ -> dead := true
      end)
