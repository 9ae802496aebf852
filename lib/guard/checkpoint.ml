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

(* ----- wire codec -----

   One frame = one line:

     ck <md5-of-payload> <payload>
     payload := <lb> <ub|-1> <modelbits|->

   The digest makes a torn or bit-flipped frame self-evidently invalid:
   the reader drops it and keeps the previous intact checkpoint. *)

let payload c =
  let bits =
    match c.model with
    | None -> "-"
    | Some m ->
        String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')
  in
  Printf.sprintf "%d %d %s" c.lb
    (match c.ub with Some u -> u | None -> -1)
    bits

let to_wire c =
  let p = payload c in
  Printf.sprintf "ck %s %s" (Digest.to_hex (Digest.string p)) p

let of_wire line =
  match String.split_on_char ' ' line with
  | "ck" :: digest :: rest -> (
      let p = String.concat " " rest in
      if Digest.to_hex (Digest.string p) <> digest then None
      else
        match rest with
        | [ lb; ub; bits ] -> (
            match (int_of_string_opt lb, int_of_string_opt ub) with
            | Some lb, Some ub ->
                let model =
                  if bits = "-" then None
                  else
                    Some (Array.init (String.length bits) (fun i -> bits.[i] = '1'))
                in
                Some { lb; ub = (if ub < 0 then None else Some ub); model }
            | _ -> None)
        | _ -> None)
  | _ -> None

(* ----- streaming writer (worker side) ----- *)

(* The ticker fires far more often than bounds move (only at the end of
   a SAT call), so a frame is encoded only when the cell's change gate
   opens.  It is written with a trailing newline in a single [write].  A
   worker killed mid-write leaves a newline-less tail, which the parent
   still parses at EOF and drops when its digest fails.  EPIPE (parent
   gone) silently stops the stream: the solve itself keeps running
   under its own guard. *)
let writer fd cell =
  let frames = ref 0 in
  let dead = ref false in
  Guard.Progress.publisher cell (fun ~lb:_ ~ub:_ ->
      let c = of_cell cell in
      if not (!dead || is_empty c) then begin
        let line = to_wire c in
        (* Chaos hook: after at least one intact frame, die mid-write —
           the torn frame must not displace the intact one. *)
        if !frames > 0 && Fault.consume Fault.Torn_checkpoint then begin
          let torn = String.sub line 0 (String.length line / 2) in
          (try ignore (Unix.write_substring fd torn 0 (String.length torn))
           with Unix.Unix_error _ -> ());
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        let framed = line ^ "\n" in
        try
          ignore (Unix.write_substring fd framed 0 (String.length framed));
          incr frames
        with Unix.Unix_error (Unix.EPIPE, _, _) -> dead := true
      end)

(* ----- accumulating reader (parent side) ----- *)

(* Feed raw pipe bytes as they arrive; the newest intact frame wins.
   Partial lines are buffered across calls, torn/corrupt frames are
   counted and dropped. *)
type reader = {
  buf : Buffer.t;
  mutable latest : t option;
  mutable dropped : int;
}

let reader () = { buf = Buffer.create 256; latest = None; dropped = 0 }

let feed r s =
  Buffer.add_string r.buf s;
  let data = Buffer.contents r.buf in
  let parts = String.split_on_char '\n' data in
  let rec consume = function
    | [] -> ()
    | [ tail ] ->
        Buffer.clear r.buf;
        Buffer.add_string r.buf tail
    | line :: rest ->
        if line <> "" then begin
          match of_wire line with
          | Some c -> r.latest <- Some c
          | None -> r.dropped <- r.dropped + 1
        end;
        consume rest
  in
  consume parts

let latest r = r.latest
let dropped r = r.dropped
