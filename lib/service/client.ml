module Wcnf = Msu_cnf.Wcnf
module P = Protocol
module Frame = Msu_frame.Frame

exception Error of string

let connect ?(retries = 100) path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        (* The server may still be binding its socket: back off briefly
           and retry, so "fork mserve; connect" just works. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        go (n - 1)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise (Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e)))
  in
  go retries

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send fd req =
  try Frame.write fd (P.encode req)
  with Unix.Unix_error (_, msg, _) -> raise (Error ("send: " ^ msg))

let recv fd : P.reply option =
  try Option.map (Frame.decode Frame.Reply P.reply_codec) (Frame.input fd) with
  | Frame.Malformed msg -> raise (Error ("recv: " ^ msg))
  | Frame.Version_mismatch v ->
      raise
        (Error
           (Printf.sprintf
              "recv: server speaks protocol v%d, this client speaks v%d" v
              Frame.version))

let submit fd ?(options = P.default_options) w =
  send fd (P.Solve { wcnf = P.to_wire w; options });
  match recv fd with
  | Some (P.Accepted { id }) -> Ok id
  | Some (P.Rejected { reason }) -> Stdlib.Error reason
  | Some _ -> raise (Error "unexpected reply to solve")
  | None -> raise (Error "server closed the connection")

type response = {
  id : int;
  outcome : Msu_maxsat.Types.outcome;
  model : bool array option;
  cached : bool;
  elapsed : float;
}

(* Wait for the Result frame matching [id]; interleaved results for
   other submissions on the same connection are handed to [other].
   Signals interrupt the blocking read only long enough to run their
   OCaml handler (msolve's Ctrl-C → cancel), then the wait resumes and
   picks up the salvaged result the cancellation produces. *)
let rec wait ?(other = fun _ -> ()) fd id =
  match recv fd with
  | Some (P.Result { id = rid; outcome; model; cached; elapsed }) when rid = id
    ->
      { id = rid; outcome; model; cached; elapsed }
  | Some (P.Result _ as reply) ->
      other reply;
      wait ~other fd id
  | Some _ -> wait ~other fd id
  | None -> raise (Error "server closed the connection before the result")

let solve ?options ~socket w =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      match submit fd ?options w with
      | Ok id -> Ok (wait fd id)
      | Stdlib.Error reason -> Stdlib.Error reason)

let cancel ~socket id =
  let fd = connect ~retries:0 socket in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      send fd (P.Cancel id);
      match recv fd with
      | Some (P.Cancel_ack { found; _ }) -> found
      | _ -> false)

let stats ~socket =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      send fd P.Stats;
      match recv fd with
      | Some (P.Stats_report s) -> s
      | _ -> raise (Error "unexpected reply to stats"))

let shutdown ?(drain = true) ~socket () =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      send fd (P.Shutdown { drain });
      match recv fd with Some P.Bye -> () | _ -> ())
