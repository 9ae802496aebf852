module Wcnf = Msu_cnf.Wcnf
module T = Msu_maxsat.Types
module Certify = Msu_maxsat.Certify

(* Only proven optima with a surviving model are cached: they are the
   only entries a hit can re-verify without solving (re-cost the model,
   compare to the claimed cost).  Bounds and crashes are cheap to
   reproduce relative to their budgets and carry no proof worth
   reusing. *)
type entry = { e_cost : int; e_model : bool array; mutable e_tick : int }

module Obs = Msu_obs.Obs

let m_hits = Obs.Metrics.counter ~help:"cache lookups served" "msu_cache_hits_total"

let m_misses =
  Obs.Metrics.counter ~help:"cache lookups missed (or re-cost failed)"
    "msu_cache_misses_total"

let m_evict =
  Obs.Metrics.counter ~help:"entries evicted (LRU or failed re-cost)"
    "msu_cache_evictions_total"

let m_entries = Obs.Metrics.gauge ~help:"live cache entries" "msu_cache_entries"

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;  (* logical clock for LRU eviction *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  { capacity; tbl = Hashtbl.create 256; tick = 0 }

let length t = Hashtbl.length t.tbl

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun fp e ->
      match !victim with
      | Some (_, tick) when tick <= e.e_tick -> ()
      | _ -> victim := Some (fp, e.e_tick))
    t.tbl;
  match !victim with
  | Some (fp, _) ->
      Hashtbl.remove t.tbl fp;
      Obs.Metrics.inc m_evict
  | None -> ()

let store t ~fingerprint ~cost ~model =
  (match Hashtbl.find_opt t.tbl fingerprint with
  | Some _ -> ()
  | None -> if Hashtbl.length t.tbl >= t.capacity then evict_lru t);
  let e = { e_cost = cost; e_model = Array.copy model; e_tick = 0 } in
  touch t e;
  Hashtbl.replace t.tbl fingerprint e;
  Obs.Metrics.set m_entries (float_of_int (Hashtbl.length t.tbl))

(* Serve a hit only after the certifier's model re-cost accepts it on
   the *requesting* instance: a corrupted disk entry, a fingerprint
   collision, or a bug upstream surfaces as a miss, never as a wrong
   optimum.  The model is padded to the request's variable count —
   canonical fingerprints forget unreferenced variables, so a request
   may declare more of them than the instance that populated the
   entry. *)
let find t ~fingerprint w =
  match Hashtbl.find_opt t.tbl fingerprint with
  | None ->
      Obs.Metrics.inc m_misses;
      None
  | Some e ->
      let n = Wcnf.num_vars w in
      let model =
        if Array.length e.e_model >= n then Array.sub e.e_model 0 (max n 1)
        else
          Array.init (max n 1) (fun v ->
              v < Array.length e.e_model && e.e_model.(v))
      in
      let candidate =
        {
          T.outcome = T.Optimum e.e_cost;
          model = Some model;
          stats = T.empty_stats;
          elapsed = 0.;
        }
      in
      if Certify.ok (Certify.recost w candidate) then begin
        touch t e;
        Obs.Metrics.inc m_hits;
        Some (e.e_cost, model)
      end
      else begin
        Hashtbl.remove t.tbl fingerprint;
        Obs.Metrics.inc m_misses;
        Obs.Metrics.inc m_evict;
        Obs.Metrics.set m_entries (float_of_int (Hashtbl.length t.tbl));
        None
      end

(* ---------------- disk persistence ----------------

   The on-disk form is one Entry frame per (fingerprint, cost, model),
   written atomically (temp file + fsync + rename).  Nothing on the load
   path is trusted: loading stops at the first torn or bad frame, and
   every entry it did deliver still passes through the re-cost check
   before being served. *)

module Frame = Msu_frame.Frame

let entry_codec =
  Frame.map
    (fun (fp, cost, model) -> (fp, (cost, model)))
    (function "", _ -> Frame.malformed "empty fingerprint" | fp, (cost, model) -> (fp, cost, model))
    Frame.(pair string (pair nat bits))

let save t path =
  let frames =
    Hashtbl.fold
      (fun fp e acc -> Frame.encode Frame.Entry entry_codec (fp, e.e_cost, e.e_model) :: acc)
      t.tbl []
  in
  try Frame.write_file path frames with Sys_error _ | Unix.Unix_error _ -> ()

let load ~capacity path =
  let t = create ~capacity in
  List.iter
    (fun (fingerprint, cost, model) ->
      if Hashtbl.length t.tbl < capacity then store t ~fingerprint ~cost ~model)
    (Frame.read_file Frame.Entry entry_codec path);
  t
