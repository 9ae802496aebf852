type t = {
  mutable num_vars : int;
  clauses : Lit.t array Vec.t;
}

let create () = { num_vars = 0; clauses = Vec.create ~dummy:[||] }
let num_vars f = f.num_vars
let num_clauses f = Vec.size f.clauses
let ensure_vars f n = if n > f.num_vars then f.num_vars <- n

let fresh_var f =
  let v = f.num_vars in
  f.num_vars <- v + 1;
  v

let add_clause f c =
  Array.iter (fun l -> ensure_vars f (Lit.var l + 1)) c;
  Vec.push f.clauses c;
  Vec.size f.clauses - 1

let add_clause_l f ls = add_clause f (Array.of_list ls)
let clause f i = Vec.get f.clauses i
let iter_clauses g f = Vec.iteri g f.clauses

let clauses f = Vec.to_array f.clauses

let copy f = { num_vars = f.num_vars; clauses = Vec.copy f.clauses }

let lit_true l model =
  let v = Lit.var l in
  let value = v < Array.length model && model.(v) in
  if Lit.sign l then value else not value

let clause_satisfied c model = Array.exists (fun l -> lit_true l model) c

let count_satisfied f model =
  Vec.fold (fun n c -> if clause_satisfied c model then n + 1 else n) 0 f.clauses

let max_sat_brute_force ?(limit_vars = 24) f =
  let n = num_vars f in
  if n > limit_vars then invalid_arg "Formula.max_sat_brute_force: too many variables";
  let model = Array.make (max n 1) false in
  let best = ref 0 in
  let total = 1 lsl n in
  for bits = 0 to total - 1 do
    for v = 0 to n - 1 do
      model.(v) <- bits land (1 lsl v) <> 0
    done;
    let sat = count_satisfied f model in
    if sat > !best then best := sat
  done;
  !best

let pp ppf f =
  Format.fprintf ppf "@[<v>p cnf %d %d" (num_vars f) (num_clauses f);
  Vec.iter
    (fun c ->
      Format.fprintf ppf "@,";
      Array.iter (fun l -> Format.fprintf ppf "%a " Lit.pp l) c;
      Format.fprintf ppf "0")
    f.clauses;
  Format.fprintf ppf "@]"
