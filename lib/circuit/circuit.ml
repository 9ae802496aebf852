module Vec = Msu_cnf.Vec
module Lit = Msu_cnf.Lit

type node = int

type gate =
  | Gconst of bool
  | Ginput of int
  | Gnot of node
  | Gand of node * node
  | Gor of node * node
  | Gxor of node * node

type t = {
  gates : gate Vec.t;
  unique : (gate, node) Hashtbl.t;
  mutable n_inputs : int;
}

let create () =
  let c =
    { gates = Vec.create ~dummy:(Gconst false); unique = Hashtbl.create 1024; n_inputs = 0 }
  in
  (* Nodes 0 and 1 are the constants. *)
  Vec.push c.gates (Gconst false);
  Vec.push c.gates (Gconst true);
  c

let false_node = 0
let true_node = 1
let gate c n = Vec.get c.gates n
let num_nodes c = Vec.size c.gates
let const _c b = if b then true_node else false_node
let equal_node (a : node) b = a = b

let hashcons c g =
  match Hashtbl.find_opt c.unique g with
  | Some n -> n
  | None ->
      let n = Vec.size c.gates in
      Vec.push c.gates g;
      Hashtbl.add c.unique g n;
      n

let input c =
  let i = c.n_inputs in
  c.n_inputs <- i + 1;
  hashcons c (Ginput i)

let not_ c a =
  if a = false_node then true_node
  else if a = true_node then false_node
  else match gate c a with Gnot x -> x | _ -> hashcons c (Gnot a)

(* Normalize commutative operands so (a, b) and (b, a) share. *)
let ordered a b = if a <= b then (a, b) else (b, a)

let complementary c a b =
  (match gate c a with Gnot x -> x = b | _ -> false)
  || match gate c b with Gnot x -> x = a | _ -> false

let and_ c a b =
  if a = false_node || b = false_node then false_node
  else if a = true_node then b
  else if b = true_node then a
  else if a = b then a
  else if complementary c a b then false_node
  else
    let a, b = ordered a b in
    hashcons c (Gand (a, b))

let or_ c a b =
  if a = true_node || b = true_node then true_node
  else if a = false_node then b
  else if b = false_node then a
  else if a = b then a
  else if complementary c a b then true_node
  else
    let a, b = ordered a b in
    hashcons c (Gor (a, b))

let xor_ c a b =
  if a = b then false_node
  else if complementary c a b then true_node
  else if a = false_node then b
  else if b = false_node then a
  else if a = true_node then not_ c b
  else if b = true_node then not_ c a
  else
    let a, b = ordered a b in
    hashcons c (Gxor (a, b))

let nand_ c a b = not_ c (and_ c a b)
let nor_ c a b = not_ c (or_ c a b)
let xnor_ c a b = not_ c (xor_ c a b)
let mux c ~sel a b = or_ c (and_ c sel a) (and_ c (not_ c sel) b)
let and_list c = List.fold_left (and_ c) true_node
let or_list c = List.fold_left (or_ c) false_node

let eval c n inputs =
  let memo = Array.make (num_nodes c) (-1) in
  let rec go n =
    if memo.(n) >= 0 then memo.(n) = 1
    else begin
      let v =
        match gate c n with
        | Gconst b -> b
        | Ginput i -> i < Array.length inputs && inputs.(i)
        | Gnot a -> not (go a)
        | Gand (a, b) -> go a && go b
        | Gor (a, b) -> go a || go b
        | Gxor (a, b) -> go a <> go b
      in
      memo.(n) <- (if v then 1 else 0);
      v
    end
  in
  go n

type cnf_map = { input_lits : Lit.t array; lit_of : node -> Lit.t }

let tseitin ?input_lits c (sink : Msu_cnf.Sink.t) roots =
  let input_lits =
    match input_lits with
    | Some lits ->
        if Array.length lits <> c.n_inputs then invalid_arg "Circuit.tseitin: input_lits";
        lits
    | None -> Array.init c.n_inputs (fun _ -> Lit.pos (sink.fresh_var ()))
  in
  let lits : (node, Lit.t) Hashtbl.t = Hashtbl.create 256 in
  (* Constants get a variable pinned by a unit clause, allocated lazily. *)
  let rec lit_of n =
    match Hashtbl.find_opt lits n with
    | Some l -> l
    | None ->
        let l =
          match gate c n with
          | Gconst b ->
              let l = Lit.pos (sink.fresh_var ()) in
              sink.emit [| (if b then l else Lit.neg l) |];
              l
          | Ginput i -> input_lits.(i)
          | Gnot a -> Lit.neg (lit_of a)
          | Gand (a, b) ->
              let la = lit_of a and lb = lit_of b in
              let z = Lit.pos (sink.fresh_var ()) in
              sink.emit [| Lit.neg z; la |];
              sink.emit [| Lit.neg z; lb |];
              sink.emit [| z; Lit.neg la; Lit.neg lb |];
              z
          | Gor (a, b) ->
              let la = lit_of a and lb = lit_of b in
              let z = Lit.pos (sink.fresh_var ()) in
              sink.emit [| z; Lit.neg la |];
              sink.emit [| z; Lit.neg lb |];
              sink.emit [| Lit.neg z; la; lb |];
              z
          | Gxor (a, b) ->
              let la = lit_of a and lb = lit_of b in
              let z = Lit.pos (sink.fresh_var ()) in
              sink.emit [| Lit.neg z; la; lb |];
              sink.emit [| Lit.neg z; Lit.neg la; Lit.neg lb |];
              sink.emit [| z; Lit.neg la; lb |];
              sink.emit [| z; la; Lit.neg lb |];
              z
        in
        Hashtbl.replace lits n l;
        l
  in
  List.iter (fun r -> ignore (lit_of r)) roots;
  {
    input_lits;
    lit_of =
      (fun n -> match Hashtbl.find_opt lits n with Some l -> l | None -> raise Not_found);
  }

let assert_node c sink n =
  let map = tseitin c sink [ n ] in
  sink.emit [| map.lit_of n |];
  map
