(* Canonicalization maps every syntactic presentation of the same
   instance — clause order, literal order within a clause, duplicated
   clauses, declared-but-unused variables — to one normal form, so a
   fingerprint equality implies the two instances have the *same cost
   function* over models.  That is the property the service cache
   depends on: a hit may serve the cached optimum and model, and a
   model re-cost on the requesting instance is a complete check. *)

let compare_clause a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = Lit.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* Sort the literals of one clause and drop duplicated literals.
   Tautologies (l and not l) are kept: removing them would also be
   sound, but keeping the transform minimal makes it auditable. *)
let norm_clause c =
  let c = Array.copy c in
  Array.sort Lit.compare c;
  let k = ref (min 1 (Array.length c)) in
  for i = 1 to Array.length c - 1 do
    if not (Lit.equal c.(i) c.(!k - 1)) then begin
      c.(!k) <- c.(i);
      incr k
    end
  done;
  if !k = Array.length c then c else Array.sub c 0 !k

(* Stable-sort [a] and fold each run of [cmp]-equal elements into its
   first with [merge]; the runs end up in [a.(0 .. k-1)], and [k] is
   returned. *)
let sort_merge cmp merge a =
  Array.stable_sort cmp a;
  let k = ref 0 in
  Array.iter
    (fun x ->
      if !k > 0 && cmp a.(!k - 1) x = 0 then a.(!k - 1) <- merge a.(!k - 1) x
      else begin
        a.(!k) <- x;
        incr k
      end)
    a;
  !k

(* [n] in decimal, exactly as [string_of_int] prints it.  Digits are
   produced from the non-positive side so [min_int] needs no case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* The canonical text, built in one pass over the instance and hashed:

     p wcnf <vars> <clauses>
     h <lit> ... 0          hard clauses, sorted, duplicates dropped
     s <weight> <lit> ... 0 soft clauses, sorted, duplicates merged

   Literals are sorted and deduplicated per clause; clauses are ordered
   by {!compare_clause}.  Duplicated soft clauses merge by summing
   weights: k copies of C at weights w1..wk falsify together, so one
   copy at weight w1+..+wk gives every model the identical cost.
   <vars> is one past the largest variable a clause mentions: variables
   never referenced are free and cannot change any model's cost.  The
   text is a persisted format — the service's cache file is keyed by
   its digest — so it must not change. *)
let fingerprint w =
  let num_vars = ref 0 in
  let norm c =
    let c = norm_clause c in
    (* A normalized clause's last literal carries its largest variable. *)
    let n = Array.length c in
    if n > 0 then num_vars := max !num_vars (Lit.var c.(n - 1) + 1);
    c
  in
  let hard = Array.init (Wcnf.num_hard w) (fun i -> norm (Wcnf.hard w i)) in
  let nh = sort_merge compare_clause (fun c _ -> c) hard in
  let soft = Array.init (Wcnf.num_soft w) (fun i -> (norm (Wcnf.soft w i), Wcnf.weight w i)) in
  let ns =
    sort_merge
      (fun (a, _) (b, _) -> compare_clause a b)
      (fun (c, wa) (_, wb) -> (c, wa + wb))
      soft
  in
  let buf = Buffer.create (32 * (nh + ns) + 32) in
  let add_clause c =
    for i = 0 to Array.length c - 1 do
      Buffer.add_char buf ' ';
      add_int buf (Lit.to_dimacs c.(i))
    done;
    Buffer.add_string buf " 0\n"
  in
  Buffer.add_string buf "p wcnf ";
  add_int buf !num_vars;
  Buffer.add_char buf ' ';
  add_int buf (nh + ns);
  Buffer.add_char buf '\n';
  for i = 0 to nh - 1 do
    Buffer.add_char buf 'h';
    add_clause hard.(i)
  done;
  for i = 0 to ns - 1 do
    let c, weight = soft.(i) in
    Buffer.add_string buf "s ";
    add_int buf weight;
    add_clause c
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
