type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ~dummy = { data = Array.make 16 dummy; size = 0; dummy }

let make n ~dummy =
  let cap = max n 1 in
  { data = Array.make cap dummy; size = n; dummy }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  v.data.(i) <- x

let unsafe_get v i = Array.unsafe_get v.data i
let unsafe_set v i x = Array.unsafe_set v.data i x

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let data' = Array.make cap' v.dummy in
    Array.blit v.data 0 data' 0 v.size;
    v.data <- data'
  end

let reserve v n =
  if n > Array.length v.data then begin
    let data' = Array.make n v.dummy in
    Array.blit v.data 0 data' 0 v.size;
    v.data <- data'
  end

let push v x =
  ensure_capacity v (v.size + 1);
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  let x = v.data.(v.size) in
  v.data.(v.size) <- v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  v.data.(v.size - 1)

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  for i = n to v.size - 1 do
    v.data.(i) <- v.dummy
  done;
  v.size <- n

let clear v = shrink v 0

let grow_to v n x =
  ensure_capacity v n;
  while v.size < n do
    v.data.(v.size) <- x;
    v.size <- v.size + 1
  done

let swap_remove v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.swap_remove";
  v.data.(i) <- v.data.(v.size - 1);
  v.data.(v.size - 1) <- v.dummy;
  v.size <- v.size - 1

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p v.data.(i) || loop (i + 1)) in
  loop 0

let for_all p v = not (exists (fun x -> not (p x)) v)

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    if p v.data.(i) then begin
      v.data.(!j) <- v.data.(i);
      incr j
    end
  done;
  shrink v !j

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.size - 1) []

let to_array v = Array.sub v.data 0 v.size

let of_list ~dummy l =
  let v = create ~dummy in
  List.iter (push v) l;
  v

let of_array ~dummy a =
  let v = make (Array.length a) ~dummy in
  Array.blit a 0 v.data 0 (Array.length a);
  v

let copy v = { data = Array.copy v.data; size = v.size; dummy = v.dummy }

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.size
