type ('k, 'v) entry = { key : 'k; score : int; value : 'v }

type ('k, 'v) t = {
  limit : int;
  mutable heap : ('k, 'v) entry array;
  mutable size : int;
}

(* Min-heap on (score, inverted key): the root is the entry that loses
   first — lowest score, and on ties the largest key (since smaller
   keys win). *)
let worse a b = a.score < b.score || (a.score = b.score && compare a.key b.key > 0)

let create ?(capacity = 16) limit =
  assert (limit >= 0);
  ignore capacity;
  { limit; heap = [||]; size = 0 }

let size t = t.size

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if worse t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && worse t.heap.(left) t.heap.(!smallest) then smallest := left;
  if right < t.size && worse t.heap.(right) t.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t ~key ~score ~value =
  if t.limit > 0 then begin
    let entry = { key; score; value } in
    if t.size < t.limit then begin
      if t.size = Array.length t.heap then begin
        let bigger = Array.make (min t.limit (max 4 (2 * t.size))) entry in
        Array.blit t.heap 0 bigger 0 t.size;
        t.heap <- bigger
      end;
      t.heap.(t.size) <- entry;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end
    else if worse t.heap.(0) entry then begin
      t.heap.(0) <- entry;
      sift_down t 0
    end
  end

let to_list t =
  let entries = Array.sub t.heap 0 t.size in
  Array.sort (fun a b -> if worse a b then 1 else if worse b a then -1 else 0) entries;
  Array.to_list (Array.map (fun e -> (e.key, e.score, e.value)) entries)
