(* Two-level compressed bitmap. High 16 bits of a value select a chunk;
   the low 16 bits live in the chunk's container. Sparse containers are
   sorted int arrays; dense containers are 64 Kbit bitsets. The 4096
   threshold makes either representation at most 8 KB per chunk. *)

let low_mask = 0xFFFF
let bitset_bytes = 8192
let array_max = 4096

type arr = { mutable data : int array; mutable len : int }
type bits = { words : Bytes.t; mutable card : int }

type container = Arr of arr | Bits of bits

type t = {
  mutable keys : int array; (* sorted chunk keys *)
  mutable conts : container array;
  mutable n : int; (* used prefix of keys/conts *)
}

let popcount_byte = Array.init 256 (fun b ->
    let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
    count b 0)

(* -------------------- container primitives -------------------- *)

let arr_create () = Arr { data = Array.make 8 0; len = 0 }

let container_cardinality = function Arr a -> a.len | Bits b -> b.card

(* Binary search for [v] in the sorted prefix data[0..len). Returns
   [Ok idx] when found, [Error idx] with the insertion point otherwise. *)
let arr_search data len v =
  let rec go lo hi =
    if lo >= hi then Error lo
    else begin
      let mid = (lo + hi) / 2 in
      let x = data.(mid) in
      if x = v then Ok mid else if x < v then go (mid + 1) hi else go lo mid
    end
  in
  go 0 len

let bits_mem words v = Bytes.get_uint8 words (v lsr 3) land (1 lsl (v land 7)) <> 0

let bits_set words v =
  let idx = v lsr 3 in
  Bytes.set_uint8 words idx (Bytes.get_uint8 words idx lor (1 lsl (v land 7)))

let bits_clear words v =
  let idx = v lsr 3 in
  Bytes.set_uint8 words idx (Bytes.get_uint8 words idx land lnot (1 lsl (v land 7)))

let container_mem c v =
  match c with
  | Arr a -> ( match arr_search a.data a.len v with Ok _ -> true | Error _ -> false)
  | Bits b -> bits_mem b.words v

let arr_to_bits a =
  let b = Bytes.make bitset_bytes '\000' in
  for i = 0 to a.len - 1 do
    bits_set b a.data.(i)
  done;
  Bits { words = b; card = a.len }

(* Insert returns the (possibly re-represented) container and whether
   the value was new. *)
let container_add c v =
  match c with
  | Arr a -> (
    match arr_search a.data a.len v with
    | Ok _ -> (c, false)
    | Error pos ->
      if a.len >= array_max then begin
        match arr_to_bits a with
        | Bits b as dense ->
          bits_set b.words v;
          b.card <- b.card + 1;
          (dense, true)
        | Arr _ -> assert false
      end
      else begin
        if a.len = Array.length a.data then begin
          let bigger = Array.make (2 * a.len) 0 in
          Array.blit a.data 0 bigger 0 a.len;
          a.data <- bigger
        end;
        Array.blit a.data pos a.data (pos + 1) (a.len - pos);
        a.data.(pos) <- v;
        a.len <- a.len + 1;
        (c, true)
      end)
  | Bits b ->
    if bits_mem b.words v then (c, false)
    else begin
      bits_set b.words v;
      b.card <- b.card + 1;
      (c, true)
    end

let container_remove c v =
  match c with
  | Arr a -> (
    match arr_search a.data a.len v with
    | Error _ -> false
    | Ok pos ->
      Array.blit a.data (pos + 1) a.data pos (a.len - pos - 1);
      a.len <- a.len - 1;
      true)
  | Bits b ->
    if bits_mem b.words v then begin
      bits_clear b.words v;
      b.card <- b.card - 1;
      true
    end
    else false

let container_iter f = function
  | Arr a ->
    for i = 0 to a.len - 1 do
      f a.data.(i)
    done
  | Bits b ->
    for byte = 0 to bitset_bytes - 1 do
      let w = Bytes.get_uint8 b.words byte in
      if w <> 0 then
        for bit = 0 to 7 do
          if w land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
        done
    done

let container_copy = function
  | Arr a -> Arr { data = Array.sub a.data 0 (max 1 a.len); len = a.len }
  | Bits b -> Bits { words = Bytes.copy b.words; card = b.card }

let bits_of_container = function
  | Arr a -> ( match arr_to_bits a with Bits b -> b | Arr _ -> assert false)
  | Bits b -> b

(* Shrink a dense result back to the sparse representation when small
   enough, keeping iteration and memory costs proportional to content. *)
let normalize = function
  | Arr _ as c -> c
  | Bits b as c ->
    if b.card > array_max then c
    else begin
      let data = Array.make (max 1 b.card) 0 in
      let i = ref 0 in
      container_iter
        (fun v ->
          data.(!i) <- v;
          incr i)
        c;
      Arr { data; len = b.card }
    end

let container_union c1 c2 =
  match (c1, c2) with
  | Arr a1, Arr a2 when a1.len + a2.len <= array_max ->
    (* Merge two sorted arrays. *)
    let data = Array.make (max 1 (a1.len + a2.len)) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < a1.len && !j < a2.len do
      let x = a1.data.(!i) and y = a2.data.(!j) in
      if x < y then begin
        data.(!k) <- x;
        incr i
      end
      else if y < x then begin
        data.(!k) <- y;
        incr j
      end
      else begin
        data.(!k) <- x;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < a1.len do
      data.(!k) <- a1.data.(!i);
      incr i;
      incr k
    done;
    while !j < a2.len do
      data.(!k) <- a2.data.(!j);
      incr j;
      incr k
    done;
    Arr { data; len = !k }
  | _ ->
    let b1 = bits_of_container (container_copy c1) in
    let card = ref b1.card in
    (match c2 with
    | Arr a2 ->
      for i = 0 to a2.len - 1 do
        let v = a2.data.(i) in
        if not (bits_mem b1.words v) then begin
          bits_set b1.words v;
          incr card
        end
      done
    | Bits b2 ->
      card := 0;
      for byte = 0 to bitset_bytes - 1 do
        let w = Bytes.get_uint8 b1.words byte lor Bytes.get_uint8 b2.words byte in
        Bytes.set_uint8 b1.words byte w;
        card := !card + popcount_byte.(w)
      done);
    normalize (Bits { words = b1.words; card = !card })

let container_inter c1 c2 =
  match (c1, c2) with
  | Arr a1, Arr a2 ->
    let data = Array.make (max 1 (min a1.len a2.len)) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < a1.len && !j < a2.len do
      let x = a1.data.(!i) and y = a2.data.(!j) in
      if x < y then incr i
      else if y < x then incr j
      else begin
        data.(!k) <- x;
        incr i;
        incr j;
        incr k
      end
    done;
    Arr { data; len = !k }
  | Arr a, (Bits _ as dense) | (Bits _ as dense), Arr a ->
    let data = Array.make (max 1 a.len) 0 in
    let k = ref 0 in
    for i = 0 to a.len - 1 do
      if container_mem dense a.data.(i) then begin
        data.(!k) <- a.data.(i);
        incr k
      end
    done;
    Arr { data; len = !k }
  | Bits b1, Bits b2 ->
    let words = Bytes.make bitset_bytes '\000' in
    let card = ref 0 in
    for byte = 0 to bitset_bytes - 1 do
      let w = Bytes.get_uint8 b1.words byte land Bytes.get_uint8 b2.words byte in
      Bytes.set_uint8 words byte w;
      card := !card + popcount_byte.(w)
    done;
    normalize (Bits { words; card = !card })

let container_diff c1 c2 =
  match c1 with
  | Arr a1 ->
    let data = Array.make (max 1 a1.len) 0 in
    let k = ref 0 in
    for i = 0 to a1.len - 1 do
      if not (container_mem c2 a1.data.(i)) then begin
        data.(!k) <- a1.data.(i);
        incr k
      end
    done;
    Arr { data; len = !k }
  | Bits b1 -> (
    match c2 with
    | Bits b2 ->
      let words = Bytes.make bitset_bytes '\000' in
      let card = ref 0 in
      for byte = 0 to bitset_bytes - 1 do
        let w = Bytes.get_uint8 b1.words byte land lnot (Bytes.get_uint8 b2.words byte) land 0xFF in
        Bytes.set_uint8 words byte w;
        card := !card + popcount_byte.(w)
      done;
      normalize (Bits { words; card = !card })
    | Arr a2 ->
      let words = Bytes.copy b1.words in
      let card = ref b1.card in
      for i = 0 to a2.len - 1 do
        let v = a2.data.(i) in
        if bits_mem words v then begin
          bits_clear words v;
          decr card
        end
      done;
      normalize (Bits { words; card = !card }))

let container_inter_cardinality c1 c2 =
  match (c1, c2) with
  | Bits b1, Bits b2 ->
    let card = ref 0 in
    for byte = 0 to bitset_bytes - 1 do
      card :=
        !card
        + popcount_byte.(Bytes.get_uint8 b1.words byte land Bytes.get_uint8 b2.words byte)
    done;
    !card
  | Arr a, other | other, Arr a ->
    let count = ref 0 in
    for i = 0 to a.len - 1 do
      if container_mem other a.data.(i) then incr count
    done;
    !count

(* -------------------- top level -------------------- *)

let create () = { keys = Array.make 4 0; conts = Array.make 4 (arr_create ()); n = 0 }

let find_key t key =
  let rec go lo hi =
    if lo >= hi then Error lo
    else begin
      let mid = (lo + hi) / 2 in
      let k = t.keys.(mid) in
      if k = key then Ok mid else if k < key then go (mid + 1) hi else go lo mid
    end
  in
  go 0 t.n

let insert_chunk t pos key cont =
  if t.n = Array.length t.keys then begin
    let keys = Array.make (2 * t.n) 0 in
    let conts = Array.make (2 * t.n) cont in
    Array.blit t.keys 0 keys 0 t.n;
    Array.blit t.conts 0 conts 0 t.n;
    t.keys <- keys;
    t.conts <- conts
  end;
  Array.blit t.keys pos t.keys (pos + 1) (t.n - pos);
  Array.blit t.conts pos t.conts (pos + 1) (t.n - pos);
  t.keys.(pos) <- key;
  t.conts.(pos) <- cont;
  t.n <- t.n + 1

let remove_chunk t pos =
  Array.blit t.keys (pos + 1) t.keys pos (t.n - pos - 1);
  Array.blit t.conts (pos + 1) t.conts pos (t.n - pos - 1);
  t.n <- t.n - 1

let add t v =
  assert (v >= 0);
  let key = v lsr 16 and low = v land low_mask in
  match find_key t key with
  | Ok i ->
    let cont, _added = container_add t.conts.(i) low in
    t.conts.(i) <- cont
  | Error pos ->
    let cont, _added = container_add (arr_create ()) low in
    insert_chunk t pos key cont

let remove t v =
  if v >= 0 then begin
    let key = v lsr 16 and low = v land low_mask in
    match find_key t key with
    | Error _ -> ()
    | Ok i ->
      let _removed = container_remove t.conts.(i) low in
      if container_cardinality t.conts.(i) = 0 then remove_chunk t i
  end

let mem t v =
  v >= 0
  &&
  match find_key t (v lsr 16) with
  | Ok i -> container_mem t.conts.(i) (v land low_mask)
  | Error _ -> false

let cardinality t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + container_cardinality t.conts.(i)
  done;
  !total

let is_empty t = t.n = 0

let iter f t =
  for i = 0 to t.n - 1 do
    let base = t.keys.(i) lsl 16 in
    container_iter (fun low -> f (base lor low)) t.conts.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

exception Found of int

let exists p t =
  try
    iter (fun v -> if p v then raise (Found v)) t;
    false
  with Found _ -> true

let min_elt t =
  if t.n = 0 then None
  else begin
    let base = t.keys.(0) lsl 16 in
    match t.conts.(0) with
    | Arr a -> Some (base lor a.data.(0))
    | Bits _ as c ->
      let result = ref None in
      (try container_iter (fun low -> raise (Found low)) c with Found low -> result := Some (base lor low));
      !result
  end

let max_elt t =
  if t.n = 0 then None
  else begin
    let base = t.keys.(t.n - 1) lsl 16 in
    match t.conts.(t.n - 1) with
    | Arr a -> Some (base lor a.data.(a.len - 1))
    | Bits _ as c ->
      let last = ref 0 in
      container_iter (fun low -> last := low) c;
      Some (base lor !last)
  end

let nth t i =
  if i < 0 then invalid_arg "Bitmap.nth";
  let rec chunk ci remaining =
    if ci >= t.n then invalid_arg "Bitmap.nth"
    else begin
      let card = container_cardinality t.conts.(ci) in
      if remaining < card then begin
        let base = t.keys.(ci) lsl 16 in
        match t.conts.(ci) with
        | Arr a -> base lor a.data.(remaining)
        | Bits _ as c ->
          let seen = ref 0 in
          let result = ref 0 in
          (try
             container_iter
               (fun low ->
                 if !seen = remaining then begin
                   result := base lor low;
                   raise (Found low)
                 end;
                 incr seen)
               c
           with Found _ -> ());
          !result
      end
      else chunk (ci + 1) (remaining - card)
    end
  in
  chunk 0 i

let copy t =
  {
    keys = Array.sub t.keys 0 (max 1 t.n);
    conts = Array.init (max 1 t.n) (fun i -> if i < t.n then container_copy t.conts.(i) else arr_create ());
    n = t.n;
  }

(* Merge the chunk lists of two bitmaps, combining containers that
   share a key with [both] and passing lone containers through
   [only] (None drops them). *)
let merge_chunks a b ~both ~only_a ~only_b =
  let out = create () in
  let push key cont =
    match cont with
    | None -> ()
    | Some c ->
      if container_cardinality c > 0 then begin
        match find_key out key with
        | Ok _ -> assert false
        | Error pos -> insert_chunk out pos key c
      end
  in
  let i = ref 0 and j = ref 0 in
  while !i < a.n || !j < b.n do
    if !j >= b.n || (!i < a.n && a.keys.(!i) < b.keys.(!j)) then begin
      push a.keys.(!i) (only_a a.conts.(!i));
      incr i
    end
    else if !i >= a.n || b.keys.(!j) < a.keys.(!i) then begin
      push b.keys.(!j) (only_b b.conts.(!j));
      incr j
    end
    else begin
      push a.keys.(!i) (both a.conts.(!i) b.conts.(!j));
      incr i;
      incr j
    end
  done;
  out

let union a b =
  merge_chunks a b
    ~both:(fun c1 c2 -> Some (container_union c1 c2))
    ~only_a:(fun c -> Some (container_copy c))
    ~only_b:(fun c -> Some (container_copy c))

let inter a b =
  merge_chunks a b
    ~both:(fun c1 c2 -> Some (container_inter c1 c2))
    ~only_a:(fun _ -> None)
    ~only_b:(fun _ -> None)

let diff a b =
  merge_chunks a b
    ~both:(fun c1 c2 -> Some (container_diff c1 c2))
    ~only_a:(fun c -> Some (container_copy c))
    ~only_b:(fun _ -> None)

let union_into dst src = iter (fun v -> add dst v) src

let equal a b =
  a.n = b.n
  &&
  let rec go i =
    i >= a.n
    || (a.keys.(i) = b.keys.(i)
       && container_cardinality a.conts.(i) = container_cardinality b.conts.(i)
       && container_inter_cardinality a.conts.(i) b.conts.(i)
          = container_cardinality a.conts.(i)
       && go (i + 1))
  in
  go 0

let subset a b =
  let rec go i =
    if i >= a.n then true
    else begin
      match find_key b a.keys.(i) with
      | Error _ -> false
      | Ok j ->
        container_inter_cardinality a.conts.(i) b.conts.(j)
        = container_cardinality a.conts.(i)
        && go (i + 1)
    end
  in
  go 0

let memory_words t =
  let per_container = function
    | Arr a -> 3 + Array.length a.data
    | Bits _ -> 2 + (bitset_bytes / 8)
  in
  let total = ref (4 + (2 * Array.length t.keys)) in
  for i = 0 to t.n - 1 do
    total := !total + per_container t.conts.(i)
  done;
  !total

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

(* -------------------- binary codec -------------------- *)

module Codec = Mgq_codec.Codec

let words_per_bitset = bitset_bytes / 8

let encode e t =
  Codec.Enc.varint e t.n;
  for i = 0 to t.n - 1 do
    Codec.Enc.varint e t.keys.(i);
    match t.conts.(i) with
    | Arr a ->
      Codec.Enc.u8 e 0;
      Codec.Enc.varint e a.len;
      (* Strictly-increasing values: gap-1 deltas, so consecutive runs
         cost one byte each and the first value encodes as itself. *)
      let prev = ref (-1) in
      for j = 0 to a.len - 1 do
        Codec.Enc.varint e (a.data.(j) - !prev - 1);
        prev := a.data.(j)
      done
    | Bits b ->
      Codec.Enc.u8 e 1;
      Codec.Enc.varint e b.card;
      (* Ship only up to the highest non-zero 64-bit word; the decoder
         zero-fills the trailing partial tail. The boundary cases the
         regression tests pin: a top bit at 63 keeps word 0, at 64
         forces word 1, and clearing a whole trailing word must shrink
         the shipped count. *)
      let n_words = ref words_per_bitset in
      while !n_words > 0 && Bytes.get_int64_le b.words ((!n_words - 1) * 8) = 0L do
        decr n_words
      done;
      Codec.Enc.varint e !n_words;
      for w = 0 to !n_words - 1 do
        Codec.Enc.i64 e (Bytes.get_int64_le b.words (w * 8))
      done
  done

let fail fmt = Printf.ksprintf (fun msg -> raise (Codec.Error msg)) fmt

let decode d =
  let n = Codec.Dec.varint d in
  let t = create () in
  let prev_key = ref (-1) in
  for _ = 1 to n do
    let key = Codec.Dec.varint d in
    if key <= !prev_key then fail "Bitmap: chunk keys not strictly increasing";
    prev_key := key;
    let cont =
      match Codec.Dec.u8 d with
      | 0 ->
        let len = Codec.Dec.varint d in
        if len = 0 then fail "Bitmap: empty chunk";
        if len > array_max then fail "Bitmap: sparse container over %d entries" array_max;
        let data = Array.make len 0 in
        let prev = ref (-1) in
        for j = 0 to len - 1 do
          let v = !prev + 1 + Codec.Dec.varint d in
          if v > low_mask then fail "Bitmap: container value over %d" low_mask;
          data.(j) <- v;
          prev := v
        done;
        Arr { data; len }
      | 1 ->
        let card = Codec.Dec.varint d in
        let n_words = Codec.Dec.varint d in
        if n_words > words_per_bitset then fail "Bitmap: bitset over %d words" words_per_bitset;
        let words = Bytes.make bitset_bytes '\000' in
        for w = 0 to n_words - 1 do
          Bytes.set_int64_le words (w * 8) (Codec.Dec.i64 d)
        done;
        let count = ref 0 in
        for byte = 0 to bitset_bytes - 1 do
          count := !count + popcount_byte.(Bytes.get_uint8 words byte)
        done;
        if !count <> card then fail "Bitmap: cardinality %d, %d bits set" card !count;
        if !count = 0 then fail "Bitmap: empty chunk";
        Bits { words; card }
      | k -> fail "Bitmap: unknown container kind %d" k
    in
    (match find_key t key with
    | Ok _ -> assert false (* keys strictly increasing *)
    | Error pos -> insert_chunk t pos key cont)
  done;
  t

let serialize t =
  let e = Codec.Enc.create () in
  encode e t;
  Codec.Page.seal (Codec.Enc.contents e)

let deserialize s =
  let d = Codec.Dec.of_string (Codec.Page.payload s) in
  let t = decode d in
  Codec.Dec.expect_end d;
  t
