type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let equal a b =
  match (a, b) with
  | Null, _ | _, Null -> false
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Str x, Str y -> String.equal x y
  | (Bool _ | Int _ | Float _ | Str _), _ -> false

let compare_values a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (compare x y)
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | Int x, Float y -> Some (compare (float_of_int x) y)
  | Float x, Int y -> Some (compare x (float_of_int y))
  | Str x, Str y -> Some (String.compare x y)
  | (Bool _ | Int _ | Float _ | Str _), _ -> None

let is_truthy = function Bool b -> b | Null | Int _ | Float _ | Str _ -> false

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"

let to_display = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s

let hash_fold = function
  | Null -> 0
  | Bool b -> Hashtbl.hash (`B b)
  (* Ints that are exactly representable as floats must hash like the
     float so Int 1 and Float 1. collide, matching [equal]. *)
  | Int i -> Hashtbl.hash (`F (float_of_int i))
  | Float f -> Hashtbl.hash (`F f)
  | Str s -> Hashtbl.hash (`S s)
