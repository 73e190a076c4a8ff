type t = { name : string; passed : bool; detail : string }

let passed = List.for_all (fun v -> v.passed)
