type t = { name : string; passed : bool; detail : string }

let passed = List.for_all (fun v -> v.passed)

let all name ~pass_detail verdicts =
  match List.find_opt (fun v -> not v.passed) verdicts with
  | Some v -> { name; passed = false; detail = v.detail }
  | None -> { name; passed = true; detail = pass_detail }
