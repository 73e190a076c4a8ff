let escape s =
  let needs_escaping =
    String.exists (fun c -> c = '\t' || c = '\n' || c = '\r' || c = '\\') s
  in
  if not needs_escaping then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec loop i =
      if i < n then begin
        if s.[i] = '\\' && i + 1 < n then begin
          (match s.[i + 1] with
          | 't' -> Buffer.add_char buf '\t'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | '\\' -> Buffer.add_char buf '\\'
          | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
          loop (i + 2)
        end
        else begin
          Buffer.add_char buf s.[i];
          loop (i + 1)
        end
      end
    in
    loop 0;
    Buffer.contents buf
  end

let write_row oc fields =
  output_string oc (String.concat "\t" (List.map escape fields));
  output_char oc '\n'

let read_rows path f =
  let ic = open_in path in
  let count = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr count;
       f (List.map unescape (String.split_on_char '\t' line))
     done
   with
  | End_of_file -> close_in ic
  | e ->
    close_in ic;
    raise e);
  !count
