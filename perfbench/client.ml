(* A blocking keep-alive HTTP/1.1 client for one connection: send a
   request, read exactly one Content-Length framed reply. Only one
   request is in flight per connection. *)

exception Transport_error of string

type t = { fd : Unix.file_descr; port : int; mutable buf : Bytes.t; mutable len : int }

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Transport_error (Unix.error_message e)));
  { fd; port; buf = Bytes.create 65536; len = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring t.fd s !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> raise (Transport_error (Unix.error_message e))
  done

let read_more t =
  if t.len = Bytes.length t.buf then begin
    let grown = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
  | 0 -> raise (Transport_error "connection closed mid-reply")
  | n -> t.len <- t.len + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Transport_error (Unix.error_message e))

let find_header_end t ~from =
  let rec scan i =
    if i + 3 >= t.len then None
    else if
      Bytes.get t.buf i = '\r'
      && Bytes.get t.buf (i + 1) = '\n'
      && Bytes.get t.buf (i + 2) = '\r'
      && Bytes.get t.buf (i + 3) = '\n'
    then Some (i + 4)
    else scan (i + 1)
  in
  scan from

let content_length head =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" -> (
        match int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1))) with
        | Some n -> n
        | None -> raise (Transport_error "bad Content-Length"))
      | _ -> acc)
    0
    (String.split_on_char '\n' head)

let status_of head =
  match String.split_on_char ' ' head with
  | _ :: code :: _ -> (
    match int_of_string_opt (String.trim code) with
    | Some s -> s
    | None -> raise (Transport_error "bad status line"))
  | _ -> raise (Transport_error "bad status line")

(* Status and body of the next reply. Bytes after it stay buffered. *)
let read_reply t =
  let rec headers from =
    match find_header_end t ~from with
    | Some e -> e
    | None ->
      let from = max 0 (t.len - 3) in
      read_more t;
      headers from
  in
  let hdr_end = headers 0 in
  let head = Bytes.sub_string t.buf 0 hdr_end in
  let status = status_of head in
  let want = hdr_end + content_length head in
  while t.len < want do
    read_more t
  done;
  let body = Bytes.sub_string t.buf hdr_end (want - hdr_end) in
  Bytes.blit t.buf want t.buf 0 (t.len - want);
  t.len <- t.len - want;
  (status, body)

let exchange t request =
  send t request;
  read_reply t

let get_request path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: mgq\r\n\r\n" path

let post_request path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: mgq\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body
