(* The reference HTTP head reader: the string-splitting parser the
   daemon ran before [Pnc_serve.Http] parsed heads in place. It cuts the
   head out of the receive buffer as a string, splits it into lines and
   the request line into fields, builds the header list, and reads the
   framing off it. Its receive buffer reads and grows exactly as
   [Http.conn]'s does, so the two see the same bytes at the same
   moments and must reach the same verdict on every stream: the same
   request fields, or the same rejection.

   The module lives in the test directory and is linked into every
   test executable of the [(tests ...)] stanza. *)

module Http = Pnc_serve.Http

type bufconn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  max_body : int;
}

let bufconn ~max_body fd = { fd; buf = Bytes.create 4096; pos = 0; lim = 0; max_body }

let reserve c need =
  if c.pos + need > Bytes.length c.buf then begin
    let have = c.lim - c.pos in
    let cap = if c.max_body > max_int - Http.max_head then max_int else Http.max_head + c.max_body in
    let len = Bytes.length c.buf in
    let dst = if need > len then Bytes.create (max need (min cap (2 * len))) else c.buf in
    Bytes.blit c.buf c.pos dst 0 have;
    c.buf <- dst;
    c.pos <- 0;
    c.lim <- have
  end

let read_more c =
  let k = Unix.read c.fd c.buf c.lim (Bytes.length c.buf - c.lim) in
  if k = 0 then raise End_of_file;
  c.lim <- c.lim + k

let find_blank_line c from =
  let b = c.buf in
  let rec go i =
    if i + 4 > c.lim then None
    else if Bytes.get b (i + 3) <> '\n' then go (i + 1)
    else if Bytes.get b i = '\r' && Bytes.get b (i + 1) = '\n' && Bytes.get b (i + 2) = '\r' then
      Some i
    else go (i + 1)
  in
  go from

(* The head without its blank line, consumed. *)
let read_head c =
  let rec go seen =
    match find_blank_line c (c.pos + max 0 (seen - 3)) with
    | Some i ->
        let head = Bytes.sub_string c.buf c.pos (i - c.pos) in
        c.pos <- i + 4;
        head
    | None ->
        let have = c.lim - c.pos in
        if have > Http.max_head then raise (Http.Bad_request "headers too large");
        reserve c (have + 1);
        read_more c;
        go have
  in
  go 0

let take c n =
  if c.lim - c.pos < n then begin
    reserve c n;
    while c.lim - c.pos < n do
      read_more c
    done
  end;
  let off = c.pos in
  c.pos <- c.pos + n;
  off

let split_lines head =
  String.split_on_char '\n' head
  |> List.map (fun l ->
         if String.length l > 0 && l.[String.length l - 1] = '\r' then
           String.sub l 0 (String.length l - 1)
         else l)

let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          let k = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          Some (k, v))
    lines

let header hs k = List.assoc_opt k hs

let wants_close hs =
  match header hs "connection" with
  | None -> false
  | Some v ->
      List.exists
        (fun o -> String.lowercase_ascii (String.trim o) = "close")
        (String.split_on_char ',' v)

let digits s =
  let n = String.length s in
  let rec go i acc =
    if i = n then Some acc
    else
      match s.[i] with
      | '0' .. '9' as ch ->
          let d = Char.code ch - Char.code '0' in
          if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
      | _ -> None
  in
  if n = 0 then None else go 0 0

type request = {
  meth : string;
  path : string;
  http11 : bool;
  headers : (string * string) list;
  body_off : int;
  body_len : int;
}

let read_request rx =
  let head = read_head rx in
  match split_lines head with
  | [] -> raise (Http.Bad_request "empty request")
  | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ] when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers = parse_headers header_lines in
          if header headers "transfer-encoding" <> None then
            raise (Http.Bad_request "Transfer-Encoding is not supported");
          let lengths =
            List.filter_map (fun (k, v) -> if k = "content-length" then Some v else None) headers
          in
          let body_len =
            match List.sort_uniq compare lengths with
            | [] -> 0
            | [ v ] -> (
                match digits v with
                | Some n -> if n > rx.max_body then raise (Http.Bad_request "body too large") else n
                | None -> raise (Http.Bad_request "malformed Content-Length"))
            | _ -> raise (Http.Bad_request "conflicting Content-Length headers")
          in
          let body_off = take rx body_len in
          let path = match String.index_opt path '?' with Some i -> String.sub path 0 i | None -> path in
          { meth; path; http11 = version = "HTTP/1.1"; headers; body_off; body_len }
      | _ -> raise (Http.Bad_request "malformed request line"))

(* The daemon's routing of a request line's method and path. *)
let meth_of = function "GET" -> Http.Get | "POST" -> Http.Post | _ -> Http.Other

let route_of = function
  | "/healthz" -> Http.Healthz
  | "/metrics" -> Http.Metrics
  | "/v1/logits" -> Http.Logits
  | "/v1/predict" -> Http.Predict
  | _ -> Http.Unknown

(* What a reader makes of the next request on its connection. *)
type verdict =
  | Request of { meth : Http.meth; route : Http.route; http11 : bool; close : bool; body : string }
  | Rejected of string
  | Eof

let verdict rx =
  match read_request rx with
  | r ->
      Request
        {
          meth = meth_of r.meth;
          route = route_of r.path;
          http11 = r.http11;
          close = wants_close r.headers;
          body = Bytes.sub_string rx.buf r.body_off r.body_len;
        }
  | exception Http.Bad_request msg -> Rejected msg
  | exception End_of_file -> Eof

let http_verdict (c : Http.conn) =
  match Http.read_request c with
  | r ->
      Request
        {
          meth = r.meth;
          route = r.route;
          http11 = r.http11;
          close = r.close;
          body = Bytes.sub_string c.buf r.body_off r.body_len;
        }
  | exception Http.Bad_request msg -> Rejected msg
  | exception End_of_file -> Eof

let show = function
  | Request { meth; route; http11; close; body } ->
      Printf.sprintf "request %s %s http11=%b close=%b body=%d bytes"
        (match meth with Http.Get -> "GET" | Post -> "POST" | Other -> "other")
        (match route with
        | Http.Healthz -> "healthz"
        | Metrics -> "metrics"
        | Logits -> "logits"
        | Predict -> "predict"
        | Unknown -> "unknown")
        http11 close (String.length body)
  | Rejected msg -> "rejected: " ^ msg
  | Eof -> "end of file"
