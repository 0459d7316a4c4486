(* HTTP/1.1 framing over one connection's receive buffer; see http.mli.

   A head is scanned where it lies: lines are found by their LF, fields
   by index, and each header name is compared in place against the
   three the daemon reads (Connection, Content-Length,
   Transfer-Encoding). The rules are those of the string-splitting
   parser this replaced (test/http_ref.ml keeps it as the reference):
   a line is cut at LF with one CR before it dropped, a header is split
   at its first ':' and both sides trimmed of String.trim's whitespace,
   a line without ':' is skipped. *)

exception Bad_request of string

type meth = Get | Post | Other
type route = Healthz | Metrics | Logits | Predict | Unknown

type request = {
  mutable meth : meth;
  mutable route : route;
  mutable http11 : bool;
  mutable close : bool;
  mutable body_off : int;
  mutable body_len : int;
}

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  max_body : int;
  req : request;
}

let max_head = 16 * 1024

let conn ~max_body fd =
  {
    fd;
    buf = Bytes.create 4096;
    pos = 0;
    lim = 0;
    max_body;
    req =
      { meth = Other; route = Unknown; http11 = false; close = false; body_off = 0; body_len = 0 };
  }

(* Room for [need] unread bytes from [pos]: move the unread bytes to
   the front, growing the buffer when even that is not enough. *)
let reserve c need =
  if c.pos + need > Bytes.length c.buf then begin
    let have = c.lim - c.pos in
    let cap = if c.max_body > max_int - max_head then max_int else max_head + c.max_body in
    let len = Bytes.length c.buf in
    let dst = if need > len then Bytes.create (max need (min cap (2 * len))) else c.buf in
    Bytes.blit c.buf c.pos dst 0 have;
    c.buf <- dst;
    c.pos <- 0;
    c.lim <- have
  end

(* One read into the free tail, which [reserve] made non-empty. *)
let read_more c =
  let k = Unix.read c.fd c.buf c.lim (Bytes.length c.buf - c.lim) in
  if k = 0 then raise End_of_file;
  c.lim <- c.lim + k

(* Index of the first CRLFCRLF in [b.[i .. lim - 1]], or -1. Every
   scanning helper here is a closed top-level function: a local one
   would allocate its closure on each call. *)
let rec find_blank_line b i lim =
  if i + 4 > lim then -1
  else if Bytes.unsafe_get b (i + 3) <> '\n' then find_blank_line b (i + 1) lim
  else if Bytes.unsafe_get b i = '\r' && Bytes.unsafe_get b (i + 1) = '\n'
          && Bytes.unsafe_get b (i + 2) = '\r'
  then i
  else find_blank_line b (i + 1) lim

(* Read until the buffer holds a whole head, [seen] bytes of it already
   searched; returns the index of its blank line. The head is
   [buf.[pos .. index - 1]], not consumed. *)
let rec read_head_from c seen =
  let i = find_blank_line c.buf (c.pos + max 0 (seen - 3)) c.lim in
  if i >= 0 then i
  else begin
    let have = c.lim - c.pos in
    if have > max_head then raise (Bad_request "headers too large");
    reserve c (have + 1);
    read_more c;
    read_head_from c have
  end

let read_head c = read_head_from c 0

(* Consume the next [n] bytes, reading until they are all buffered;
   returns their offset in [buf], valid until the next read on [c]. *)
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

(* Scanning helpers over [b.[i .. stop - 1]]. *)

let rec index_from b i stop ch =
  if i >= stop then -1 else if Bytes.unsafe_get b i = ch then i else index_from b (i + 1) stop ch

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space b i stop =
  if i < stop && is_space (Bytes.unsafe_get b i) then skip_space b (i + 1) stop else i

let rec trim_end b start i =
  if i > start && is_space (Bytes.unsafe_get b (i - 1)) then trim_end b start (i - 1) else i

(* End of the line that starts at [i]: its LF, or [stop]. *)
let line_end b i stop =
  let j = index_from b i stop '\n' in
  if j < 0 then stop else j

(* The line [b.[i .. j - 1]] without one trailing CR. *)
let drop_cr b i j = if j > i && Bytes.unsafe_get b (j - 1) = '\r' then j - 1 else j

(* [b.[i + k .. j - 1]] equals [s] from [k] on, byte for byte or with
   [b]'s ASCII letters lowered; [s] is as long as the range. *)
let rec equal_from b i j s k =
  i + k = j || (Bytes.unsafe_get b (i + k) = String.unsafe_get s k && equal_from b i j s (k + 1))

let rec equal_ci_from b i j s k =
  i + k = j
  || Char.lowercase_ascii (Bytes.unsafe_get b (i + k)) = String.unsafe_get s k
     && equal_ci_from b i j s (k + 1)

(* [b.[i .. j - 1]] is [s], byte for byte or ignoring ASCII case. *)
let equal b i j s = j - i = String.length s && equal_from b i j s 0
let equal_ci b i j s = j - i = String.length s && equal_ci_from b i j s 0

(* [b.[i .. j - 1]] and the range of as many bytes at [i'] are equal. *)
let rec same_from b i j i' =
  i = j || (Bytes.unsafe_get b i = Bytes.unsafe_get b i' && same_from b (i + 1) j (i' + 1))
let same b i j i' j' = j - i = j' - i' && same_from b i j i'

(* A non-negative decimal integer as HTTP writes one, [1*DIGIT]: no
   sign, no [_] separators, no [0x]/[0o]/[0b] prefix (all of which
   [int_of_string] accepts). -1 when malformed or past [max_int]. *)
let rec digits_from b k j acc =
  if k = j then acc
  else
    match Bytes.unsafe_get b k with
    | '0' .. '9' as ch ->
        let d = Char.code ch - Char.code '0' in
        if acc > (max_int - d) / 10 then -1 else digits_from b (k + 1) j ((acc * 10) + d)
    | _ -> -1

let digits b i j = if i = j then -1 else digits_from b i j 0

(* Whether the value [b.[i .. j - 1]] lists a [close] option. *)
let rec has_close b i j =
  if i >= j then false
  else
    let comma = index_from b i j ',' in
    let e = if comma < 0 then j else comma in
    let s = skip_space b i e in
    equal_ci b s (trim_end b s e) "close" || (comma >= 0 && has_close b (comma + 1) j)

let route_of b i j =
  let j = match index_from b i j '?' with -1 -> j | q -> q in
  if equal b i j "/v1/logits" then Logits
  else if equal b i j "/v1/predict" then Predict
  else if equal b i j "/healthz" then Healthz
  else if equal b i j "/metrics" then Metrics
  else Unknown

let parse_head r ~max_body b ~off ~len =
  let stop = off + len in
  (* Request line: exactly three fields split by single spaces. *)
  let le = line_end b off stop in
  let e = drop_cr b off le in
  let s1 = index_from b off e ' ' in
  let s2 = if s1 < 0 then -1 else index_from b (s1 + 1) e ' ' in
  if s2 < 0 || index_from b (s2 + 1) e ' ' >= 0 then raise (Bad_request "malformed request line");
  let http11 = equal b (s2 + 1) e "HTTP/1.1" in
  if not (http11 || equal b (s2 + 1) e "HTTP/1.0") then
    raise (Bad_request "malformed request line");
  r.meth <- (if equal b off s1 "GET" then Get else if equal b off s1 "POST" then Post else Other);
  r.route <- route_of b (s1 + 1) s2;
  r.http11 <- http11;
  (* Headers. [cl_*]: the first Content-Length value; [conflict]: a
     later one differs from it. Only the first Connection header
     counts. *)
  let chunked = ref false and connection = ref false and close = ref false in
  let cl_start = ref (-1) and cl_end = ref (-1) and conflict = ref false in
  let i = ref (le + 1) in
  while !i <= stop do
    let le = line_end b !i stop in
    let e = drop_cr b !i le in
    let colon = index_from b !i e ':' in
    if colon >= 0 then begin
      let ks = skip_space b !i colon in
      let ke = trim_end b ks colon in
      let vs = skip_space b (colon + 1) e in
      let ve = trim_end b vs e in
      if equal_ci b ks ke "content-length" then begin
        if !cl_start < 0 then begin
          cl_start := vs;
          cl_end := ve
        end
        else if not (same b !cl_start !cl_end vs ve) then conflict := true
      end
      else if equal_ci b ks ke "transfer-encoding" then chunked := true
      else if equal_ci b ks ke "connection" && not !connection then begin
        connection := true;
        close := has_close b vs ve
      end
    end;
    i := le + 1
  done;
  (* Bodies are framed by Content-Length alone. A chunked body read as
     empty would leave its chunks to be parsed as the next request, so
     any Transfer-Encoding, like lengths that disagree, is a framing
     error. *)
  if !chunked then raise (Bad_request "Transfer-Encoding is not supported");
  if !conflict then raise (Bad_request "conflicting Content-Length headers");
  r.close <- !close;
  r.body_len <-
    (if !cl_start < 0 then 0
     else
       match digits b !cl_start !cl_end with
       | -1 -> raise (Bad_request "malformed Content-Length")
       | n -> if n > max_body then raise (Bad_request "body too large") else n)

let read_request c =
  let blank = read_head c in
  let r = c.req in
  let head = c.pos in
  c.pos <- blank + 4;
  parse_head r ~max_body:c.max_body c.buf ~off:head ~len:(blank - head);
  r.body_off <- take c r.body_len;
  r

let read_response c =
  let blank = read_head c in
  let b = c.buf and head = c.pos in
  let le = line_end b head blank in
  let e = drop_cr b head le in
  let malformed () =
    failwith ("Client: malformed status line: " ^ Bytes.sub_string b head (e - head))
  in
  (* status-code, the second field, is exactly 3DIGIT. *)
  let s1 = index_from b head e ' ' in
  if s1 < 0 then malformed ();
  let s2 = match index_from b (s1 + 1) e ' ' with -1 -> e | s -> s in
  let status = digits b (s1 + 1) s2 in
  if s2 - s1 - 1 <> 3 || status < 0 then malformed ();
  let length = ref 0 and seen = ref false and i = ref (le + 1) in
  while (not !seen) && !i <= blank do
    let le = line_end b !i blank in
    let e = drop_cr b !i le in
    let colon = index_from b !i e ':' in
    (if colon >= 0 then
       let ks = skip_space b !i colon in
       if equal_ci b ks (trim_end b ks colon) "content-length" then begin
         let vs = skip_space b (colon + 1) e in
         let ve = trim_end b vs e in
         seen := true;
         length := digits b vs ve;
         if !length < 0 then
           failwith ("Client: malformed Content-Length: " ^ Bytes.sub_string b vs (ve - vs))
       end);
    i := le + 1
  done;
  c.pos <- blank + 4;
  let off = take c !length in
  (status, Bytes.sub_string c.buf off !length)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let head_1 = "HTTP/1.1 "
let head_2 = "\r\nContent-Type: application/json\r\nContent-Length: "
let head_3 = "\r\nConnection: "

(* 19 digits hold max_int; the longest reason is 19 bytes. *)
let max_response_head =
  String.length head_1 + 19 + 1 + 19 + String.length head_2 + 19 + String.length head_3
  + String.length "keep-alive\r\n\r\n"

let put b at s =
  Bytes.blit_string s 0 b at (String.length s);
  at + String.length s

let rec width n = if n < 10 then 1 else 1 + width (n / 10)

(* [n >= 0]'s digits, last first, ending at [i]. *)
let rec put_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (i - 1) (n / 10)

(* The decimal digits of [n >= 0] at [at]; returns the end. *)
let put_int b at n =
  let w = width n in
  put_digits b (at + w - 1) n;
  at + w

let write_response_head b ~status ~keep_alive ~length =
  let at = put b 0 head_1 in
  let at = put_int b at status in
  Bytes.set b at ' ';
  let at = put b (at + 1) (status_text status) in
  let at = put b at head_2 in
  let at = put_int b at length in
  let at = put b at head_3 in
  put b at (if keep_alive then "keep-alive\r\n\r\n" else "close\r\n\r\n")

let write_bytes fd b n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done
