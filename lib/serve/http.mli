(** HTTP/1.1 framing over one connection's receive buffer.

    Shared by the daemon and {!Serve.Client}. A connection reads into
    one byte buffer it owns, so pipelined messages and keep-alive reuse
    need no copy per read. A message head is parsed where it lies in
    that buffer, into the connection's one {!request} record: no header
    string is cut out and no header list is built, so reading a head
    allocates nothing once the buffer has grown to the largest message.
    Response heads are written straight into a caller's bytes. *)

exception Bad_request of string
(** A framing error, with the message of its 400 answer. *)

type meth = Get | Post | Other

(** The request target's path, without its query string. *)
type route = Healthz | Metrics | Logits | Predict | Unknown

type request = {
  mutable meth : meth;
  mutable route : route;
  mutable http11 : bool;  (** [HTTP/1.1], else [HTTP/1.0] *)
  mutable close : bool;
      (** the first [Connection] header lists a [close] option (a
          comma-separated list of case-insensitive tokens, RFC 9110
          §7.6.1) *)
  mutable body_off : int;  (** where the body lies in the receive buffer *)
  mutable body_len : int;
}
(** A parsed request head. One per connection, overwritten by each
    {!read_request}. *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  max_body : int;
  req : request;
}
(** One connection's receive side. The unread bytes are
    [buf.[pos .. lim - 1]]; the buffer is compacted in place and grown
    to the largest message read so far, never past {!max_head} plus
    [max_body]. *)

val max_head : int
(** 16 KiB: a head still without its blank line once more than this
    many bytes are buffered is refused (["headers too large"]). *)

val conn : max_body:int -> Unix.file_descr -> conn

val read_request : conn -> request
(** Read one request, head and [Content-Length] body, however the
    bytes arrive (split across reads, or pipelined behind the previous
    request), and return [conn.req]. The head is parsed in place
    before the body is read, so the body read may move the buffer; the
    body stays in it at [body_off] until the next read on the
    connection.

    A head is the bytes before its blank line (CRLFCRLF). Its lines end
    at LF, one CR before it dropped. The request line is exactly three
    space-separated fields, the last [HTTP/1.1] or [HTTP/1.0]. A header
    line is a name and a value split at its first [:], both trimmed,
    the name matched case-insensitively; a line without [:] is ignored.
    Raises [End_of_file] when the peer closes, and {!Bad_request} on a
    head past {!max_head}, a malformed request line, any
    [Transfer-Encoding], [Content-Length] values that differ, or one
    that is not [1*DIGIT] or exceeds [max_body]. *)

val read_response : conn -> int * string
(** The client side: read one response and return its status code and
    body. The status line's second field must be exactly three digits;
    the first [Content-Length] header, which must be [1*DIGIT], frames
    the body (none: an empty body). Raises [Failure] on a malformed
    response and [End_of_file] when the peer closes. *)

val max_response_head : int
(** The longest head {!write_response_head} writes. *)

val write_response_head : Bytes.t -> status:int -> keep_alive:bool -> length:int -> int
(** Write [HTTP/1.1 <status> <reason>], [Content-Type:
    application/json], [Content-Length: <length>] and [Connection:
    keep-alive] or [close] at the start of the bytes, which must hold
    {!max_response_head}, and return the head's length. Allocates
    nothing. *)

val write_bytes : Unix.file_descr -> Bytes.t -> int -> unit
(** Write the first [n] bytes, however many writes it takes. *)

val write_all : Unix.file_descr -> string -> unit
