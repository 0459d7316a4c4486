type value = Bool of bool | Int of int | Float of float | Str of string
type field = string * value

type sink = {
  write : t:float -> seq:int -> name:string -> field list -> unit;
  flush : unit -> unit;
}

(* The installed sink. [is_enabled] mirrors it as a plain flag so hot
   paths pay one unsynchronized bool read on the null-sink path; the
   mutex serializes writers from pool worker domains. *)
let sink : sink option ref = ref None
let is_enabled = ref false
let sink_mutex = Mutex.create ()
let seq = ref 0

let enabled () = !is_enabled

let set_sink s =
  Mutex.lock sink_mutex;
  (match !sink with Some old -> old.flush () | None -> ());
  sink := s;
  (* seq numbers each sink's stream from 1: consumers treat it as the
     record index within one telemetry file. *)
  seq := 0;
  (is_enabled := match s with Some _ -> true | None -> false);
  Mutex.unlock sink_mutex

let emit name fields =
  if !is_enabled then begin
    Mutex.lock sink_mutex;
    (match !sink with
    | None -> ()
    | Some s ->
        incr seq;
        s.write ~t:(Clock.now ()) ~seq:!seq ~name fields);
    Mutex.unlock sink_mutex
  end

(* JSONL sink ------------------------------------------------------------- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* The C primitive behind [Printf]'s float conversions: with "%.17g" it
   returns exactly the bytes [Printf.sprintf "%.17g"] does, without
   interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

let json_float b v =
  if Float.is_finite v then Buffer.add_string b (format_float "%.17g" v)
  else Buffer.add_string b "null"

let json_value b = function
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float v -> json_float b v
  | Str s ->
      Buffer.add_char b '"';
      json_escape b s;
      Buffer.add_char b '"'

let jsonl_sink oc =
  let b = Buffer.create 256 in
  let write ~t ~seq ~name fields =
    Buffer.clear b;
    Buffer.add_string b "{\"t\":";
    json_float b t;
    Buffer.add_string b ",\"seq\":";
    Buffer.add_string b (string_of_int seq);
    Buffer.add_string b ",\"event\":\"";
    json_escape b name;
    Buffer.add_char b '"';
    List.iter
      (fun (k, v) ->
        Buffer.add_string b ",\"";
        json_escape b k;
        Buffer.add_string b "\":";
        json_value b v)
      fields;
    Buffer.add_string b "}\n";
    Buffer.output_buffer oc b
  in
  { write; flush = (fun () -> flush oc) }

let with_jsonl ~path f =
  let oc = open_out path in
  set_sink (Some (jsonl_sink oc));
  Fun.protect
    ~finally:(fun () ->
      set_sink None;
      close_out oc)
    f

let trace_stderr = ref false

(* Metrics registry --------------------------------------------------------

   Each metric registers a snapshot closure (its current value as event
   fields) and a reset closure; the registry itself never needs to know
   the metric's concrete type. *)

type registered = { name : string; snapshot : unit -> field list; reset : unit -> unit }

let registry : registered list ref = ref []
let registry_mutex = Mutex.create ()

let register r =
  Mutex.lock registry_mutex;
  registry := r :: !registry;
  Mutex.unlock registry_mutex

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let make name =
    let t = { name; v = Atomic.make 0 } in
    register
      {
        name;
        snapshot = (fun () -> [ ("kind", Str "counter"); ("value", Int (Atomic.get t.v)) ]);
        reset = (fun () -> Atomic.set t.v 0);
      };
    t

  let incr t = ignore (Atomic.fetch_and_add t.v 1)
  let add t n = ignore (Atomic.fetch_and_add t.v n)
  let value t = Atomic.get t.v
end

module Gauge = struct
  (* Set from the main domain only; float reads cannot tear in OCaml
     (the field holds a word-sized pointer or unboxed float). *)
  type t = { name : string; mutable g : float }

  let make name =
    let t = { name; g = 0. } in
    register
      {
        name;
        snapshot = (fun () -> [ ("kind", Str "gauge"); ("value", Float t.g) ]);
        reset = (fun () -> t.g <- 0.);
      };
    t

  let set t v = t.g <- v
  let value t = t.g
end

module Histogram = struct
  (* The sum is a flat float, added to under [sum_mu] (observers run on
     any domain). A CAS on a boxed float would allocate a new total per
     observation, and the one the atomic holds at each minor collection
     would be promoted. *)
  type sum = { mutable total : float }

  type t = {
    name : string;
    counts : int Atomic.t array; (* 64 fixed log-scale buckets *)
    n : int Atomic.t;
    sum_mu : Mutex.t;
    sum : sum;
  }

  let n_buckets = 64

  (* Bucket i covers [2^(i-33), 2^(i-32)): frexp's v = m * 2^e with m
     in [0.5, 1), i.e. v in [2^(e-1), 2^e), maps e to i = e + 32. The
     extreme buckets absorb under- and overflow. [e] is read off the
     biased exponent bits (e = biased - 1022 for a normal [v]; a
     subnormal lands in bucket 0 either way), so an observation
     allocates no [frexp] pair. *)
  let bucket_of v =
    if not (Float.is_finite v) || v <= 0. then 0
    else
      let biased = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) in
      Stdlib.max 0 (Stdlib.min (n_buckets - 1) (biased - 1022 + 32))

  let upper_bound i = Float.ldexp 1. (i - 32)
  let count t = Atomic.get t.n
  let sum t =
    Mutex.lock t.sum_mu;
    let v = t.sum.total in
    Mutex.unlock t.sum_mu;
    v

  let buckets t =
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      let c = Atomic.get t.counts.(i) in
      if c > 0 then out := (upper_bound i, c) :: !out
    done;
    Array.of_list !out

  let make name =
    let t =
      {
        name;
        counts = Array.init n_buckets (fun _ -> Atomic.make 0);
        n = Atomic.make 0;
        sum_mu = Mutex.create ();
        sum = { total = 0. };
      }
    in
    register
      {
        name;
        snapshot =
          (fun () ->
            let bucket_fields =
              Array.to_list (buckets t)
              |> List.map (fun (ub, c) -> (Printf.sprintf "le_%.3g" ub, Int c))
            in
            [ ("kind", Str "histogram"); ("count", Int (count t)); ("sum", Float (sum t)) ]
            @ bucket_fields);
        reset =
          (fun () ->
            Array.iter (fun c -> Atomic.set c 0) t.counts;
            Atomic.set t.n 0;
            Mutex.lock t.sum_mu;
            t.sum.total <- 0.;
            Mutex.unlock t.sum_mu);
      };
    t

  let observe t v =
    ignore (Atomic.fetch_and_add t.counts.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add t.n 1);
    Mutex.lock t.sum_mu;
    t.sum.total <- t.sum.total +. v;
    Mutex.unlock t.sum_mu
end

let metrics_snapshot () =
  List.rev_map (fun r -> (r.name, r.snapshot ())) !registry

let emit_metrics () =
  if !is_enabled then
    List.iter
      (fun r -> emit "metric" (("name", Str r.name) :: r.snapshot ()))
      (List.rev !registry)

let reset_metrics () = List.iter (fun r -> r.reset ()) !registry

(* Span tracing ------------------------------------------------------------ *)

module Span = struct
  (* Nesting depth is main-domain state: spans are opened by the
     submitting domain only (pool tasks never open spans). *)
  let current_depth = ref 0

  let depth () = !current_depth

  let with_ ?(attrs = []) name f =
    if not (!is_enabled || !trace_stderr) then f ()
    else begin
      let d = !current_depth in
      current_depth := d + 1;
      if !is_enabled then emit "span.begin" (("span", Str name) :: ("depth", Int d) :: attrs);
      let t0 = Clock.now () in
      let finish ok =
        let dt = Clock.elapsed t0 in
        current_depth := d;
        if !is_enabled then
          emit "span.end"
            (("span", Str name) :: ("depth", Int d) :: ("dur_s", Float dt)
            :: ("ok", Bool ok) :: attrs);
        if !trace_stderr then
          Printf.eprintf "[trace] %s%s %.6fs%s\n%!" (String.make (2 * d) ' ') name dt
            (if ok then "" else " (raised)")
      in
      match f () with
      | r ->
          finish true;
          r
      | exception e ->
          finish false;
          raise e
    end
end

(* Minimal JSON ------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* Eisel–Lemire ("Number Parsing at a Gigabyte per Second", Lemire
     2021; this is the variant with a fallback, as in Go's strconv):
     the correctly rounded double nearest [man * 10^e10], or [nan] when
     the 128-bit product cannot decide the rounding (the caller then
     falls back to [float_of_string_opt]), or the result is subnormal,
     zero or infinite. [man] is in [1, 10^18]. Int64 words are unsigned; every
     int64 is let-bound and unboxed by the native compiler. *)

  let[@inline] ult (a : int64) (b : int64) = Int64.(add a min_int < add b min_int)

  (* High 64 bits of the unsigned 128-bit product [a * b]. *)
  let[@inline] mul_hi a b =
    let open Int64 in
    let m32 = 0xFFFF_FFFFL in
    let a0 = logand a m32 and a1 = shift_right_logical a 32 in
    let b0 = logand b m32 and b1 = shift_right_logical b 32 in
    let p00 = mul a0 b0 and p01 = mul a0 b1 and p10 = mul a1 b0 in
    let mid = add (add (shift_right_logical p00 32) (logand p01 m32)) (logand p10 m32) in
    add
      (add (add (mul a1 b1) (shift_right_logical p01 32)) (shift_right_logical p10 32))
      (shift_right_logical mid 32)

  (* Bits needed to write [x >= 0]. *)
  let bit_length x =
    let n = ref 0 and x = ref x in
    if !x lsr 32 <> 0 then (x := !x lsr 32; n := 32);
    if !x lsr 16 <> 0 then (x := !x lsr 16; n := !n + 16);
    if !x lsr 8 <> 0 then (x := !x lsr 8; n := !n + 8);
    if !x lsr 4 <> 0 then (x := !x lsr 4; n := !n + 4);
    if !x lsr 2 <> 0 then (x := !x lsr 2; n := !n + 2);
    if !x lsr 1 <> 0 then (x := !x lsr 1; n := !n + 1);
    !n + !x

  let[@inline] eisel_lemire man e10 =
    if e10 < Pow5.min_q || e10 > Pow5.max_q then nan
    else
      let open Int64 in
      let clz = 64 - bit_length man in
      let w = shift_left (of_int man) clz in
      let i = 2 * (e10 - Pow5.min_q) in
      let p_hi = Array.unsafe_get Pow5.table i in
      let x_hi = ref (mul_hi w p_hi) and x_lo = ref (mul w p_hi) and undecided = ref false in
      (* Widen to the table's low word only when the truncated product
         could carry into the bits that decide rounding. *)
      if logand !x_hi 0x1FFL = 0x1FFL && ult (add !x_lo w) w then begin
        let p_lo = Array.unsafe_get Pow5.table (i + 1) in
        let y_hi = mul_hi w p_lo and y_lo = mul w p_lo in
        let m_lo = add !x_lo y_hi in
        if ult m_lo !x_lo then x_hi := succ !x_hi;
        x_lo := m_lo;
        undecided := logand !x_hi 0x1FFL = 0x1FFL && m_lo = minus_one && ult (add y_lo w) w
      end;
      let msb = to_int (shift_right_logical !x_hi 63) in
      let mant = to_int (shift_right_logical !x_hi (msb + 9)) in
      let e2 = ((217706 * e10) asr 16) + 64 + 1023 - clz - (1 - msb) in
      if !undecided || (!x_lo = zero && logand !x_hi 0x1FFL = zero && mant land 3 = 1) then nan
      else
        (* Round half up from 54 to 53 bits (the half-way case was
           excluded above), renormalising on carry. *)
        let mant = (mant + (mant land 1)) lsr 1 in
        let carry = mant lsr 53 in
        let mant = mant lsr carry and e2 = e2 + carry in
        if e2 <= 0 || e2 >= 0x7FF then nan
        else
          float_of_bits
            (logor (shift_left (of_int e2) 52) (of_int (mant land 0xF_FFFF_FFFF_FFFF)))

  (* Cursor: the one lexer behind [parse] and the tree-free decoders
     built on it (the serve daemon's request bodies). *)
  module Cursor = struct
    (* The text is [s.[base .. stop - 1]]; [pos] is an index into [s]
       and errors report it relative to [base]. [man] and [nsig] are
       the number lexer's mantissa and significant-digit count, and
       [num] the slot {!number} reads its value back from. *)
    type nonrec t = {
      s : string;
      mutable pos : int;
      stop : int;
      base : int;
      mutable man : int;
      mutable nsig : int;
      num : floatarray;
    }

    let max_depth = 512

    let make_sub s ~off ~len =
      if off < 0 || len < 0 || off > String.length s - len then
        invalid_arg "Json.Cursor.make_sub: slice out of bounds";
      { s; pos = off; stop = off + len; base = off; man = 0; nsig = 0; num = Float.Array.create 1 }

    let make s = make_sub s ~off:0 ~len:(String.length s)
    let fail c msg = failwith (Printf.sprintf "Json.parse: %s at offset %d" msg (c.pos - c.base))

    let rec skip_ws c =
      if c.pos < c.stop then
        match String.unsafe_get c.s c.pos with
        | ' ' | '\t' | '\n' | '\r' ->
            c.pos <- c.pos + 1;
            skip_ws c
        | _ -> ()

    let peek c =
      skip_ws c;
      if c.pos < c.stop then String.unsafe_get c.s c.pos else '\000'

    let advance c = c.pos <- c.pos + 1

    let expect c ch = if peek c = ch then advance c else fail c (Printf.sprintf "expected %c" ch)

    let finish c =
      skip_ws c;
      if c.pos < c.stop then fail c "trailing garbage"

    let string c =
      expect c '"';
      let s = c.s and n = c.stop in
      let b = Buffer.create 16 in
      let rec go () =
        if c.pos >= n then fail c "unterminated string";
        match s.[c.pos] with
        | '"' -> advance c
        | '\\' ->
            advance c;
            let esc ch =
              Buffer.add_char b ch;
              advance c;
              go ()
            in
            if c.pos >= n then fail c "bad escape";
            begin
              match s.[c.pos] with
              | '"' -> esc '"'
              | '\\' -> esc '\\'
              | '/' -> esc '/'
              | 'n' -> esc '\n'
              | 't' -> esc '\t'
              | 'r' -> esc '\r'
              | 'b' -> esc '\b'
              | 'f' -> esc '\012'
              | 'u' ->
                  advance c;
                  if c.pos + 4 > n then fail c "truncated \\u escape";
                  (* Strict 4-hex-digit validation through the typed
                     [fail]: [int_of_string "0x…"] would raise an untyped
                     [Failure] on junk like \uZZZZ and silently accept
                     '_' separators inside the four digits. *)
                  let hex_digit ch =
                    match ch with
                    | '0' .. '9' -> Char.code ch - Char.code '0'
                    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
                    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
                    | _ -> fail c "invalid \\u escape (want exactly 4 hex digits)"
                  in
                  let code = ref 0 in
                  for _ = 1 to 4 do
                    code := (!code lsl 4) lor hex_digit s.[c.pos];
                    advance c
                  done;
                  let code = !code in
                  (* Surrogate halves are not code points. The telemetry
                     contract is ASCII (docs/OBSERVABILITY.md); this
                     parser never emits them, so decide deterministically:
                     reject rather than decode garbage pairs. *)
                  if code >= 0xD800 && code <= 0xDFFF then
                    fail c "surrogate code point in \\u escape";
                  (* Telemetry strings are ASCII; encode BMP code points
                     as UTF-8 without surrogate-pair handling. *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  go ()
              | _ -> fail c "bad escape"
            end
        | ch ->
            Buffer.add_char b ch;
            advance c;
            go ()
      in
      go ();
      Buffer.contents b

    let num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    let[@inline] is_digit ch = ch >= '0' && ch <= '9'

    (* Eight ASCII digits at once (Lemire 2021, as in simdjson): [w]
       holds the bytes little-endian, first byte lowest. Every byte is a
       digit exactly when its high nibble is 3 and adding 6 keeps it 3;
       a byte past '9' or below '0' breaks one of the two, and a carry
       out of a byte only comes from a byte that already fails. *)
    let[@inline] eight_digits (w : int64) =
      let open Int64 in
      let hi = 0xF0F0_F0F0_F0F0_F0F0L in
      logor (logand w hi) (shift_right_logical (logand (add w 0x0606_0606_0606_0606L) hi) 4)
      = 0x3333_3333_3333_3333L

    (* Their value, with three multiplies: pairs, then quads, then the
       two quads. *)
    let[@inline] eight_digits_value (w : int64) =
      let open Int64 in
      let w = sub w 0x3030_3030_3030_3030L in
      let w = add (mul w 10L) (shift_right_logical w 8) in
      let mask = 0x0000_00FF_0000_00FFL in
      to_int
        (shift_right_logical
           (add
              (mul (logand w mask) 0x000F_4240_0000_0064L)
              (mul (logand (shift_right_logical w 16) mask) 0x0000_2710_0000_0001L))
           32)

    (* Consume the digit run at [i], folding its digits into [c.man] and
       [c.nsig] (the mantissa keeps the first 18 significant digits,
       [nsig] counts them all); returns where the run ends. Once a
       significant digit is in and eight more still fit, the run is read
       eight bytes at a time, never past [stop]: the bytes after a slice
       may be the next request. *)
    let digit_run c i =
      let s = c.s and n = c.stop in
      let i = ref i and man = ref c.man and nsig = ref c.nsig and chunks = ref true in
      while !i < n && is_digit (String.unsafe_get s !i) do
        if !chunks && !nsig > 0 && !nsig <= 10 && !i + 8 <= n then begin
          let w = String.get_int64_le s !i in
          if eight_digits w then begin
            man := (!man * 100_000_000) + eight_digits_value w;
            nsig := !nsig + 8;
            i := !i + 8
          end
          else (* a non-digit lies within the next eight bytes *)
            chunks := false
        end
        else begin
          let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
          if !nsig > 0 || d > 0 then begin
            incr nsig;
            if !nsig <= 18 then man := (!man * 10) + d
          end;
          incr i
        end
      done;
      c.man <- !man;
      c.nsig <- !nsig;
      !i

    (* A number token is the maximal run of [num_char]s, and its value is
       [float_of_string_opt] of that run. A run in the strict form
       -?d+(.d+)?([eE][+-]?d+)? with at most 18 significant digits and a
       decision from [eisel_lemire] never reaches strtod: both return the
       correctly rounded double. Anything else falls back to the
       substring, so the accepted set and every result stay exactly
       those of [float_of_string_opt]. The value goes straight into
       [dst.(k)], so the fast path allocates nothing. *)
    let number_into c dst k =
      skip_ws c;
      let s = c.s and n = c.stop in
      let start = c.pos in
      c.man <- 0;
      c.nsig <- 0;
      let neg = start < n && String.unsafe_get s start = '-' in
      let first = if neg then start + 1 else start in
      let i = ref (digit_run c first) and e10 = ref 0 in
      let strict = ref (!i > first) in
      if !strict && !i < n && String.unsafe_get s !i = '.' then begin
        let first = !i + 1 in
        i := digit_run c first;
        e10 := first - !i;
        strict := !i > first
      end;
      if !strict && !i < n && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
      then begin
        incr i;
        let eneg = !i < n && String.unsafe_get s !i = '-' in
        if eneg || (!i < n && String.unsafe_get s !i = '+') then incr i;
        let first = !i and e = ref 0 in
        while !i < n && is_digit (String.unsafe_get s !i) do
          (* Saturate: anything past 10^6 is out of table range. *)
          if !e < 1_000_000 then e := (!e * 10) + Char.code (String.unsafe_get s !i) - Char.code '0';
          incr i
        done;
        e10 := if eneg then !e10 - !e else !e10 + !e;
        strict := !i > first
      end;
      if !i < n && num_char (String.unsafe_get s !i) then strict := false;
      let v =
        if not !strict || c.nsig > 18 then nan
        else if c.nsig = 0 then 0.
        else eisel_lemire c.man !e10
      in
      if Float.is_nan v then begin
        while !i < n && num_char (String.unsafe_get s !i) do
          incr i
        done;
        c.pos <- !i;
        if !i = start then fail c "expected number";
        match float_of_string_opt (String.sub s start (!i - start)) with
        | Some v -> Float.Array.set dst k v
        | None -> fail c "malformed number"
      end
      else begin
        c.pos <- !i;
        Float.Array.set dst k (if neg then -.v else v)
      end

    let number c =
      number_into c c.num 0;
      Float.Array.unsafe_get c.num 0

    let literal c word v =
      let l = String.length word in
      if c.pos + l <= c.stop && String.sub c.s c.pos l = word then begin
        c.pos <- c.pos + l;
        v
      end
      else fail c ("expected " ^ word)

    let rec value c ~depth =
      match peek c with
      | _ when c.pos >= c.stop -> fail c "unexpected end of input"
      | ('{' | '[') when depth >= max_depth -> fail c "nesting too deep"
      | '{' ->
          advance c;
          if peek c = '}' then begin
            advance c;
            Obj []
          end
          else
            let rec members acc =
              let k = string c in
              expect c ':';
              let v = value c ~depth:(depth + 1) in
              match peek c with
              | ',' ->
                  advance c;
                  members ((k, v) :: acc)
              | '}' ->
                  advance c;
                  List.rev ((k, v) :: acc)
              | _ -> fail c "expected , or }"
            in
            Obj (members [])
      | '[' ->
          advance c;
          if peek c = ']' then begin
            advance c;
            List []
          end
          else
            let rec elements acc =
              let v = value c ~depth:(depth + 1) in
              match peek c with
              | ',' ->
                  advance c;
                  elements (v :: acc)
              | ']' ->
                  advance c;
                  List.rev (v :: acc)
              | _ -> fail c "expected , or ]"
            in
            List (elements [])
      | '"' -> String (string c)
      | 't' -> literal c "true" (Bool true)
      | 'f' -> literal c "false" (Bool false)
      | 'n' -> literal c "null" Null
      | _ -> Num (number c)
  end

  let parse s =
    let c = Cursor.make s in
    let v = Cursor.value c ~depth:0 in
    Cursor.finish c;
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_float = function Num v -> v | _ -> failwith "Json.to_float: not a number"

  (* Writer: the inverse of [parse] for every value this library
     produces. Numbers print with %.17g (integral floats render without
     a decimal point, so [to_int] round-trips); output is deterministic
     byte-for-byte — the checkpoint format relies on that for its
     byte-stability guarantee. *)
  let add_number = json_float

  let render v =
    let b = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool x -> Buffer.add_string b (if x then "true" else "false")
      | Num x -> json_float b x
      | String s ->
          Buffer.add_char b '"';
          json_escape b s;
          Buffer.add_char b '"'
      | List xs ->
          Buffer.add_char b '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char b ',';
              go x)
            xs;
          Buffer.add_char b ']'
      | Obj kvs ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_char b '"';
              json_escape b k;
              Buffer.add_string b "\":";
              go x)
            kvs;
          Buffer.add_char b '}'
    in
    go v;
    Buffer.contents b

  let to_int = function
    | Num v when Float.is_integer v -> int_of_float v
    | _ -> failwith "Json.to_int: not an integral number"

  let to_string = function String s -> s | _ -> failwith "Json.to_string: not a string"
end
