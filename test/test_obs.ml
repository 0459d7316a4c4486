(* Observability layer tests (tentpole + satellite: PR 3).

   Three layers of coverage:
   - units: counters, gauges, histograms, span nesting, the JSON
     parser and the JSONL encoder (via an in-memory sink);
   - schema: a smoke-scale instrumented training + Monte-Carlo
     evaluation streamed to a real JSONL file, parsed back, with the
     record invariants asserted (monotone epochs, positive throughput,
     well-formed span nesting, consistent pool worker accounting);
   - determinism: the same pipeline run under the null sink and the
     JSONL sink produces bit-identical losses, parameters and MC
     estimates (eps 0) — instrumentation must never touch an Rng
     stream. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Obs = Pnc_obs.Obs
module Json = Pnc_obs.Obs.Json
module Registry = Pnc_data.Registry
module Dataset = Pnc_data.Dataset
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Mc_loss = Pnc_core.Mc_loss
module Variation = Pnc_core.Variation

(* In-memory sink for unit tests: records (name, fields) in order. *)
let with_memory_sink f =
  let events = ref [] in
  let sink =
    {
      Obs.write = (fun ~t:_ ~seq:_ ~name fields -> events := (name, fields) :: !events);
      flush = ignore;
    }
  in
  Obs.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> Obs.set_sink None) f;
  List.rev !events

(* Units -------------------------------------------------------------------- *)

let test_counter () =
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c)

let test_gauge () =
  let g = Obs.Gauge.make "test.gauge" in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.)) "set/get" 2.5 (Obs.Gauge.value g)

let test_histogram () =
  let h = Obs.Histogram.make "test.histogram" in
  Obs.Histogram.observe h 0.75;
  Obs.Histogram.observe h 3.0;
  Obs.Histogram.observe h 3.9;
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum" 7.65 (Obs.Histogram.sum h);
  (* 0.75 lands in the bucket with upper bound 2^0; 3.0 and 3.9 in the
     one with upper bound 2^2. *)
  let buckets = Obs.Histogram.buckets h in
  Alcotest.(check int) "two non-empty buckets" 2 (Array.length buckets);
  let ub0, c0 = buckets.(0) and ub1, c1 = buckets.(1) in
  Alcotest.(check (float 0.)) "first bucket ub" 1. ub0;
  Alcotest.(check int) "first bucket count" 1 c0;
  Alcotest.(check (float 0.)) "second bucket ub" 4. ub1;
  Alcotest.(check int) "second bucket count" 2 c1

(* Observers on four domains at once: every observation lands. The
   values are powers of two, so each partial sum is exact and any lost
   update shows as a wrong total. *)
let test_histogram_across_domains () =
  let h = Obs.Histogram.make "test.histogram_domains" in
  let per_domain = 10_000 in
  let values = [| 0.25; 0.5; 1.; 2. |] in
  let go = Atomic.make false in
  let domains =
    Array.map
      (fun v ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for _ = 1 to per_domain do
              Obs.Histogram.observe h v
            done))
      values
  in
  Atomic.set go true;
  Array.iter Domain.join domains;
  Alcotest.(check int) "count" (4 * per_domain) (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "sum" (float_of_int per_domain *. 3.75) (Obs.Histogram.sum h);
  Alcotest.(check (array (pair (float 0.) int)))
    "one bucket per value"
    (Array.map (fun v -> (2. *. v, per_domain)) values)
    (Obs.Histogram.buckets h)

let test_enabled_flag () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  let events = with_memory_sink (fun () -> Alcotest.(check bool) "enabled inside" true (Obs.enabled ())) in
  Alcotest.(check bool) "disabled after" false (Obs.enabled ());
  Alcotest.(check int) "no spurious events" 0 (List.length events)

let test_emit_routing () =
  let events =
    with_memory_sink (fun () -> Obs.emit "hello" [ ("x", Obs.Int 1); ("y", Obs.Str "z") ])
  in
  match events with
  | [ ("hello", [ ("x", Obs.Int 1); ("y", Obs.Str "z") ]) ] -> ()
  | _ -> Alcotest.fail "unexpected event stream"

let test_span_nesting_and_exceptions () =
  let events =
    with_memory_sink (fun () ->
        Obs.Span.with_ "outer" (fun () ->
            Alcotest.(check int) "depth inside outer" 1 (Obs.Span.depth ());
            Obs.Span.with_ "inner" (fun () ->
                Alcotest.(check int) "depth inside inner" 2 (Obs.Span.depth ()));
            (try Obs.Span.with_ "boom" (fun () -> failwith "expected") with Failure _ -> ());
            Alcotest.(check int) "depth restored after raise" 1 (Obs.Span.depth ())))
  in
  Alcotest.(check int) "depth zero outside" 0 (Obs.Span.depth ());
  let names = List.map fst events in
  Alcotest.(check (list string)) "event order"
    [ "span.begin"; "span.begin"; "span.end"; "span.begin"; "span.end"; "span.end" ]
    names;
  (* The failed span reports ok=false; the others ok=true. *)
  let oks =
    List.filter_map
      (fun (name, fields) ->
        if name = "span.end" then
          match List.assoc_opt "ok" fields with Some (Obs.Bool b) -> Some b | _ -> None
        else None)
      events
  in
  Alcotest.(check (list bool)) "ok flags" [ true; false; true ] oks

let test_metrics_snapshot () =
  let c = Obs.Counter.make "test.snapshot_counter" in
  Obs.Counter.add c 7;
  let snap = Obs.metrics_snapshot () in
  match List.assoc_opt "test.snapshot_counter" snap with
  | Some fields ->
      (match List.assoc_opt "value" fields with
      | Some (Obs.Int 7) -> ()
      | _ -> Alcotest.fail "snapshot value wrong")
  | None -> Alcotest.fail "metric not registered"

(* JSON parser -------------------------------------------------------------- *)

let test_json_parse () =
  let j = Json.parse {|{"a":[1,2.5,-3e2],"b":"x\n\"","c":true,"d":null,"e":{}}|} in
  (match Json.member "a" j with
  | Some (Json.List [ x; y; z ]) ->
      Alcotest.(check (float 0.)) "int" 1. (Json.to_float x);
      Alcotest.(check (float 0.)) "float" 2.5 (Json.to_float y);
      Alcotest.(check (float 0.)) "exp" (-300.) (Json.to_float z)
  | _ -> Alcotest.fail "array member");
  (match Json.member "b" j with
  | Some s -> Alcotest.(check string) "escapes" "x\n\"" (Json.to_string s)
  | None -> Alcotest.fail "string member");
  (match Json.member "c" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "bool member");
  (match Json.member "d" j with Some Json.Null -> () | _ -> Alcotest.fail "null member");
  (match Json.member "e" j with Some (Json.Obj []) -> () | _ -> Alcotest.fail "empty object")

let test_json_rejects_garbage () =
  let bad s = match Json.parse s with exception Failure _ -> true | _ -> false in
  Alcotest.(check bool) "trailing garbage" true (bad {|{"a":1} x|});
  Alcotest.(check bool) "unterminated" true (bad {|{"a|});
  Alcotest.(check bool) "bare word" true (bad "frob")

(* \u escape decoding, fuzzed against a reference decoder ------------------

   The parser used to feed the four escape characters to
   [int_of_string ("0x" ^ hex)], which (a) raised an untyped [Failure
   "int_of_string"] without the parser's offset context on any non-hex
   input like \uZZZZ, and (b) silently accepted OCaml integer-literal
   underscores inside the digits (\u00_9 decoded as \u0009). The
   reference decoder below defines the contract: exactly four hex
   digits, surrogate range rejected, everything else decoded as
   minimal UTF-8. *)

let reference_decode_u (quad : string) : string option =
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec code i acc =
    if i = 4 then Some acc
    else match hex quad.[i] with None -> None | Some d -> code (i + 1) ((acc * 16) + d)
  in
  match code 0 0 with
  | None -> None
  | Some c when c >= 0xD800 && c <= 0xDFFF -> None
  | Some c when c < 0x80 -> Some (String.make 1 (Char.chr c))
  | Some c when c < 0x800 ->
      Some
        (Printf.sprintf "%c%c"
           (Char.chr (0xC0 lor (c lsr 6)))
           (Char.chr (0x80 lor (c land 0x3F))))
  | Some c ->
      Some
        (Printf.sprintf "%c%c%c"
           (Char.chr (0xE0 lor (c lsr 12)))
           (Char.chr (0x80 lor ((c lsr 6) land 0x3F)))
           (Char.chr (0x80 lor (c land 0x3F))))

let escape_quad_gen : string Qgen.gen =
  (* Mix of clean hex quads (most draws) and quads salted with the
     characters that historically slipped through or crashed the
     parser: '_' separators, letters past 'f', punctuation. *)
  let open Qgen in
  let hex_char = oneof [ '0'; '5'; '9'; 'a'; 'c'; 'f'; 'A'; 'D'; 'F' ] in
  let salt_char = oneof [ '_'; 'g'; 'z'; 'Z'; 'x'; '+'; '-'; ' '; 'o' ] in
  let ch = bind bool (fun clean -> if clean then hex_char else salt_char) in
  bind (int_range 0 3) (fun salted ->
      map
        (fun cs -> String.init 4 (fun i -> List.nth cs i))
        (list_of ~len:(return 4) (if salted = 0 then ch else hex_char)))

let test_json_u_escape_fuzz () =
  Qgen.check ~count:300 ~name:"\\u escapes vs reference decoder"
    ~pp:(fun q -> Printf.sprintf "\\u%s" q)
    escape_quad_gen
    (fun quad ->
      let input = Printf.sprintf "\"\\u%s\"" quad in
      match (Json.parse input, reference_decode_u quad) with
      | Json.String s, Some expect -> s = expect
      | _, Some _ -> false (* decoded to a non-string?! *)
      | exception Failure msg ->
          (* Rejection must be the parser's typed fail (offset-stamped
             message), never a bare int_of_string Failure. *)
          reference_decode_u quad = None
          && String.length msg >= 11
          && String.sub msg 0 11 = "Json.parse:"
      | _, None -> false)

let test_json_u_escape_cases () =
  let decodes input expect =
    match Json.parse input with
    | Json.String s -> Alcotest.(check string) input expect s
    | _ -> Alcotest.failf "%s: not a string" input
  in
  let rejected input =
    match Json.parse input with
    | exception Failure msg ->
        Alcotest.(check bool)
          (input ^ " rejected via parser fail")
          true
          (String.length msg >= 11 && String.sub msg 0 11 = "Json.parse:")
    | _ -> Alcotest.failf "%s: accepted" input
  in
  decodes {|"\u0041"|} "A";
  decodes {|"\u007f"|} "\x7f";
  decodes {|"\u0080"|} "\xc2\x80";
  decodes {|"\u07ff"|} "\xdf\xbf";
  decodes {|"\u0800"|} "\xe0\xa0\x80";
  decodes {|"\uFFFF"|} "\xef\xbf\xbf";
  decodes {|"\ud7FF"|} "\xed\x9f\xbf";
  decodes {|"\ue000"|} "\xee\x80\x80";
  rejected {|"\uZZZZ"|};
  rejected {|"\u00_9"|};
  (* '_' was silently accepted by int_of_string *)
  rejected {|"\u 041"|};
  rejected {|"\u0x41"|};
  rejected {|"\ud800"|};
  (* surrogate range: deterministic rejection *)
  rejected {|"\udfff"|};
  rejected {|"\u00"|}
  (* truncated *)

(* JSONL round-trip --------------------------------------------------------- *)

let read_jsonl path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (Json.parse line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Number lexer vs float_of_string_opt ----------------------------------

   [Json.parse] reads every number through [Json.Cursor.number]:
   Eisel–Lemire for strict tokens of at most 18 significant digits,
   [float_of_string_opt] of the token for everything else. The split
   must be invisible: over the number alphabet [0-9+-.eE], [Json.parse s]
   is [Num v] exactly when [float_of_string_opt s = Some v], bit for
   bit, and fails exactly when that is [None]. *)

let lexed s =
  match Json.parse s with
  | Json.Num v -> Some v
  | _ -> Alcotest.failf "%S parsed to a non-number" s
  | exception Failure _ -> None

let same_result = function
  | None, None -> true
  | Some a, Some b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | _ -> false

let same_as_strtod s = same_result (lexed s, float_of_string_opt s)

(* The token read from a cursor over a slice of a longer string that
   goes on with more digits (and starts with some): the lexer must stop
   at the slice end, however many digits lie behind it. Read once with
   [Cursor.number] and once with [Cursor.number_into]. *)
let sliced_same_as_strtod tok =
  let s = "98" ^ tok ^ "1234567890123456789" in
  let read get =
    let c = Json.Cursor.make_sub s ~off:2 ~len:(String.length tok) in
    match
      let v = get c in
      Json.Cursor.finish c;
      v
    with
    | v -> Some v
    | exception Failure _ -> None
  in
  let into c =
    let dst = Float.Array.make 3 nan in
    Json.Cursor.number_into c dst 1;
    Float.Array.get dst 1
  in
  let expect = float_of_string_opt tok in
  same_result (read Json.Cursor.number, expect) && same_result (read into, expect)

let number_corpus =
  [
    "0"; "-0"; "+5"; "1."; ".5"; "00012"; "-00012.50"; "9007199254740993"; "9007199254740992.5";
    "4.9406564584124654e-324"; "5e-324"; "2e-324"; "2.2250738585072011e-308";
    "2.2250738585072014e-308"; "1.7976931348623157e308"; "1.7976931348623159e308"; "1e400";
    "-1e400"; "1e-400"; "0e999999999999999999999"; "0.0000e-5"; "1e308"; "1e309"; "1e-342";
    "1e-343"; "0.1"; "0.3"; "1e22"; "1e23"; "1e-22"; "123e-2"; "8.98846567431158e307";
    "123456789012345678"; "1234567890123456789"; "12345678901234567890123";
    "1.00000000000000011102230246251565404236316680908203125";
    "1.00000000000000011102230246251565404236316680908203126"; "7.2057594037927933e16";
    "0.84147098480789650"; "-3.1415926535897931e-05"; ""; "-"; "+"; "."; "e5"; "E5"; "1e";
    "1e+"; "1e-"; "--1"; "+-1"; "1..2"; "1.2.3"; "1e5e5"; "1e5.5"; "12-3"; "1+2"; "-.5";
    "-5."; ".e1"; "1.e1"; "0.e-0"; "1E+0"; "-1E-0"; "12345678"; "1234567812345678";
    "12345678123456781"; "123456781234567812"; "1234567812345678123"; "0.000000001234567890123";
    "00000000000000000012345678901234567"; "1.2345678e-5"; "9999999999999999.99"; "1234567:9";
    "12345678/"; "1234567/8"; "1.23456789012345678e300";
  ]

let test_number_corpus () =
  List.iter
    (fun s ->
      if not (same_as_strtod s && sliced_same_as_strtod s) then
        Alcotest.failf "%S: lexer %s, float_of_string_opt %s" s
          (match lexed s with Some v -> Printf.sprintf "%h" v | None -> "rejects")
          (match float_of_string_opt s with Some v -> Printf.sprintf "%h" v | None -> "rejects"))
    number_corpus

(* Random doubles at three precisions, random digit strings of 1-25
   digits with exponents in +-350 (past both ends of the 5^q table and
   of the 18-digit fast path), and random runs of the number alphabet. *)
let number_strings_gen =
  let open QCheck.Gen in
  let from_bits =
    let* bits = ui64 in
    let v = Int64.float_of_bits bits in
    let v = if Float.is_finite v then v else Float.of_int (Int64.to_int bits) in
    let* fmt = oneofl [ `G17; `G15; `E3 ] in
    return
      (match fmt with
      | `G17 -> Printf.sprintf "%.17g" v
      | `G15 -> Printf.sprintf "%.15g" v
      | `E3 -> Printf.sprintf "%.3e" v)
  in
  let digit_string =
    let* digits = string_size ~gen:(char_range '0' '9') (int_range 1 25) in
    let* point = int_range 0 (String.length digits) in
    let* sign = oneofl [ ""; "-" ] in
    let* exp = oneof [ return ""; map (Printf.sprintf "e%d") (int_range (-350) 350) ] in
    let n = String.length digits in
    let mantissa =
      if point = n then digits else String.sub digits 0 point ^ "." ^ String.sub digits point (n - point)
    in
    return (sign ^ mantissa ^ exp)
  in
  let alphabet_run = string_size ~gen:(oneofl (List.of_seq (String.to_seq "0123456789+-.eE"))) (int_range 1 10) in
  (* The lexer's eight-digits-at-a-time path: runs of exactly 8, 16,
     17, 18 and 19 significant digits (the chunk boundaries and both
     sides of the 18-digit limit), behind up to 20 leading zeros (so
     zeros span a chunk), with the point anywhere in the run. *)
  let chunked =
    let* nsig = oneofl [ 8; 16; 17; 18; 19 ] in
    let* lead = string_size ~gen:(char_range '1' '9') (return 1) in
    let* rest = string_size ~gen:(char_range '0' '9') (return (nsig - 1)) in
    let* zeros = int_range 0 20 in
    let digits = String.make zeros '0' ^ lead ^ rest in
    let n = String.length digits in
    let* point = int_range 0 n in
    let* sign = oneofl [ ""; "-" ] in
    let* exp = oneof [ return ""; map (Printf.sprintf "e%d") (int_range (-30) 30) ] in
    let mantissa =
      if point = n then digits
      else if point = 0 then "0." ^ digits
      else String.sub digits 0 point ^ "." ^ String.sub digits point (n - point)
    in
    return (sign ^ mantissa ^ exp)
  in
  frequency [ (4, from_bits); (4, digit_string); (1, alphabet_run); (4, chunked) ]

let prop_number_lexer =
  QCheck.Test.make ~count:20_000 ~name:"number lexer = float_of_string_opt, bit for bit"
    (QCheck.make ~print:(Printf.sprintf "%S") number_strings_gen)
    (fun s -> same_as_strtod s && sliced_same_as_strtod s)

(* The shared number writer calls the C primitive behind [Printf]
   directly; its bytes must be exactly [Printf.sprintf "%.17g"]'s, and
   non-finite values render as [null]. Doubles from random bit
   patterns (normal and subnormal, both signs), small and large
   integers, and the extremes. *)
let number_writer_gen =
  let open QCheck.Gen in
  let from_bits = map Int64.float_of_bits ui64 in
  let subnormal = map (fun m -> Int64.float_of_bits (Int64.logand m 0x800F_FFFF_FFFF_FFFFL)) ui64 in
  let integer = map Float.of_int (oneof [ int_range (-1_000_000) 1_000_000; int ]) in
  let extreme =
    oneofl
      [ 0.; -0.; Float.min_float; -.Float.min_float; Float.max_float; -.Float.max_float;
        Float.epsilon; 4.9406564584124654e-324; -4.9406564584124654e-324; 1e22; 1e23;
        9007199254740993.; Float.infinity; Float.neg_infinity; Float.nan ]
  in
  frequency [ (4, from_bits); (2, subnormal); (2, integer); (1, extreme) ]

let prop_number_writer =
  QCheck.Test.make ~count:20_000 ~name:"add_number = Printf %.17g, byte for byte"
    (QCheck.make ~print:(Printf.sprintf "%h") number_writer_gen)
    (fun v ->
      let b = Buffer.create 32 in
      Json.add_number b v;
      Buffer.contents b = if Float.is_finite v then Printf.sprintf "%.17g" v else "null")

(* A cursor over a slice reads only the slice, and fails exactly as a
   cursor over the copied substring would, offsets included. *)
let test_cursor_slice () =
  let outcome c =
    match
      let v = Json.Cursor.value c ~depth:0 in
      Json.Cursor.finish c;
      v
    with
    | v -> Ok v
    | exception Failure msg -> Error msg
  in
  List.iter
    (fun text ->
      List.iter
        (fun (pre, post) ->
          let s = pre ^ text ^ post in
          let sliced =
            outcome (Json.Cursor.make_sub s ~off:(String.length pre) ~len:(String.length text))
          in
          if sliced <> outcome (Json.Cursor.make text) then
            Alcotest.failf "slice of %S between %S and %S decodes differently" text pre post)
        [ ("", ""); ("[1,", "]"); ("xx", "1e5"); ("\"", "\"") ])
    [ "[1,2.5,-3e2]"; {|{"a":"b"}|}; "12"; "1"; "[1,"; "tru"; "nul"; {|"open|}; "  "; "" ];
  match Json.Cursor.make_sub "abc" ~off:2 ~len:2 with
  | _ -> Alcotest.fail "out-of-bounds slice accepted"
  | exception Invalid_argument _ -> ()

(* Depth cap: containers nest at most Cursor.max_depth deep, so a body of
   4 MiB of '[' fails fast at a fixed offset instead of recursing once
   per byte. *)
let test_json_depth_cap () =
  let d = Json.Cursor.max_depth in
  let nested_lists k = String.make k '[' ^ String.make k ']' in
  let nested_objects k = String.concat "" (List.init k (fun _ -> {|{"a":|})) ^ "1" ^ String.make k '}' in
  let fails_with s expect =
    match Json.parse s with
    | _ -> Alcotest.failf "accepted %d bytes nested too deep" (String.length s)
    | exception Failure msg -> Alcotest.(check string) "typed depth failure" expect msg
  in
  (match Json.parse (nested_lists d) with
  | Json.List [ _ ] -> ()
  | _ -> Alcotest.fail "depth max_depth lists");
  (match Json.parse (nested_objects d) with
  | Json.Obj [ _ ] -> ()
  | _ -> Alcotest.fail "depth max_depth objects");
  fails_with (nested_lists (d + 1)) (Printf.sprintf "Json.parse: nesting too deep at offset %d" d);
  fails_with (nested_objects (d + 1))
    (Printf.sprintf "Json.parse: nesting too deep at offset %d" (5 * d));
  fails_with (String.make (4 * 1024 * 1024) '[')
    (Printf.sprintf "Json.parse: nesting too deep at offset %d" d)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "pnc_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.with_jsonl ~path (fun () ->
          Obs.emit "alpha"
            [
              ("i", Obs.Int (-3));
              ("f", Obs.Float 1.5);
              ("nan", Obs.Float Float.nan);
              ("inf", Obs.Float Float.infinity);
              ("s", Obs.Str "quote\" newline\n tab\t");
              ("b", Obs.Bool false);
            ];
          Obs.emit "beta" []);
      match read_jsonl path with
      | [ a; b ] ->
          (match Json.member "event" a with
          | Some e -> Alcotest.(check string) "event name" "alpha" (Json.to_string e)
          | None -> Alcotest.fail "missing event");
          (match Json.member "seq" a with
          | Some s -> Alcotest.(check int) "first seq" 1 (Json.to_int s)
          | None -> Alcotest.fail "missing seq");
          (match Json.member "i" a with
          | Some v -> Alcotest.(check int) "int field" (-3) (Json.to_int v)
          | None -> Alcotest.fail "missing i");
          (match Json.member "f" a with
          | Some v -> Alcotest.(check (float 0.)) "float field" 1.5 (Json.to_float v)
          | None -> Alcotest.fail "missing f");
          (* Non-finite floats are encoded as null (JSON has no nan). *)
          (match (Json.member "nan" a, Json.member "inf" a) with
          | Some Json.Null, Some Json.Null -> ()
          | _ -> Alcotest.fail "non-finite floats must encode as null");
          (match Json.member "s" a with
          | Some v -> Alcotest.(check string) "string escapes" "quote\" newline\n tab\t" (Json.to_string v)
          | None -> Alcotest.fail "missing s");
          (match Json.member "b" a with
          | Some (Json.Bool false) -> ()
          | _ -> Alcotest.fail "bool field");
          (match Json.member "seq" b with
          | Some s -> Alcotest.(check int) "second seq" 2 (Json.to_int s)
          | None -> Alcotest.fail "missing seq on beta")
      | l -> Alcotest.failf "expected 2 records, got %d" (List.length l))

(* Instrumented pipeline: bit-parity and schema ----------------------------- *)

type pipeline_result = {
  history : Train.history;
  params : T.t list;
  mc : float;
  var_acc : float;
}

(* One deterministic smoke pipeline: train a small ADAPT net, then a
   pooled MC loss estimate and a pooled accuracy-under-variation pass.
   Everything is freshly seeded, so two invocations must agree bit for
   bit no matter which sink is installed. *)
let run_pipeline () =
  let raw = Registry.load ~seed:5 ~n:40 "GPOVY" in
  let split = Dataset.preprocess (Rng.create ~seed:6) raw in
  let net =
    Network.create ~hidden:3 (Rng.create ~seed:7) Network.Adapt ~inputs:1
      ~classes:raw.Dataset.n_classes
  in
  let model = Model.Circuit net in
  let cfg = { Train.smoke_config with Train.max_epochs = 6; patience = 3 } in
  let history = Train.train ~rng:(Rng.create ~seed:8) cfg model split in
  let spec = Variation.uniform 0.1 in
  Pool.with_pool ~size:2 (fun pool ->
      let x, labels = Train.to_xy split.Dataset.test in
      let mc =
        Mc_loss.expected_value ~pool ~rng:(Rng.create ~seed:9) ~spec ~n:8 model ~x ~labels
      in
      let var_acc =
        Train.accuracy_under_variation ~pool ~rng:(Rng.create ~seed:10) ~spec ~draws:6 model
          split.Dataset.test
      in
      {
        history;
        params = List.map (fun p -> T.copy (Var.value p)) (Model.params model);
        mc;
        var_acc;
      })

let check_parity a b =
  Alcotest.(check int) "epochs_run" a.history.Train.epochs_run b.history.Train.epochs_run;
  Alcotest.(check bool) "train curve bit-identical" true
    (a.history.Train.train_loss_curve = b.history.Train.train_loss_curve);
  Alcotest.(check bool) "val curve bit-identical" true
    (a.history.Train.val_loss_curve = b.history.Train.val_loss_curve);
  List.iter2
    (fun p q -> Alcotest.(check bool) "params bit-identical" true (T.equal_eps ~eps:0. p q))
    a.params b.params;
  Alcotest.(check bool) "mc estimate bit-identical" true (a.mc = b.mc);
  Alcotest.(check bool) "variation accuracy bit-identical" true (a.var_acc = b.var_acc)

let num_field record key =
  match Json.member key record with
  | Some v -> Json.to_float v
  | None -> Alcotest.failf "record missing field %s" key

let str_field record key =
  match Json.member key record with
  | Some v -> Json.to_string v
  | None -> Alcotest.failf "record missing field %s" key

let events_named records name =
  List.filter (fun r -> str_field r "event" = name) records

let check_schema records =
  Alcotest.(check bool) "stream non-empty" true (records <> []);
  (* Every record is self-describing: t, strictly increasing seq, event. *)
  let last_seq = ref 0 in
  List.iter
    (fun r ->
      let seq = int_of_float (num_field r "seq") in
      Alcotest.(check bool) "seq strictly increasing" true (seq > !last_seq);
      last_seq := seq;
      Alcotest.(check bool) "t finite" true (Float.is_finite (num_field r "t"));
      ignore (str_field r "event"))
    records;
  (* Epoch records: epoch strictly increasing from 1, fields sane. *)
  let epochs = events_named records "train.epoch" in
  Alcotest.(check bool) "has epoch records" true (epochs <> []);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "epoch numbering" (i + 1) (int_of_float (num_field r "epoch"));
      Alcotest.(check bool) "epoch seconds >= 0" true (num_field r "seconds" >= 0.);
      Alcotest.(check bool) "lr positive" true (num_field r "lr" > 0.);
      Alcotest.(check bool) "grad norm finite" true (Float.is_finite (num_field r "grad_norm")))
    epochs;
  (match events_named records "train.done" with
  | [ d ] ->
      Alcotest.(check int) "train.done epochs = #epoch records" (List.length epochs)
        (int_of_float (num_field d "epochs_run"))
  | l -> Alcotest.failf "expected exactly one train.done, got %d" (List.length l));
  (* Throughput records are positive wherever emitted. *)
  let throughputs =
    events_named records "mc.eval" @ events_named records "eval.variation"
  in
  Alcotest.(check bool) "has throughput records" true (throughputs <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "draws positive" true (num_field r "draws" > 0.);
      Alcotest.(check bool) "draws/s positive" true (num_field r "draws_per_s" > 0.))
    throughputs;
  (* Span discipline: begin/end alternate like a well-formed bracket
     sequence, names and depths matching. *)
  let stack = ref [] in
  List.iter
    (fun r ->
      match str_field r "event" with
      | "span.begin" ->
          let name = str_field r "span" and d = int_of_float (num_field r "depth") in
          Alcotest.(check int) "begin depth = stack size" (List.length !stack) d;
          stack := name :: !stack
      | "span.end" -> (
          let name = str_field r "span" and d = int_of_float (num_field r "depth") in
          Alcotest.(check bool) "end dur >= 0" true (num_field r "dur_s" >= 0.);
          match !stack with
          | top :: rest ->
              Alcotest.(check string) "end matches innermost begin" top name;
              Alcotest.(check int) "end depth" (List.length rest) d;
              stack := rest
          | [] -> Alcotest.fail "span.end without begin")
      | _ -> ())
    records;
  Alcotest.(check int) "all spans closed" 0 (List.length !stack);
  (* Pool accounting: worker task counts sum to the shutdown total. *)
  (match events_named records "pool.shutdown" with
  | [] -> Alcotest.fail "expected a pool.shutdown record"
  | shutdowns ->
      let workers = events_named records "pool.worker" in
      let worker_sum =
        List.fold_left (fun acc r -> acc + int_of_float (num_field r "tasks")) 0 workers
      in
      let totals =
        List.fold_left (fun acc r -> acc + int_of_float (num_field r "tasks_total")) 0 shutdowns
      in
      Alcotest.(check int) "worker tasks sum to pool total" totals worker_sum);
  (* The final metrics snapshot is present and self-consistent. *)
  let metrics = events_named records "metric" in
  Alcotest.(check bool) "has metrics snapshot" true (metrics <> []);
  match List.find_opt (fun r -> str_field r "name" = "train.epochs") metrics with
  | Some m ->
      Alcotest.(check bool) "train.epochs counter >= epoch records" true
        (int_of_float (num_field m "value") >= List.length epochs)
  | None -> Alcotest.fail "train.epochs metric missing from snapshot"

let test_pipeline_parity_and_schema () =
  let baseline = run_pipeline () in
  let path = Filename.temp_file "pnc_obs_schema" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let instrumented =
        Obs.with_jsonl ~path (fun () ->
            let r = run_pipeline () in
            Obs.emit_metrics ();
            r)
      in
      (* Determinism: the sink must not perturb a single bit. *)
      check_parity baseline instrumented;
      (* And once more under the null sink, after the instrumented run. *)
      check_parity baseline (run_pipeline ());
      check_schema (read_jsonl path))

let () =
  Alcotest.run "pnc_obs"
    [
      ( "units",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
          Alcotest.test_case "histogram across 4 domains" `Quick test_histogram_across_domains;
          Alcotest.test_case "enabled flag" `Quick test_enabled_flag;
          Alcotest.test_case "emit routing" `Quick test_emit_routing;
          Alcotest.test_case "span nesting + exceptions" `Quick test_span_nesting_and_exceptions;
          Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "\\u escape fuzz" `Quick test_json_u_escape_fuzz;
          Alcotest.test_case "\\u escape cases" `Quick test_json_u_escape_cases;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "number lexer corpus" `Quick test_number_corpus;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]) prop_number_lexer;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) prop_number_writer;
          Alcotest.test_case "cursor over a slice" `Quick test_cursor_slice;
          Alcotest.test_case "nesting depth cap" `Quick test_json_depth_cap;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "bit-parity + schema" `Quick test_pipeline_parity_and_schema;
        ] );
    ]
