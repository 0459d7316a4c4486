(** Observability: metrics registry, span tracing and pluggable sinks.

    Training and Monte-Carlo evaluation runs emit structured telemetry
    through this module — per-epoch loss/lr/grad-norm records, draw
    throughput, pool utilization, per-grid-cell spans — so that the
    quantities the paper reports (runtime, accuracy under variation)
    are captured machine-readably on every run instead of being
    reconstructed from ad-hoc [Printf] lines.

    {b Sinks.} The compiled-in default is the null sink: {!enabled} is
    [false], {!emit} returns immediately and instrumented call sites
    skip even the construction of their field lists, so the hot paths
    allocate nothing. Installing a sink (usually the JSONL sink via
    {!with_jsonl}) turns every event into one self-describing record.

    {b Determinism contract.} Instrumentation is read-only: it never
    draws from any {!Pnc_util.Rng} stream and never feeds a measured
    value back into computation, so results are bit-identical whether
    a sink is installed or not (enforced by [test/test_obs.ml]).

    {b Threading.} {!emit} and the metric updates are safe to call
    from pool worker domains (the sink is mutex-protected, counters
    are atomic). {!Span} tracks nesting depth in the main domain only:
    open spans from the submitting domain, not from inside pool
    tasks. *)

(** {1 Events} *)

type value = Bool of bool | Int of int | Float of float | Str of string

type field = string * value
(** One key/value pair of an event record. *)

val enabled : unit -> bool
(** [true] iff a sink is installed. Instrumented call sites should
    guard field-list construction with this to keep the null-sink
    path allocation-free. *)

val emit : string -> field list -> unit
(** [emit name fields] sends one event to the installed sink, stamped
    with the monotonic time and a sequence number counting from 1 per
    installed sink (the record index within one telemetry stream). A
    no-op when no sink is installed. *)

(** {1 Sinks} *)

type sink = {
  write : t:float -> seq:int -> name:string -> field list -> unit;
  flush : unit -> unit;
}

val set_sink : sink option -> unit
(** Install ([Some]) or remove ([None], the null sink) the process
    sink. *)

val jsonl_sink : out_channel -> sink
(** A sink writing one JSON object per line:
    [{"t":<mono s>,"seq":<n>,"event":"<name>",...fields}].
    Non-finite floats are written as [null]. *)

val with_jsonl : path:string -> (unit -> 'a) -> 'a
(** [with_jsonl ~path f] runs [f] with a JSONL sink writing to [path],
    then flushes, closes and restores the null sink (also on
    exception). *)

val trace_stderr : bool ref
(** When set, every closing {!Span.with_} also prints one indented
    human-readable line to [stderr] (the [--trace] CLI flag). Works
    with or without a sink. *)

(** {1 Metrics registry}

    Named process-wide metrics, registered at creation. Updates are
    cheap (an atomic increment) and happen whether or not a sink is
    installed; {!emit_metrics} serializes the current values as
    events. *)

module Counter : sig
  type t

  val make : string -> t
  (** Create and register a monotonically increasing counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  (** Create and register a last-value-wins gauge. *)

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val make : string -> t
  (** Create and register a histogram over fixed log-scale buckets:
      bucket [i] counts observations in [[2^(i-33), 2^(i-32))] seconds
      (or any other unit), [i = 0 .. 63], with the extreme buckets
      absorbing under-/overflow. *)

  val observe : t -> float -> unit
  (** Safe to call from any domain: the bucket and the count are
      updated atomically and the sum under a mutex, so concurrent
      observers lose nothing. Allocates nothing but the boxed argument
      (when the caller's float is not already boxed). *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) array
  (** Non-empty buckets only, as [(upper_bound, count)] pairs in
      increasing bound order. *)
end

val metrics_snapshot : unit -> (string * field list) list
(** Current value of every registered metric, as the field lists that
    {!emit_metrics} would send. *)

val emit_metrics : unit -> unit
(** Emit one ["metric"] event per registered metric. *)

val reset_metrics : unit -> unit
(** Zero every registered metric (test isolation). *)

(** {1 Span tracing} *)

module Span : sig
  val with_ : ?attrs:field list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f] inside a named span. With a sink
      installed it emits a ["span.begin"] event, then a ["span.end"]
      event carrying the monotonic duration ([dur_s]), the nesting
      depth and [ok:false] if [f] raised (the exception is
      re-raised). With {!trace_stderr} it prints an indented line on
      close. With neither, it is exactly [f ()]. *)

  val depth : unit -> int
  (** Current nesting depth (0 outside any span). *)
end

(** {1 Minimal JSON (for reading telemetry back)} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val parse : string -> t
  (** Parse one complete JSON value. Raises [Failure] with a
      ["Json.parse: … at offset …"] message on malformed input or
      trailing garbage — every rejection goes through the parser's own
      [fail], so callers can rely on catching [Failure] alone.
      [\u] escapes must be exactly four hex digits ([0-9a-fA-F]);
      surrogate-range code points (U+D800–U+DFFF) are rejected, per the
      ASCII-telemetry contract (docs/OBSERVABILITY.md). Containers nest
      at most {!Cursor.max_depth} deep (["nesting too deep"]), so
      parsing runs in bounded stack whatever the input. Numbers are
      read by {!Cursor.number}. *)

  (** Streaming access to one JSON text: the lexer {!parse} is built
      on, for decoders that read a known shape straight into their own
      buffers instead of building a tree. Every operation first skips
      whitespace, and every rejection raises the same [Failure] as
      {!parse}. *)
  module Cursor : sig
    type json := t
    type t

    val max_depth : int
    (** [512]: the deepest container nesting {!value} accepts. *)

    val make : string -> t
    (** A cursor at the start of the text. *)

    val make_sub : string -> off:int -> len:int -> t
    (** A cursor over the text [String.sub s off len], read in place:
        it behaves exactly as [make] of that substring, error offsets
        included (they count from [off]). Raises [Invalid_argument]
        when the slice is out of bounds. *)

    val peek : t -> char
    (** The next non-whitespace byte, not consumed; ['\000'] at the end
        of the text. *)

    val advance : t -> unit
    (** Consume the byte {!peek} returned. *)

    val expect : t -> char -> unit
    (** Consume the next non-whitespace byte, which must be the given
        one. *)

    val string : t -> string
    (** Consume one string token and return its decoded contents. *)

    val number : t -> float
    (** Consume one number token: the maximal run of [0-9+-.eE] bytes,
        valued exactly as [float_of_string_opt] values that run (and
        rejected exactly when it returns [None]). Runs of the form
        [-?d+(.d+)?([eE][+-]?d+)?] with at most 18 significant digits
        are converted by the Eisel–Lemire algorithm over a 128-bit
        powers-of-five table, without allocating a substring; once a
        significant digit is read, their digits are taken eight at a
        time (one 64-bit load, a SWAR digit test and three multiplies),
        never reading past the end of the text. The rare run Eisel–Lemire
        cannot round with certainty, and every other run, falls back to
        [float_of_string_opt]. The result is boxed on return; a decoder
        that stores numbers uses {!number_into}. *)

    val number_into : t -> floatarray -> int -> unit
    (** [number_into c dst i] is [Float.Array.set dst i (number c)]
        without boxing the value: on the Eisel–Lemire path it allocates
        nothing. Raises [Invalid_argument] when [i] is out of bounds,
        with the token already consumed. *)

    val value : t -> depth:int -> json
    (** Consume one complete value enclosed in [depth] containers
        already opened by the caller; fails if it would nest deeper
        than {!max_depth}. *)

    val finish : t -> unit
    (** Require that only whitespace remains. *)

    val fail : t -> string -> 'a
    (** Raise {!parse}'s [Failure] for a syntax error at the cursor's
        offset. *)
  end

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] for other constructors. *)

  val to_float : t -> float
  (** [Num]; raises [Failure] otherwise. *)

  val to_int : t -> int
  (** [Num] with an integral value; raises [Failure] otherwise. *)

  val to_string : t -> string
  (** [String]; raises [Failure] otherwise. *)

  val add_number : Buffer.t -> float -> unit
  (** The number writer behind {!render}: a finite float as [%.17g]
      (byte for byte what [Printf.sprintf "%.17g"] gives, so it
      round-trips exactly), anything else as [null]. For writers that
      render a known shape straight into a buffer. *)

  val render : t -> string
  (** Serialize a value as compact JSON, the inverse of {!parse}.
      Deterministic byte-for-byte (object order is preserved, floats
      print with [%.17g] so they round-trip exactly); non-finite
      numbers render as [null] — keep them out of values that must
      round-trip (the checkpoint headers built on this writer store
      possibly-infinite floats in payload sections instead). *)
end
