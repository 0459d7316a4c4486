(** Evaluation options and batch-size resolution for the batched
    no-grad evaluation path.

    Every no-grad forward takes one {!opts} record. Its [batch_size] is
    resolved here: an explicit value wins, otherwise the
    [ADAPT_PNC_BATCH] environment variable (a positive integer),
    otherwise the whole split runs as one block. *)

val env_default : unit -> int option
(** [ADAPT_PNC_BATCH] parsed as a positive block size, if set. A set
    but malformed value (not a positive integer) resolves to [None] and
    prints one warning per process to [stderr] instead of being
    silently indistinguishable from "unset". *)

val resolve : ?batch_size:int -> n:int -> unit -> int
(** Effective block size for a batch of [n] rows: [batch_size] if
    given, else {!env_default}, else [n]; clamped to [1, max 1 n].
    An explicit non-positive [batch_size] is a caller error and raises
    [Invalid_argument] (the environment fallback still degrades
    silently — only the explicit argument is rejected). *)

type precision = [ `Exact | `Fast ]
(** Activation tier for the batched no-grad kernels. [`Exact] is
    [Stdlib.tanh] — bit-identical to the autodiff path. [`Fast] is
    {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh error). *)

val precision_name : precision -> string
(** ["exact"] / ["fast"] — the wire/CLI spelling. *)

val precision_of_string : string -> precision option
(** Case-insensitive inverse of {!precision_name}. *)

val precision_env_default : unit -> precision option
(** [ADAPT_PNC_PRECISION] parsed as a tier, if set. A set but malformed
    value resolves to [None] with one warning per process on
    [stderr]. *)

val resolve_precision : ?precision:precision -> unit -> precision
(** Entry-point resolution: explicit argument, else
    {!precision_env_default}, else [`Exact]. Unlike the batch-size
    knob, precision can change results, so ONLY entry points (CLI,
    serve, bench, [Config.from_env]) may consult the environment —
    library functions default to [`Exact] unconditionally, and every
    Fast run is recorded in {!Pnc_exp.Config.fingerprint}. *)

type readout = Integrated | Last_step
(** [Integrated] (the default) time-averages the output voltages —
    physically an RC integrator per class output; [Last_step] reads the
    final instant only (the read-out ablation). *)

type families = { crossbar : bool; filter : bool; activation : bool }
(** Which component families take the variation draw; the others are
    realized nominal ({!Variation.deterministic}). *)

val all_families : families

type opts = {
  batch_size : int option;
      (** rows per kernel call, resolved by {!resolve}. The draw is
          realized once per forward and shared across blocks, and every
          kernel is row-independent, so [batch_size] never changes the
          result (enforced by test/test_batch.ml). It is therefore
          deliberately excluded from {!Pnc_exp.Config.fingerprint}. *)
  precision : precision;  (** activation tier; library default [`Exact] *)
  state_init : Filter_layer.state_init;
      (** filter initial voltages (default [`V0]); pre-drawn for the
          full batch, so block-size invariant under every value *)
  readout : readout;
  varied : families;
}
(** Options of one no-grad evaluation. Models without a component
    (the reference RNN has no filters, no draw and a fixed read-out)
    ignore the fields that do not apply. *)

val default : opts
(** [{ batch_size = None; precision = `Exact; state_init = `V0;
    readout = Integrated; varied = all_families }]. *)

val blocked :
  opts ->
  rows:int ->
  cols:int ->
  (row:int -> len:int -> Pnc_tensor.Tensor.t) ->
  Pnc_tensor.Tensor.t
(** [blocked opts ~rows ~cols f] runs one batched forward: [f] computes
    the [len x cols] result of each consecutive row block (of
    {!resolve}d size; the final block may be ragged), which is written
    into those rows of the [rows x cols] output. Bumps the
    [eval.batch.samples] / [eval.batch.blocks] counters and, with an
    enabled sink, observes [eval.batch_seconds] and emits an
    [eval.batch] event with the throughput. *)
