(** Evaluation options of the batched no-grad evaluation path.

    An evaluation realizes a circuit instance once under its variation
    draw ({!Network.realize}, {!Model.realize}); every no-grad forward
    on that instance takes one {!opts} record and runs the whole input
    as one block. *)

type precision = [ `Exact | `Fast ]
(** Activation tier for the batched no-grad kernels. [`Exact] is
    [Stdlib.tanh] — bit-identical to the autodiff path. [`Fast] is
    {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh error). *)

val precision_name : precision -> string
(** ["exact"] / ["fast"] — the wire/CLI spelling. *)

val precision_of_string : string -> precision option
(** Case-insensitive inverse of {!precision_name}. *)

val entry_precision : ?precision:precision -> unit -> precision
(** Entry-point resolution: explicit argument, else the
    [ADAPT_PNC_PRECISION] environment variable, else [`Exact]. A set
    but malformed variable resolves to [`Exact] with one warning per
    process on [stderr]. Precision can change results, so ONLY entry
    points (CLI, serve, bench, [Config.from_env]) may consult the
    environment — library functions default to [`Exact]
    unconditionally, and every Fast run is recorded in
    {!Pnc_exp.Config.fingerprint}. *)

type readout = Integrated | Last_step
(** [Integrated] (the default) time-averages the output voltages —
    physically an RC integrator per class output; [Last_step] reads the
    final instant only (the read-out ablation). *)

type families = { crossbar : bool; filter : bool; activation : bool }
(** Which component families take the variation draw; the others are
    realized nominal ({!Variation.deterministic}). *)

val all_families : families

type opts = {
  precision : precision;  (** activation tier; library default [`Exact] *)
  state_init : Filter_layer.state_init;
      (** filter initial voltages (default [`V0]), drawn for the
          whole batch *)
  readout : readout;
  varied : families;
      (** read only where an instance is realized: a forward on a
          held instance runs the families it was realized with *)
}
(** Options of one no-grad evaluation. Models without a component
    (the reference RNN has no filters, no draw and a fixed read-out)
    ignore the fields that do not apply. *)

val default : opts
(** [{ precision = `Exact; state_init = `V0; readout = Integrated; varied = all_families }]. *)

val count_realization : unit -> unit
(** Bumps the [eval.realizations] counter: one per instance built for
    evaluation. An atomic add with no clock read, so the null sink
    stays free. *)

val timed : opts -> rows:int -> (unit -> 'a) -> 'a
(** [timed opts ~rows f] runs [f], one no-grad forward over [rows]
    rows, and returns its result. Bumps the [eval.batch.samples]
    counter and, with an enabled sink, observes [eval.batch_seconds]
    and emits an [eval.batch] event with the precision tier and the
    throughput. *)
