(** Sliding-window streaming evaluation with optional online test-time
    adaptation (prequential, test-then-train).

    The stream is cut into windows ({!Window.slice}); each window is
    scored on the no-grad engine ({!Pnc_core.Model.run_multi_batch_t})
    through the stream's physical instance ({!Pnc_core.Model.realize}):
    a frozen stream realizes it once and shares it read-only with the
    pool workers, an adapted one realizes it again for every window,
    under the parameters the previous window's steps left. When
    adaptation is on, the model then takes a few optimizer
    steps ({!Pnc_core.Train.descend}, gradient norm clipped at 5) on
    that window's (x, y) buffer before the next window arrives, each on
    the training objective of the replayed physical instance
    ({!Pnc_core.Mc_loss.objective}: the fused training node for a
    circuit), whose gradients equal the per-op tape's bit for bit and
    reach only the adapted leaves.

    {b Determinism contract.} [rng] is split once: child 0 is the
    physical-instance stream — the variation draw is made from a
    {!Pnc_util.Rng.copy} of it for every realization (and every
    adaptation step), so the whole stream runs on one physical circuit
    instance, and an offline comparator that builds
    [Variation.make_draw] from a copy of the same child sees logits
    bit-identical to the streaming ones. Child 1 is pre-split into one
    state stream per window, so [`Randomized] initial filter states
    depend on the window index alone. Consequences, pinned by
    [test/test_stream.ml]: results are invariant to the pool size, and
    with [adapt = Off],
    [stride = width] and [state_init = `V0] the overall streaming
    accuracy equals offline {!Pnc_core.Train.accuracy} on
    {!Scenario.to_dataset} at eps 0. *)

type adapt =
  | Off  (** frozen baseline (the ablation reference) *)
  | Filters  (** adapt only the learnable filter R/C parameters *)
  | All  (** adapt every trainable parameter *)

val adapt_tag : adapt -> string
val adapt_of_tag : string -> adapt option

type state_init = [ `V0 | `Zero | `Randomized of float ]
(** Filter initial-voltage semantics per window — [`Randomized sigma]
    draws fresh V[0] ~ N(0, sigma²) per (window, row, channel) from
    the window's own pre-split stream, the sliding-window regime of
    the exemplar LearnableFilter. *)

type protocol = {
  width : int;  (** window width, in samples *)
  stride : int;  (** window stride; [= width] partitions the stream *)
  state_init : state_init;
  adapt : adapt;
  adapt_lr : float;
  adapt_steps : int;  (** optimizer steps per window *)
  detect_baseline : int;  (** windows averaged into the reference level *)
  detect_drop : float;  (** accuracy drop that fires the detector *)
}

val default_protocol : protocol
(** width 16, stride 16, [`V0], adaptation off (lr 0.05, 2 steps when
    enabled), detector: 3 baseline windows, 0.25 drop. *)

val fingerprint : protocol -> string
(** Canonical text over every result-affecting knob (window geometry,
    state init, adaptation, detector thresholds). The pool size is
    result-invariant and deliberately absent. *)

type point = { w : int; start : int; len : int; correct : int; acc : float }

type result = {
  points : point array;  (** the accuracy-over-time curve *)
  overall_acc : float;  (** total correct / total scored samples *)
  pre_drift_acc : float option;  (** mean acc over fully-pre-drift windows *)
  post_drift_acc : float option;  (** mean acc over post-drift windows *)
  first_drift_window : int option;
  detected_at : int option;  (** window where the detector fired *)
  detect_latency : int option;  (** windows between drift and detection *)
}

val eval :
  ?opts:Pnc_core.Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  ?spec:Pnc_core.Variation.spec ->
  ?v0_sigma:float ->
  rng:Pnc_util.Rng.t ->
  protocol ->
  Pnc_core.Model.t ->
  Scenario.realized ->
  result
(** Runs the protocol over the realized stream, scoring each window
    with [opts] (its [state_init] is replaced by the protocol's, per
    window). The input is split into time steps once. [spec] fixes one
    physical instance under component variation (absent = the
    deterministic nominal circuit). With [pool] and a frozen model the
    windows evaluate in parallel, bit-identically to the sequential
    run; with adaptation on, the loop is inherently sequential and the
    pool is unused. {b Adaptation mutates the model's parameters in
    place} — snapshot first ({!snapshot_params}) if the trained weights
    must survive. Emits [stream.window] / [stream.drift] /
    [stream.done] events and bumps the [stream.*] counters. *)

val snapshot_params : Pnc_core.Model.t -> Pnc_tensor.Tensor.t list
val restore_params : Pnc_core.Model.t -> Pnc_tensor.Tensor.t list -> unit
(** {!Pnc_core.Train.snapshot} / {!Pnc_core.Train.restore} over every
    trainable parameter of the model — the frozen / adapted ablation
    runs the same trained model twice via these. *)
