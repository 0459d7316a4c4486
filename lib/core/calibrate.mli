(** Post-print per-chip calibration ("trimming").

    Variation-aware training makes the *design* robust in expectation;
    a complementary printed-electronics practice is to trim each
    manufactured instance after printing: measure it, then adjust the
    few components that are cheap to program — here the crossbar bias
    conductances — against a small calibration set, while the rest of
    the (already printed) circuit stays fixed.

    A manufactured instance is represented by a replayable
    {!Variation.draw}: the same ε, µ and V₀ samples on every forward
    pass (the physical chip does not re-randomize itself). *)

val chip : seed:int -> Variation.spec -> unit -> Variation.draw
(** A factory for one manufactured instance: every call returns a draw
    that replays the identical variation sample stream, so repeated
    forward passes see the same physical chip. *)

val bias_params : Network.t -> Pnc_autodiff.Var.t list
(** The crossbar bias parameters θ_b of every layer — the trimmable
    subset. *)

val trim :
  ?epochs:int ->
  ?lr:float ->
  chip:(unit -> Variation.draw) ->
  Network.t ->
  Pnc_data.Dataset.t ->
  unit
(** Gradient-trim the biases of this chip against the calibration set
    (default 60 epochs of Adam at lr 0.02, unclipped), each step on the
    training objective of the replayed chip ({!Mc_loss.objective}, the
    fused training node). Only θ_b moves, and only θ_b takes
    gradients; everything else keeps its printed value. *)

type outcome = { before : float; after : float }

val evaluate :
  ?epochs:int ->
  ?lr:float ->
  chip:(unit -> Variation.draw) ->
  Network.t ->
  calibration:Pnc_data.Dataset.t ->
  test:Pnc_data.Dataset.t ->
  outcome
(** Accuracy of this chip on [test] before and after trimming on
    [calibration]. Restores the un-trimmed biases before returning, so
    the design is unchanged (each chip would be trimmed separately). *)
