(** Printed temporal processing networks.

    A pTPB layer (Fig. 4) is a resistor crossbar followed by a bank of
    learnable low-pass filters and a printed tanh activation. Stacking
    two layers gives:

    - the baseline {b pTPNC} of prior work: first-order filters,
      trained without variation awareness;
    - the proposed {b ADAPT-pNC}: second-order learnable filters
      (SO-LF), trained variation-aware.

    The network processes a univariate (or multivariate) series one
    step at a time; class scores are the time-integrated outputs. *)

type arch = Ptpnc | Adapt

val arch_name : arch -> string

type t

val create :
  ?hidden:int -> Pnc_util.Rng.t -> arch -> inputs:int -> classes:int -> t
(** Two pTPB layers: [inputs -> hidden -> classes]. Default hidden
    width: 3 for [Ptpnc] (matching the small baseline circuits of
    Table III) and 6 for [Adapt] (the paper reports ≈1.9x devices). *)

val arch : t -> arch
val inputs : t -> int
val classes : t -> int
val hidden : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names
    ([layer<i>/{crossbar,filter,ptanh}/<leaf>]); same order as
    {!params}. *)

val n_params : t -> int

val layers : t -> (Crossbar.t * Filter_layer.t * Ptanh.t) list
(** In order, for hardware costing and inspection. *)

val forward :
  ?readout:Batch.readout ->
  ?varied:Batch.families ->
  draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_autodiff.Var.t
(** [forward ~draw net x] runs the batch of series [x]
    ([batch x time], univariate) and returns the logits
    [batch x classes]: by default the time-average of the output
    voltages — physically an RC integrator per class output (accounted
    for by {!Hardware}). One component sample is drawn per call and
    shared across all time steps — the circuit is the same physical
    device throughout the sequence. Only the [varied] families (default
    all) take the draw; the others run nominal, which lets
    {!Sensitivity} attribute robustness loss to one family. This is the
    per-op graph. Every circuit trainer takes its gradient from
    {!Adjoint}'s fused node instead, which is tested against it bit for
    bit; it remains the oracle of that node and of the no-grad engine
    below, and {!Model.logits} is its only caller in the library. *)

val forward_multi :
  ?readout:Batch.readout ->
  ?varied:Batch.families ->
  draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_autodiff.Var.t
(** Multivariate variant: one [batch x inputs] tensor per time step. *)

(** {1 Instances}

    A printed circuit's variation is fixed when it is made: an
    instance is the circuit realized under one draw, and every input
    then runs through that one physical device. *)

type layer_t = {
  cb : Crossbar.realization_t;
  filt : Filter_layer.realization_t;
  act : Ptanh.realization_t;
}
(** One layer realized under one draw: its components' realizations. *)

val realize_net_t : varied:Batch.families -> draw:Variation.draw -> t -> layer_t list
(** Realize every layer, consuming [draw]'s stream in the circuit's one
    sampling order: per layer, filters, activation, crossbar. The
    families left out of [varied] realize nominal. {!forward_multi}
    builds its nodes from these records, so every path runs the same
    physical instance. *)

type instance = layer_t array
(** One physical circuit instance: its layers realized under one draw.
    A forward only reads it, so one instance may be run by many
    domains and threads at once; it stays valid while the network's
    parameters are left alone. *)

val realize : varied:Batch.families -> draw:Variation.draw -> t -> instance
(** {!realize_net_t} as an instance, counted in [eval.realizations]. *)

(** {1 No-grad engine}

    Same sampling order and floating-point operation sequence as
    {!forward_multi} — logits are bit-identical under the same draw and
    options at [`Exact] precision — but no autodiff nodes are
    allocated, each layer step is one fused pass over preallocated
    buffers, and the call is safe inside a {!Pnc_util.Pool} task and
    from concurrent threads. Each domain keeps its workspace and reuses
    it while the shapes fit, so a repeated forward of the same shape
    on a held instance allocates only the logits it returns. *)

type input =
  | Steps of Pnc_tensor.Tensor.t array
      (** one [batch x inputs] tensor per time step *)
  | Series of Pnc_tensor.Tensor.t
      (** a univariate [batch x time] input, read in place: step [t] is
          column [t] at row stride [time] *)

val forward_input : opts:Batch.opts -> instance -> input -> Pnc_tensor.Tensor.t
(** Logits of one instance over a batch; [opts.varied] is not read (the
    instance was realized with its families). *)

val forward_multi_batch_t :
  ?opts:Batch.opts ->
  draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** {!realize} under [draw] and [opts.varied], then {!forward_input} over
    pre-split time steps (one [batch x inputs] tensor per step, e.g.
    from {!Pnc_tensor.Tensor.columns}); the steps are only read, so
    many-draw callers split their input once. *)

val forward_batch_t :
  ?opts:Batch.opts -> draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** {!forward_multi_batch_t} on a univariate [batch x time] input, read
    in place ({!Series}), so no per-step tensors are built.
    Bit-identical to [forward_multi_batch_t (Tensor.columns x)]. *)

(** {1 Training trajectory}

    {!Adjoint}'s training node runs the very loop above, the block
    forward, over a workspace that keeps every time step, and its
    reverse sweep reads what that loop left. Buffers are feature-major:
    a slot is an [n_out x rows] plane, feature [c] at offset
    [c * rows]. *)

type layer_trajectory = {
  n_in : int;
  n_out : int;
  stride : int;  (** floats between consecutive steps' slots: one plane *)
  st : Pnc_tensor.Tensor.buffer array;
      (** per stage, steps + 1 state slots: slot 0 the initial state,
          slot [t + 1] the state after step [t] *)
  dv : Pnc_tensor.Tensor.buffer;  (** per step, the normalised crossbar sums (the filter input) *)
  th : Pnc_tensor.Tensor.buffer;  (** per step, the tanh of the scaled filter output *)
  out : Pnc_tensor.Tensor.buffer;  (** per step, the activations *)
}

type trajectory = {
  rows : int;
  steps : int;
  per_layer : layer_trajectory array;
  acc : Pnc_tensor.Tensor.t;  (** read-out scratch, [classes x rows] *)
}

val trajectory : rows:int -> steps:int -> layer_t array -> trajectory
(** A workspace for [steps] steps of a [rows]-row batch through layers
    shaped like these. *)

val fits : trajectory -> rows:int -> steps:int -> layer_t array -> bool
(** Whether a workspace has the shapes of [steps] steps of a [rows]-row
    batch through these layers, so a forward can reuse it. *)

val forward_trajectory :
  trajectory ->
  readout:Batch.readout ->
  layer_t array ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** The block forward of {!forward_multi_batch_t} at [`Exact]
    precision and [`V0] initial states over pre-split steps, through
    the layers of one draw ({!realize_net_t}), with every step left in
    the trajectory: bit-identical logits. The workspace must {!fits}
    the layers and steps. *)

val clamp : t -> unit
(** Project every component value into its printable window. *)
