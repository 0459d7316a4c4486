(** Model-aware persistence on top of {!Pnc_ckpt.Ckpt}.

    Two checkpoint kinds:

    - ["model"]: architecture metadata plus one [param/<path>] section
      per trainable parameter — enough to rebuild and evaluate a model
      in a fresh process ({!save_model} / {!load_model});
    - ["train"]: everything {!Train.train} accumulates mid-run —
      current and best-so-far parameters, optimizer slots and step
      count, scheduler state, the RNG stream image, and both loss
      curves — enough to resume training bit-identically
      ({!save_train_state} / {!load_train_state}).

    All loaders return typed {!Pnc_ckpt.Ckpt.error}s and validate every
    shape against the live model before mutating anything: a rejected
    checkpoint leaves the model, optimizer and scheduler untouched. *)

module T := Pnc_tensor.Tensor
module Rng := Pnc_util.Rng
module Json := Pnc_obs.Obs.Json
module Ckpt := Pnc_ckpt.Ckpt

(** {1 Model metadata} *)

val model_meta : Model.t -> (string * Json.t) list
(** [family]/[arch]/[inputs]/[hidden]/[classes] — everything needed to
    rebuild the model skeleton with {!model_of_meta}. *)

val model_of_meta : (string * Json.t) list -> (Model.t, Ckpt.error) result
(** Rebuild a model skeleton (freshly initialised parameters) from
    header metadata. [Bad_header] unless [inputs], [hidden] and
    [classes] are each an integer in 1..1024. *)

(** {1 Parameter sections} *)

val param_sections : ?prefix:string -> Model.t -> (string * Ckpt.section) list
(** One [F64] section per {!Model.named_params} entry, named
    [prefix ^ path] (default prefix ["param/"]). *)

val load_params_into : ?prefix:string -> Model.t -> Ckpt.t -> (unit, Ckpt.error) result
(** Overwrite the model's parameters from the checkpoint's sections.
    Every section is located and shape-checked before any write. *)

(** {1 Model checkpoints} *)

val save_model : ?extra_meta:(string * Json.t) list -> path:string -> Model.t -> unit

val load_model : path:string -> (Model.t, Ckpt.error) result
(** Accepts kind ["model"] or ["train"] (a train checkpoint embeds the
    same metadata and [param/] sections). *)

val load_model_exn : path:string -> Model.t
(** Raises {!Pnc_ckpt.Ckpt.Error}. *)

(** {1 Training-state checkpoints} *)

type resume = {
  r_epoch : int;  (** last completed epoch *)
  r_best : float;  (** best validation loss so far *)
  r_best_snap : T.t list;  (** best-epoch parameter values, in {!Model.params} order *)
  r_rng : Rng.t;  (** training RNG stream, positioned after epoch [r_epoch] *)
  r_train_curve : float array;  (** per-epoch training losses, oldest first *)
  r_val_curve : float array;  (** per-epoch validation losses, oldest first *)
}

val save_train_state :
  path:string ->
  model:Model.t ->
  opt:Pnc_optim.Optimizer.t ->
  sched:Pnc_optim.Scheduler.t ->
  rng:Rng.t ->
  epoch:int ->
  best:float ->
  best_snap:T.t list ->
  train_curve:float array ->
  val_curve:float array ->
  unit
(** Atomically write a ["train"] checkpoint capturing the loop state at
    the end of epoch [epoch]. [best_snap] must be in
    {!Model.params} order; curves are oldest-first. *)

val load_train_state :
  path:string ->
  model:Model.t ->
  opt:Pnc_optim.Optimizer.t ->
  sched:Pnc_optim.Scheduler.t ->
  (resume, Ckpt.error) result
(** Validate the checkpoint against [model] (architecture metadata and
    every parameter/slot shape), then overwrite the model's parameters
    and restore [opt] and [sched] in place. Nothing is mutated on any
    error path. *)
