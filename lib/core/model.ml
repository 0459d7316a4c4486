type t = Circuit of Network.t | Reference of Elman.t

let label = function
  | Circuit net -> Network.arch_name (Network.arch net)
  | Reference _ -> "Elman RNN"

let params = function Circuit net -> Network.params net | Reference m -> Elman.params m

let named_params = function
  | Circuit net -> Network.named_params net
  | Reference m -> Elman.named_params m
let n_params = function Circuit net -> Network.n_params net | Reference m -> Elman.n_params m

let logits ?(draw = Variation.deterministic) t x =
  match t with
  | Circuit net -> Network.forward ~draw net x
  | Reference m -> Elman.forward m x

type instance = Circuit_instance of Network.instance | Reference_instance of Elman.t

(* An Elman model has no physical components: it is its own instance,
   counted like a realized circuit. *)
let realize ?(varied = Batch.all_families) ?(draw = Variation.deterministic) = function
  | Circuit net -> Circuit_instance (Network.realize ~varied ~draw net)
  | Reference m ->
      Batch.count_realization ();
      Reference_instance m

let run_multi_batch_t ?(opts = Batch.default) inst steps =
  match inst with
  | Circuit_instance kern -> Network.forward_input ~opts kern (Network.Steps steps)
  | Reference_instance m -> Elman.forward_multi_batch_t ~opts m steps

let run_batch_t ?(opts = Batch.default) inst x =
  match inst with
  | Circuit_instance kern -> Network.forward_input ~opts kern (Network.Series x)
  | Reference_instance m -> Elman.forward_multi_batch_t ~opts m (Pnc_tensor.Tensor.columns x)

let logits_multi_batch_t ?(opts = Batch.default) ?draw t steps =
  run_multi_batch_t ~opts (realize ~varied:opts.varied ?draw t) steps

let logits_batch_t ?(opts = Batch.default) ?draw t x =
  run_batch_t ~opts (realize ~varied:opts.varied ?draw t) x

let predict_batch ?opts ?draw t x =
  Pnc_tensor.Tensor.argmax_rows (logits_batch_t ?opts ?draw t x)

let clamp = function Circuit net -> Network.clamp net | Reference _ -> ()
let is_circuit = function Circuit _ -> true | Reference _ -> false
