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

let logits_multi_batch_t ?opts ?(draw = Variation.deterministic) t steps =
  match t with
  | Circuit net -> Network.forward_multi_batch_t ?opts ~draw net steps
  | Reference m -> Elman.forward_multi_batch_t ?opts m steps

let logits_batch_t ?opts ?(draw = Variation.deterministic) t x =
  match t with
  | Circuit net -> Network.forward_batch_t ?opts ~draw net x
  | Reference m -> Elman.forward_multi_batch_t ?opts m (Pnc_tensor.Tensor.columns x)

let predict_batch ?opts ?draw t x =
  Pnc_tensor.Tensor.argmax_rows (logits_batch_t ?opts ?draw t x)

let clamp = function Circuit net -> Network.clamp net | Reference _ -> ()
let is_circuit = function Circuit _ -> true | Reference _ -> false
