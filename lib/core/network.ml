module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

type arch = Ptpnc | Adapt

let arch_name = function Ptpnc -> "pTPNC" | Adapt -> "ADAPT-pNC"

type layer = Crossbar.t * Filter_layer.t * Ptanh.t

type t = { arch : arch; n_in : int; n_hidden : int; n_classes : int; layers : layer list }

let create ?hidden rng arch ~inputs ~classes =
  let hidden =
    match hidden with Some h -> h | None -> ( match arch with Ptpnc -> 3 | Adapt -> 6)
  in
  let filter_order =
    match arch with Ptpnc -> Filter_layer.First | Adapt -> Filter_layer.Second
  in
  let layer ~n_in ~n_out =
    ( Crossbar.create rng ~inputs:n_in ~outputs:n_out,
      Filter_layer.create rng filter_order ~features:n_out,
      Ptanh.create rng ~features:n_out )
  in
  {
    arch;
    n_in = inputs;
    n_hidden = hidden;
    n_classes = classes;
    layers = [ layer ~n_in:inputs ~n_out:hidden; layer ~n_in:hidden ~n_out:classes ];
  }

let arch net = net.arch
let inputs net = net.n_in
let classes net = net.n_classes
let hidden net = net.n_hidden
let layers net = net.layers

let params net =
  List.concat_map
    (fun (cb, fl, act) -> Crossbar.params cb @ Filter_layer.params fl @ Ptanh.params act)
    net.layers

let named_params net =
  List.concat
    (List.mapi
       (fun i (cb, fl, act) ->
         let under prefix ps =
           List.map (fun (n, p) -> (Printf.sprintf "layer%d/%s/%s" i prefix n, p)) ps
         in
         under "crossbar" (Crossbar.named_params cb)
         @ under "filter" (Filter_layer.named_params fl)
         @ under "ptanh" (Ptanh.named_params act))
       net.layers)

let n_params net =
  List.fold_left (fun acc v -> acc + T.numel (Var.value v)) 0 (params net)

(* One sampled physical instance of a layer, shared across time steps:
   the variation-folded component values are realized once, only the
   input-dependent computation runs per step. *)
type layer_real = {
  cb : Crossbar.realization;
  filt : Filter_layer.realization;
  act : Ptanh.realization;
  mutable filt_state : Filter_layer.state;
}

let realize_layers_selective ~draw_crossbar ~draw_filter ~draw_act ~batch net =
  List.map
    (fun (cb, fl, act) ->
      (* Explicit sampling order — filters, activation, crossbar. The
         tensor path below must consume the draws' random streams in
         exactly this order for realization parity. *)
      let filt = Filter_layer.realize ~draw:draw_filter fl in
      let act = Ptanh.realize ~draw:draw_act act in
      let cb = Crossbar.realize ~draw:draw_crossbar cb in
      { cb; filt; act; filt_state = Filter_layer.init_state filt ~batch })
    net.layers

let step_layer lr x =
  let summed = Crossbar.apply lr.cb x in
  let state', filtered = Filter_layer.step lr.filt lr.filt_state summed in
  lr.filt_state <- state';
  Ptanh.apply lr.act filtered

type readout = Integrated | Last_step

let forward_multi_readout ~readout ~draw_crossbar ~draw_filter ~draw_act net steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) in
  let reals = realize_layers_selective ~draw_crossbar ~draw_filter ~draw_act ~batch net in
  (* Default read-out: the class scores integrate the output voltage
     over the window — physically one slow RC stage per output (counted
     by Hardware). Reading only the final instant (Last_step, kept for
     the ablation bench) forgets transient evidence faster than any
     printable RC can retain it. *)
  let acc = ref None in
  Array.iter
    (fun x_t ->
      let signal = ref (Var.const x_t) in
      List.iter (fun lr -> signal := step_layer lr !signal) reals;
      acc :=
        Some
          (match (readout, !acc) with
          | Last_step, _ | Integrated, None -> !signal
          | Integrated, Some a -> Var.add a !signal))
    steps;
  match (readout, !acc) with
  | Integrated, Some sum -> Var.scale (1. /. float_of_int (Array.length steps)) sum
  | Last_step, Some last -> last
  | _, None -> assert false

let forward_multi_selective ~draw_crossbar ~draw_filter ~draw_act net steps =
  forward_multi_readout ~readout:Integrated ~draw_crossbar ~draw_filter ~draw_act net steps

let forward_readout ~readout ~draw net x =
  forward_multi_readout ~readout ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net
    (T.columns x)

let forward_multi ~draw net steps =
  forward_multi_selective ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_selective ~draw_crossbar ~draw_filter ~draw_act net x =
  forward_multi_selective ~draw_crossbar ~draw_filter ~draw_act net (T.columns x)

let forward ~draw net x = forward_multi ~draw net (T.columns x)

(* Pure-tensor forward for evaluation: same sampling order and same
   floating-point operation sequence as the Var path, but no autodiff
   nodes are allocated and the per-step kernels run in preallocated
   buffers. Logits are bit-identical to [forward] under the same
   draw(s).

   Realization (the RNG-consuming part) is separated from the per-block
   workspace (state + scratch buffers): the batched forwards below
   realize ONCE per draw and then chunk the batch through zero-copy row
   views, which is what makes the block size a pure performance knob —
   every block sees the same physical circuit instance, so results are
   bit-identical for any batch size. *)
type layer_real_t = {
  cb_t : Crossbar.realization_t;
  filt_t : Filter_layer.realization_t;
  act_t : Ptanh.realization_t;
  n_out : int;
}

let realize_net_t ~draw_crossbar ~draw_filter ~draw_act net =
  List.map
    (fun (cb, fl, act) ->
      (* Same sampling order as the Var path: filters, activation,
         crossbar. *)
      let filt_t = Filter_layer.realize_t ~draw:draw_filter fl in
      let act_t = Ptanh.realize_t ~draw:draw_act act in
      let cb_t = Crossbar.realize_t ~draw:draw_crossbar cb in
      { cb_t; filt_t; act_t; n_out = Crossbar.outputs cb })
    net.layers

(* Raw coefficient views of one realized layer, extracted once per
   draw so the per-time-step loop below touches plain tensors only. *)
type layer_kernel = {
  k_theta : T.t;
  k_bias : T.t;
  k_inv : T.t;
  k_stages : (T.t * T.t) array;
  k_e1 : T.t;
  k_e2 : T.t;
  k_e3 : T.t;
  k_e4 : T.t;
}

let make_kernel real =
  let theta, bias, inv = Crossbar.kernel_t real.cb_t in
  let e1, e2, e3, e4 = Ptanh.kernel_t real.act_t in
  {
    k_theta = theta;
    k_bias = bias;
    k_inv = inv;
    k_stages = Filter_layer.kernel_t real.filt_t;
    k_e1 = e1;
    k_e2 = e2;
    k_e3 = e3;
    k_e4 = e4;
  }

type layer_ws = {
  real : layer_real_t;
  kern : layer_kernel;
  filt_state_t : Filter_layer.state_t;
  cb_out : T.t;
  act_out : T.t;
}

(* [states], when given, hands each layer a pre-initialized filter
   state for this block (usually row views of a full-batch state) —
   the batched forwards use it to keep [`Gaussian] initial-state draws
   independent of the block size. Otherwise a fresh state is drawn
   here with [init] semantics. *)
let make_ws ?(init = `V0) ?states ~batch reals =
  let states =
    match states with
    | Some sts -> sts
    | None -> List.map (fun real -> Filter_layer.init_state_t ~init real.filt_t ~batch) reals
  in
  List.map2
    (fun real st ->
      {
        real;
        kern = make_kernel real;
        filt_state_t = st;
        cb_out = T.zeros ~rows:batch ~cols:real.n_out;
        act_out = T.zeros ~rows:batch ~cols:real.n_out;
      })
    reals states

let step_layer_t ?precision lr x =
  Crossbar.apply_t_into ~dst:lr.cb_out lr.real.cb_t x;
  let filtered = Filter_layer.step_t lr.real.filt_t lr.filt_state_t lr.cb_out in
  Ptanh.apply_t_into ?precision ~dst:lr.act_out lr.real.act_t filtered;
  lr.act_out

(* Fused layer step for the no-grad path: after the crossbar matmul,
   one elementwise pass applies bias + normalization, the RC filter
   stage update(s) and the printable-tanh activation. Every one of
   those kernels is elementwise over the same [batch x features] block
   with no cross-element reduction, and the fused loop evaluates the
   exact per-element operation sequence of [step_layer_t]
   (apply_t_into; step_t; Ptanh.apply_t_into) — so fusing the passes
   changes memory traffic only, never a result bit. Unchecked accesses
   are covered by the shape asserts plus the tensor view invariant.
   Specialized for the two printable filter orders; any other stage
   count falls back to the unfused sequence.

   [~fast] selects the activation implementation: [false] is
   [Stdlib.tanh] (bit-identical to the Var path), [true] is
   [Fast_math.tanh] (≤1e-7 absolute tanh error; see docs/BATCHING.md).
   Nothing else in the element sequence changes between the tiers. *)
(* Activation pass over one row whose elements already hold the scaled
   pre-activations: tanh in place, then the eta2/eta1 affine. Two entry
   points for the transcendental — `Fast runs [Fast_math.apply_range]
   (one unboxed in-module loop; a per-element cross-module call would
   box both floats without flambda and cost more than the polynomial
   saves), `Exact the direct unboxed [Stdlib.tanh] extern. The
   per-element expression tree is identical to the former single-pass
   form, so `Exact results stay bit-for-bit unchanged.

   Every Bigarray parameter carries [T.buffer]: left unannotated, the
   kind and layout generalize, and without flambda each [unsafe_get]
   then compiles to the generic [caml_ba_get_1] C stub, which boxes the
   float it returns (scripts/check_unboxed.sh rejects that). *)
let activation_rows ~fast (od : T.buffer) ~off ~cols (e2 : T.buffer) eo2 (e1 : T.buffer) eo1 =
  let module BA = Bigarray.Array1 in
  if fast then Pnc_tensor.Fast_math.apply_range od ~off ~len:cols
  else
    for c = 0 to cols - 1 do
      BA.unsafe_set od (off + c) (Stdlib.tanh (BA.unsafe_get od (off + c)))
    done;
  for c = 0 to cols - 1 do
    BA.unsafe_set od (off + c)
      ((BA.unsafe_get od (off + c) *. BA.unsafe_get e2 (eo2 + c))
      +. BA.unsafe_get e1 (eo1 + c))
  done

let fused_step_layer ~fast lr x =
  let module BA = Bigarray.Array1 in
  let k = lr.kern in
  let mm = lr.cb_out and out = lr.act_out in
  let rows = T.rows mm and cols = T.cols mm in
  assert (T.cols k.k_bias = cols && T.cols k.k_inv = cols && T.cols k.k_e1 = cols);
  let md = mm.T.data and od = out.T.data in
  let bd = k.k_bias.T.data and bo = k.k_bias.T.off in
  let id = k.k_inv.T.data and io = k.k_inv.T.off in
  let e1 = k.k_e1.T.data and eo1 = k.k_e1.T.off in
  let e2 = k.k_e2.T.data and eo2 = k.k_e2.T.off in
  let e3 = k.k_e3.T.data and eo3 = k.k_e3.T.off in
  let e4 = k.k_e4.T.data and eo4 = k.k_e4.T.off in
  match (lr.filt_state_t, k.k_stages) with
  | [| s1; s2 |], [| (a1, b1); (a2, b2) |] ->
      T.matmul_into ~dst:mm x k.k_theta;
      assert (T.same_shape s1 mm && T.same_shape s2 mm);
      assert (T.cols a1 = cols && T.cols b1 = cols && T.cols a2 = cols && T.cols b2 = cols);
      let s1d = s1.T.data and s2d = s2.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      let a2d = a2.T.data and a2o = a2.T.off in
      let b2d = b2.T.data and b2o = b2.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols)
        and s2o = s2.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get s1d (s1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          let s2v =
            (BA.unsafe_get s2d (s2o + c) *. BA.unsafe_get a2d (a2o + c))
            +. (s1v *. BA.unsafe_get b2d (b2o + c))
          in
          BA.unsafe_set s2d (s2o + c) s2v;
          BA.unsafe_set od (oo + c)
            ((s2v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_rows ~fast od ~off:oo ~cols e2 eo2 e1 eo1
      done;
      out
  | [| s1 |], [| (a1, b1) |] ->
      T.matmul_into ~dst:mm x k.k_theta;
      assert (T.same_shape s1 mm);
      assert (T.cols a1 = cols && T.cols b1 = cols);
      let s1d = s1.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get s1d (s1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          BA.unsafe_set od (oo + c)
            ((s1v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_rows ~fast od ~off:oo ~cols e2 eo2 e1 eo1
      done;
      out
  | _ -> step_layer_t ~precision:(if fast then `Fast else `Exact) lr x

(* Run one block of rows through all time steps against an already
   realized circuit instance. *)
let forward_block ?(precision = `Exact) ?(state_init = `V0) ?states ~readout ~classes reals
    steps =
  let fast = match precision with `Fast -> true | `Exact -> false in
  let batch = T.rows steps.(0) in
  let ws = make_ws ~init:state_init ?states ~batch reals in
  let acc = T.zeros ~rows:batch ~cols:classes in
  let last = ref acc in
  Array.iter
    (fun x_t ->
      let signal = ref x_t in
      List.iter (fun lr -> signal := fused_step_layer ~fast lr !signal) ws;
      (match readout with
      | Integrated -> T.add_inplace acc !signal
      | Last_step -> ());
      last := !signal)
    steps;
  match readout with
  | Integrated -> T.scale (1. /. float_of_int (Array.length steps)) acc
  | Last_step -> T.copy !last

let forward_multi_readout_t ?state_init ~readout ~draw_crossbar ~draw_filter ~draw_act net
    steps =
  assert (Array.length steps > 0);
  let reals = realize_net_t ~draw_crossbar ~draw_filter ~draw_act net in
  forward_block ?state_init ~readout ~classes:net.n_classes reals steps

let forward_multi_readout_batch_t ?batch_size ?precision ?(state_init = `V0) ~readout
    ~draw_crossbar ~draw_filter ~draw_act net steps =
  assert (Array.length steps > 0);
  let rows = T.rows steps.(0) in
  let block = Batch.resolve ?batch_size ~n:rows () in
  let reals = realize_net_t ~draw_crossbar ~draw_filter ~draw_act net in
  (* Under [`Gaussian] the initial-state draws must not depend on the
     block size: pre-draw the full-batch states once and hand each
     block its row slice. [`V0] keeps the historical per-block init
     (bit-identical, and row-independent anyway); [`Zero] rides the
     same pre-draw path — it is row-independent too, so slicing
     changes nothing. *)
  let full_states =
    match state_init with
    | `V0 -> None
    | init ->
        Some
          (List.map (fun real -> Filter_layer.init_state_t ~init real.filt_t ~batch:rows) reals)
  in
  let t0 = Batch.start () in
  let out = T.zeros ~rows ~cols:net.n_classes in
  let blocks =
    Batch.chunked ~rows ~block (fun ~row ~len ->
        let sub = Array.map (fun s -> T.rows_view s ~row ~len) steps in
        let states =
          Option.map (List.map (Array.map (fun s -> T.rows_view s ~row ~len))) full_states
        in
        let logits = forward_block ?precision ?states ~readout ~classes:net.n_classes reals sub in
        T.blit_into ~dst:(T.rows_view out ~row ~len) logits)
  in
  Batch.record ~block ~rows ~blocks ~t0;
  out

let forward_multi_selective_t ~draw_crossbar ~draw_filter ~draw_act net steps =
  forward_multi_readout_t ~readout:Integrated ~draw_crossbar ~draw_filter ~draw_act net steps

let forward_multi_t ~draw net steps =
  forward_multi_selective_t ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_multi_batch_t ?batch_size ?precision ?state_init ~draw net steps =
  forward_multi_readout_batch_t ?batch_size ?precision ?state_init ~readout:Integrated
    ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net steps

let forward_selective_t ~draw_crossbar ~draw_filter ~draw_act net x =
  forward_multi_selective_t ~draw_crossbar ~draw_filter ~draw_act net (T.columns x)

let forward_selective_batch_t ?batch_size ?precision ~draw_crossbar ~draw_filter ~draw_act
    net x =
  forward_multi_readout_batch_t ?batch_size ?precision ~readout:Integrated ~draw_crossbar
    ~draw_filter ~draw_act net (T.columns x)

let forward_readout_t ~readout ~draw net x =
  forward_multi_readout_t ~readout ~draw_crossbar:draw ~draw_filter:draw ~draw_act:draw net
    (T.columns x)

let forward_t ~draw net x = forward_multi_t ~draw net (T.columns x)

let forward_batch_t ?batch_size ?precision ?state_init ~draw net x =
  forward_multi_batch_t ?batch_size ?precision ?state_init ~draw net (T.columns x)

let predict ?(draw = Variation.deterministic) net x = T.argmax_rows (forward_t ~draw net x)

let predict_batch ?batch_size ?precision ?state_init ?(draw = Variation.deterministic) net x =
  T.argmax_rows (forward_batch_t ?batch_size ?precision ?state_init ~draw net x)

let clamp net =
  List.iter
    (fun (cb, fl, act) ->
      Crossbar.clamp cb;
      Filter_layer.clamp fl;
      Ptanh.clamp act)
    net.layers
