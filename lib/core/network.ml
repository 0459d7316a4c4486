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

(* The draw each component family realizes with: the [varied] families
   take [draw], the others run nominal. *)
let family_draws (varied : Batch.families) draw =
  let pick on = if on then draw else Variation.deterministic in
  (pick varied.crossbar, pick varied.filter, pick varied.activation)

(* One layer realized under one draw: its three components'
   realizations. *)
type layer_t = {
  cb : Crossbar.realization_t;
  filt : Filter_layer.realization_t;
  act : Ptanh.realization_t;
}

(* The one place that fixes a circuit's sampling order: per layer,
   filters, activation, crossbar. Every path (per-op graph, fused
   engine, adjoint sweep) realizes through here. *)
let realize_net_t ~varied ~draw net =
  let draw_crossbar, draw_filter, draw_act = family_draws varied draw in
  List.map
    (fun (cb, fl, act) ->
      let filt = Filter_layer.realize_t ~draw:draw_filter fl in
      let act = Ptanh.realize_t ~draw:draw_act act in
      let cb = Crossbar.realize_t ~draw:draw_crossbar cb in
      { cb; filt; act })
    net.layers

(* The per-op graph of a realized layer, shared across time steps: the
   variation-folded component values are built once, only the
   input-dependent computation runs per step. A nominal family's ε are
   exactly 1, so folding them straight through under [ste] is the plain
   fold bit for bit. *)
type layer_real = {
  cb_v : Crossbar.realization;
  filt_v : Filter_layer.realization;
  act_v : Ptanh.realization;
  mutable filt_state : Filter_layer.state;
}

let realize_layers ~varied ~draw ~batch net =
  let ste = draw.Variation.ste in
  List.map2
    (fun (cb, fl, act) r ->
      let filt_v = Filter_layer.realize ~ste fl r.filt in
      let act_v = Ptanh.realize ~ste act r.act in
      let cb_v = Crossbar.realize ~ste cb r.cb in
      { cb_v; filt_v; act_v; filt_state = Filter_layer.init_state filt_v ~batch })
    net.layers
    (realize_net_t ~varied ~draw net)

let step_layer lr x =
  let summed = Crossbar.apply lr.cb_v x in
  let state', filtered = Filter_layer.step lr.filt_v lr.filt_state summed in
  lr.filt_state <- state';
  Ptanh.apply lr.act_v filtered

let forward_multi ?(readout = Batch.Integrated) ?(varied = Batch.all_families) ~draw net steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) in
  let reals = realize_layers ~varied ~draw ~batch net in
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
          | Batch.Last_step, _ | Integrated, None -> !signal
          | Integrated, Some a -> Var.add a !signal))
    steps;
  match (readout, !acc) with
  | Integrated, Some sum -> Var.scale (1. /. float_of_int (Array.length steps)) sum
  | Last_step, Some last -> last
  | _, None -> assert false

let forward ?readout ?varied ~draw net x = forward_multi ?readout ?varied ~draw net (T.columns x)

(* No-grad engine: same sampling order and same floating-point
   operation sequence as the Var path, but no autodiff nodes are
   allocated and each layer step runs as a few fused passes over
   feature-major buffers. Logits are bit-identical to [forward_multi]
   under the same draw and options.

   Realization (the RNG-consuming part) is separated from the
   workspace (state + scratch buffers): a draw is realized ONCE per
   instance, and every forward on the instance runs its whole batch
   through that one physical circuit. The workspace is kept per domain
   and reused while the shapes fit. The same loop is the forward of
   Adjoint's training node, over a workspace that keeps every step for
   its reverse sweep. *)

(* Workspace of one layer, stored feature-major: a slot is an [n_out x
   rows] plane whose row [c] holds feature [c] for every row of the
   batch, so each pass below is a unit-stride loop over the rows that
   reads the feature's coefficients once. Time step [t]'s slot sits
   [t * stride] floats in. Evaluation keeps one plane per buffer (stride
   0): states update in place and the tanh is written over the
   pre-activations, in [out]. Training keeps every step (stride one
   plane) for the reverse sweep: states hold steps + 1 slots, slot 0 the
   initial state and slot t + 1 the state after step t. *)
type layer_trajectory = {
  n_in : int;
  n_out : int;
  stride : int;
  st : T.buffer array; (* per stage, the filter states *)
  dv : T.buffer; (* crossbar sums, then the normalised filter input *)
  th : T.buffer; (* pre-activations, then their tanh *)
  out : T.buffer; (* the layer's activations *)
}

type trajectory = { rows : int; steps : int; per_layer : layer_trajectory array; acc : T.t }

let make_trajectory ~keep ~rows ~steps kern =
  let layers =
    Array.map
      (fun l ->
        let n_in = T.rows l.cb.theta_eff and n_out = T.cols l.cb.theta_eff in
        let plane = n_out * rows in
        let buffer slots = (T.zeros ~rows:(if keep then slots else 1) ~cols:plane).T.data in
        let out = buffer steps in
        {
          n_in;
          n_out;
          stride = (if keep then plane else 0);
          st = Array.map (fun _ -> buffer (steps + 1)) l.filt.stages_t;
          dv = buffer steps;
          th = (if keep then buffer steps else out);
          out;
        })
      kern
  in
  let classes = layers.(Array.length layers - 1).n_out in
  { rows; steps; per_layer = layers; acc = T.zeros ~rows:classes ~cols:rows }

let trajectory ~rows ~steps kern = make_trajectory ~keep:true ~rows ~steps kern

let fits tr ~rows ~steps kern =
  tr.rows = rows && tr.steps = steps
  && Array.length tr.per_layer = Array.length kern
  && Array.for_all2
       (fun lw l ->
         lw.n_in = T.rows l.cb.theta_eff
         && lw.n_out = T.cols l.cb.theta_eff
         && Array.length lw.st = Array.length l.filt.stages_t)
       tr.per_layer kern

(* The three passes of the fused layer step: crossbar, filter, tanh.
   Each runs over the [rows] elements of one feature and evaluates
   exactly the per-element operation sequence of the unfused reference
   kernels it stands for (Crossbar.apply_batch_t,
   Filter_layer.step_batch_t, Ptanh.apply_batch_t), so the fusion and
   the layout change memory traffic only and `Exact results stay
   bit-identical to those kernels and to the Var path. Unchecked
   accesses are covered by the shape asserts in [forward_block] plus
   the tensor view invariant.

   Coefficients travel as (buffer, offset), or as the realization
   record, and each pass reads its floats itself: without flambda, a
   float argument to a non-inlined function is boxed at every call.
   Every Bigarray parameter carries [T.buffer]; left unannotated, the
   kind and layout generalize and each access compiles to the generic
   [caml_ba_get_1] stub, which boxes the float it returns
   (scripts/check_unboxed.sh rejects that). *)

(* Crossbar sums of one output feature, as [T.matmul_into]: [k]
   ascending from [0.], exactly-zero inputs skipped. The [k = 0] loop
   writes [0. +. x * w] (or [0.]) directly, which is what a zero fill
   followed by the first accumulation computes, bit for bit. Input element
   [(r, k)] is [x.{xo + r * rs + k * ks}]; weight [k] is
   [th.{tho + k * n_out}]; [n_in >= 1]. *)
let crossbar_pass ~rows (d : T.buffer) doff (x : T.buffer) xo ~rs ~ks ~n_in (th : T.buffer) tho
    ~n_out =
  let module BA = Bigarray.Array1 in
  let w = BA.unsafe_get th tho in
  for r = 0 to rows - 1 do
    let xv = BA.unsafe_get x (xo + (r * rs)) in
    BA.unsafe_set d (doff + r) (if xv <> 0. then 0. +. (xv *. w) else 0.)
  done;
  for k = 1 to n_in - 1 do
    let w = BA.unsafe_get th (tho + (k * n_out)) and xk = xo + (k * ks) in
    for r = 0 to rows - 1 do
      let xv = BA.unsafe_get x (xk + (r * rs)) in
      if xv <> 0. then BA.unsafe_set d (doff + r) (BA.unsafe_get d (doff + r) +. (xv *. w))
    done
  done

(* Normalisation, every filter stage and the scaled pre-activation of
   output feature [c], in one loop over its rows: per element,
   [T.add_mul_rv_inplace]'s (d + bias) * inv, each stage's
   [T.affine_rv_into] s * a + v * b, and [Ptanh.apply_batch_t]'s
   (v + -e3) * e4, in that order. [d] holds the crossbar sums and leaves
   holding the normalised filter input; stage [i]'s state is read from
   [st.(i)] at [rd + r] and written at [wr + r] (equal offsets update it
   in place); the pre-activation goes to [o]. The filter order is the
   number of stages. *)
let filter_pass ~rows (l : layer_t) c (d : T.buffer) doff (st : T.buffer array) ~rd ~wr
    (o : T.buffer) oo =
  let module BA = Bigarray.Array1 in
  let bias = l.cb.bias_num and inv = l.cb.inv_den in
  let e3 = l.act.eta.(2) and e4 = l.act.eta.(3) in
  let bias = BA.unsafe_get bias.T.data (bias.T.off + c)
  and inv = BA.unsafe_get inv.T.data (inv.T.off + c)
  and e3 = BA.unsafe_get e3.T.data (e3.T.off + c)
  and e4 = BA.unsafe_get e4.T.data (e4.T.off + c) in
  match (l.filt.stages_t, st) with
  | [| f1 |], [| s1 |] ->
      let a1 = BA.unsafe_get f1.a.T.data (f1.a.T.off + c)
      and b1 = BA.unsafe_get f1.b.T.data (f1.b.T.off + c) in
      for r = 0 to rows - 1 do
        let v = (BA.unsafe_get d (doff + r) +. bias) *. inv in
        BA.unsafe_set d (doff + r) v;
        let v = (BA.unsafe_get s1 (rd + r) *. a1) +. (v *. b1) in
        BA.unsafe_set s1 (wr + r) v;
        BA.unsafe_set o (oo + r) ((v +. -.e3) *. e4)
      done
  | [| f1; f2 |], [| s1; s2 |] ->
      let a1 = BA.unsafe_get f1.a.T.data (f1.a.T.off + c)
      and b1 = BA.unsafe_get f1.b.T.data (f1.b.T.off + c)
      and a2 = BA.unsafe_get f2.a.T.data (f2.a.T.off + c)
      and b2 = BA.unsafe_get f2.b.T.data (f2.b.T.off + c) in
      for r = 0 to rows - 1 do
        let v = (BA.unsafe_get d (doff + r) +. bias) *. inv in
        BA.unsafe_set d (doff + r) v;
        let v = (BA.unsafe_get s1 (rd + r) *. a1) +. (v *. b1) in
        BA.unsafe_set s1 (wr + r) v;
        let v = (BA.unsafe_get s2 (rd + r) *. a2) +. (v *. b2) in
        BA.unsafe_set s2 (wr + r) v;
        BA.unsafe_set o (oo + r) ((v +. -.e3) *. e4)
      done
  | _ -> invalid_arg "Network.filter_pass: one state per stage, one or two stages"

(* The rest of [Ptanh.apply_batch_t] for feature [c]: the tanh of the
   pre-activations in [th], kept in place, then the e2/e1 affine into
   [o] (the same buffer under evaluation, where the activation
   overwrites the tanh). `Fast runs the tanh as [Fast_math.apply_range]
   over the row (one unboxed in-module loop, <=1e-7 absolute error; see
   docs/BATCHING.md). `Exact calls the unboxed [Stdlib.tanh] extern,
   bit-identical to the Var path. *)
let tanh_pass ~fast ~rows (l : layer_t) c (th : T.buffer) (o : T.buffer) fo =
  let module BA = Bigarray.Array1 in
  let e1 = l.act.eta.(0) and e2 = l.act.eta.(1) in
  let e1 = BA.unsafe_get e1.T.data (e1.T.off + c) and e2 = BA.unsafe_get e2.T.data (e2.T.off + c) in
  if fast then begin
    Pnc_tensor.Fast_math.apply_range th ~off:fo ~len:rows;
    for r = 0 to rows - 1 do
      BA.unsafe_set o (fo + r) ((BA.unsafe_get th (fo + r) *. e2) +. e1)
    done
  end
  else
    for r = 0 to rows - 1 do
      let y = Stdlib.tanh (BA.unsafe_get th (fo + r)) in
      BA.unsafe_set th (fo + r) y;
      BA.unsafe_set o (fo + r) ((y *. e2) +. e1)
    done

(* Time step [t] of one layer: for each output feature, the crossbar,
   filter and tanh passes in turn, each state read from slot [t] and
   written to slot [t + 1]. Input element [(r, k)] is [x.{xo + r * rs +
   k * ks}]: the first layer reads its row-major [rows x n_in] step with
   [rs = n_in, ks = 1], later layers the previous feature-major
   activations with [rs = 1, ks = rows]. *)
let step_layer ~fast ~rows ~t lw (l : layer_t) (x : T.buffer) xo ~rs ~ks =
  let th = l.cb.theta_eff and n_out = lw.n_out in
  for c = 0 to n_out - 1 do
    let fo = (t * lw.stride) + (c * rows) in
    crossbar_pass ~rows lw.dv fo x xo ~rs ~ks ~n_in:lw.n_in th.T.data (th.T.off + c) ~n_out;
    filter_pass ~rows l c lw.dv fo lw.st ~rd:fo ~wr:(fo + lw.stride) lw.th fo;
    tanh_pass ~fast ~rows l c lw.th lw.out fo
  done

(* The batch input: one [rows x n_in] tensor per time step, or one
   [rows x steps] series tensor of a single-input circuit, whose step
   [t] is column [t]. *)
type input = Steps of T.t array | Series of T.t

let input_steps = function Steps steps -> Array.length steps | Series x -> T.cols x
let input_rows = function Steps steps -> T.rows steps.(0) | Series x -> T.rows x

(* The initial filter states, written into slot 0 of every stage's
   state buffer. Like the draw, they describe the physical situation:
   one fill for the whole batch. `V0 repeats the draw's sampled
   voltages down the rows; `Gaussian draws its stream layer by layer,
   then stage-major, then row-major, as [Filter_layer.init_state_t]
   over each layer's [rows x n_out] state does. *)
let init_states ~init ~rows tr kern =
  let module BA = Bigarray.Array1 in
  Array.iteri
    (fun li lw ->
      let l = kern.(li) in
      Array.iteri
        (fun i s ->
          let n_out = lw.n_out in
          match init with
          | `V0 ->
              let v0 = l.filt.stages_t.(i).v0 in
              assert (T.rows v0 = 1 && T.cols v0 = n_out);
              for c = 0 to n_out - 1 do
                let v = BA.unsafe_get v0.T.data (v0.T.off + c) in
                for r = 0 to rows - 1 do
                  BA.unsafe_set s ((c * rows) + r) v
                done
              done
          | `Zero ->
              for j = 0 to (n_out * rows) - 1 do
                BA.unsafe_set s j 0.
              done
          | `Gaussian (rng, sigma) ->
              for r = 0 to rows - 1 do
                for c = 0 to n_out - 1 do
                  BA.unsafe_set s ((c * rows) + r) (Pnc_util.Rng.gaussian ~sigma rng)
                done
              done)
        lw.st)
    tr.per_layer

(* Run the batch through all time steps of one circuit instance in the
   workspace [tr], starting from the [init] filter states. The batch
   reads each step in place (a series at row stride [T.cols x]),
   allocates nothing per time step, and returns fresh [rows x classes]
   logits. *)
let forward_block ~fast ~readout ~init tr kern input =
  let module BA = Bigarray.Array1 in
  let rows = tr.rows and n_steps = tr.steps and layers = tr.per_layer in
  let n_layers = Array.length layers in
  assert (
    input_rows input = rows && input_steps input = n_steps && fits tr ~rows ~steps:n_steps kern);
  Array.iteri
    (fun li lw ->
      let l = kern.(li) in
      assert (li = 0 || lw.n_in = layers.(li - 1).n_out);
      List.iter
        (fun t -> assert (T.rows t = 1 && T.cols t = lw.n_out))
        (l.cb.bias_num :: l.cb.inv_den :: Array.to_list l.act.eta);
      Array.iter
        (fun (sr : Filter_layer.stage_t) ->
          assert (T.cols sr.a = lw.n_out && T.cols sr.b = lw.n_out))
        l.filt.stages_t)
    layers;
  init_states ~init ~rows tr kern;
  let n_in = layers.(0).n_in and last = layers.(n_layers - 1) in
  assert (T.rows tr.acc = last.n_out && T.cols tr.acc = rows);
  (match input with Series _ -> assert (n_in = 1) | Steps _ -> ());
  T.fill tr.acc 0.;
  let ad = tr.acc.T.data and plane = last.n_out * rows in
  for t = 0 to n_steps - 1 do
    (match input with
    | Steps steps ->
        let x = steps.(t) in
        assert (T.cols x = n_in && T.rows x = rows);
        step_layer ~fast ~rows ~t layers.(0) kern.(0) x.T.data x.T.off ~rs:n_in ~ks:1
    | Series x ->
        step_layer ~fast ~rows ~t layers.(0) kern.(0) x.T.data (x.T.off + t) ~rs:n_steps ~ks:1);
    for l = 1 to n_layers - 1 do
      let prev = layers.(l - 1) in
      step_layer ~fast ~rows ~t layers.(l) kern.(l) prev.out (t * prev.stride) ~rs:1 ~ks:rows
    done;
    (* Read-out: [T.add_inplace] of the last layer's activations, or
       the final step's alone. *)
    let lo = t * last.stride in
    match readout with
    | Batch.Integrated ->
        for i = 0 to plane - 1 do
          BA.unsafe_set ad i (BA.unsafe_get ad i +. BA.unsafe_get last.out (lo + i))
        done
    | Last_step ->
        if t = n_steps - 1 then
          for i = 0 to plane - 1 do
            BA.unsafe_set ad i (BA.unsafe_get last.out (lo + i))
          done
  done;
  (* The logits, transposed out of the feature-major accumulator: the
     integrated read-out's [T.scale] by 1/T element by element. *)
  let classes = last.n_out in
  let logits = T.zeros ~rows ~cols:classes in
  let ld = logits.T.data in
  (match readout with
  | Integrated ->
      let k = 1. /. float_of_int n_steps in
      for c = 0 to classes - 1 do
        for r = 0 to rows - 1 do
          BA.unsafe_set ld ((r * classes) + c) (k *. BA.unsafe_get ad ((c * rows) + r))
        done
      done
  | Last_step ->
      for c = 0 to classes - 1 do
        for r = 0 to rows - 1 do
          BA.unsafe_set ld ((r * classes) + c) (BA.unsafe_get ad ((c * rows) + r))
        done
      done);
  logits

let forward_trajectory tr ~readout kern steps =
  forward_block ~fast:false ~readout ~init:`V0 tr kern (Steps steps)

(* Each domain's evaluation workspace. A caller checks it out by
   emptying the slot and puts it back when done, so systhreads of one
   domain never share it: one that finds the slot empty builds its
   own. *)
let eval_slot : trajectory option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

(* One physical circuit instance: the layers realized under one draw.
   Its records are only read by a forward, so one instance may be run
   by any number of domains and threads at once. *)
type instance = layer_t array

let realize ~varied ~draw net =
  Batch.count_realization ();
  Array.of_list (realize_net_t ~varied ~draw net)

let forward_input ~(opts : Batch.opts) (kern : instance) input =
  assert (input_steps input > 0);
  let rows = input_rows input and steps = input_steps input in
  let fast = match opts.precision with `Fast -> true | `Exact -> false in
  let slot = Domain.DLS.get eval_slot in
  let cell = Atomic.exchange slot None in
  let tr =
    match cell with
    | Some tr when fits tr ~rows ~steps kern -> tr
    | _ -> make_trajectory ~keep:false ~rows ~steps kern
  in
  let logits =
    Batch.timed opts ~rows (fun () ->
        forward_block ~fast ~readout:opts.readout ~init:opts.state_init tr kern input)
  in
  (* The checked-out cell goes back as it came when it still holds the
     workspace: a fresh [Some] per forward would be young in the slot at
     every minor collection, and promoted. *)
  Atomic.set slot (match cell with Some tr' when tr' == tr -> cell | _ -> Some tr);
  logits

let forward_multi_batch_t ?(opts = Batch.default) ~draw net steps =
  forward_input ~opts (realize ~varied:opts.varied ~draw net) (Steps steps)

let forward_batch_t ?(opts = Batch.default) ~draw net x =
  forward_input ~opts (realize ~varied:opts.varied ~draw net) (Series x)

let clamp net =
  List.iter
    (fun (cb, fl, act) ->
      Crossbar.clamp cb;
      Filter_layer.clamp fl;
      Ptanh.clamp act)
    net.layers
