module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Loss = Pnc_autodiff.Loss
module BA = Bigarray.Array1

(* {1 One draw}

   What the sweep needs of one draw: the layers
   [Network.realize_net_t] realized it into, whose records keep the
   variation factors beside the effective values the per-op graph
   computed from them. Everything is captured when the node is built,
   as the tape captures its node values. *)

type sample = {
  ste : bool;
  kern : Network.layer_t array;
  mutable logits : T.t;
  mutable value : float; (* the draw's cross-entropy *)
}

(* {1 Workspace}

   One draw's trajectory, which [Network.forward_trajectory] fills,
   plus the sweep's scratch, feature-major like the trajectory: a
   gradient slot is an [n_out x rows] plane, feature [c] at offset
   [c * rows]. One workspace per domain is kept and reused for as long
   as the shapes match, across draws, nodes and epochs. *)

type layer_grads = {
  gst : T.buffer array; (* per stage, dL/dS at the step being swept *)
  gout : T.buffer; (* dL/d activations at the step being swept *)
  (* The gradients of one draw's realization nodes, summed over the
     steps; turned in place into the leaves' contributions. *)
  g_theta : T.t;
  g_bias : T.t;
  g_den : T.t;
  g_a : T.t array;
  g_b : T.t array;
  g_eta : T.t array;
}

type ws = {
  tr : Network.trajectory;
  grads : layer_grads array;
  scratch : T.buffer; (* one feature's running gradient, [rows] *)
  mutable stamp : int; (* the node whose last forwarded draw the trajectory holds *)
}

let buffer n = (T.zeros ~rows:1 ~cols:n).T.data
let row n = T.zeros ~rows:1 ~cols:n

let make_ws ~rows ~steps kern =
  let tr = Network.trajectory ~rows ~steps kern in
  let grads =
    Array.map
      (fun (lw : Network.layer_trajectory) ->
        let n_st = Array.length lw.st and n_out = lw.n_out in
        {
          gst = Array.init n_st (fun _ -> buffer (n_out * rows));
          gout = buffer (n_out * rows);
          g_theta = T.zeros ~rows:lw.n_in ~cols:n_out;
          g_bias = row n_out;
          g_den = row n_out;
          g_a = Array.init n_st (fun _ -> row n_out);
          g_b = Array.init n_st (fun _ -> row n_out);
          g_eta = Array.init 4 (fun _ -> row n_out);
        })
      tr.per_layer
  in
  { tr; grads; scratch = buffer rows; stamp = 0 }

let ws_key : ws option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let workspace ~rows ~steps kern =
  let cell = Domain.DLS.get ws_key in
  match !cell with
  | Some ws when Network.fits ws.tr ~rows ~steps kern -> ws
  | _ ->
      let ws = make_ws ~rows ~steps kern in
      cell := Some ws;
      ws

let stamps = Atomic.make 0

(* Every forward the node runs: one per draw before the sweep, and one
   per draw but the first again inside it, whose trajectory the
   workspace no longer holds (so a 2-draw epoch runs 3). An atomic add,
   no clock read. *)
let forwards_counter = Pnc_obs.Obs.Counter.make "train.node_forwards"

let forward ws ~readout kern steps =
  Pnc_obs.Obs.Counter.incr forwards_counter;
  Network.forward_trajectory ws.tr ~readout kern steps

(* {1 Reverse sweep}

   Each pass covers one feature of one step and evaluates, per element,
   the backward closure of the per-op node it stands for ([Var.mul_rv],
   [Var.tanh], [Var.affine_rv], [Var.div_rv], [Var.matmul], ...), with
   the same operands in the same order. A per-feature reduction
   ([T.sum_rows], the matmul's inner sum) runs over rows from [0.] as
   there; across steps a realization node's gradient starts as the
   contribution of the last step and adds each earlier one, which is
   [Var.backward]'s accumulation order ([first] marks the last step). *)

(* [acc.{i}] takes the step's sum [s]: set at the last step, added
   before it. *)
let[@inline] add_into ~first (acc : T.buffer) i s =
  BA.unsafe_set acc i (if first then s else BA.unsafe_get acc i +. s)

(* Printed tanh of one feature: from dL/dOUT, the η₁..η₄ contributions
   into [g1]..[g4] and dL/d(filter output) into [scratch]. *)
let ptanh_back ~rows ~first (gout : T.buffer) go (th : T.buffer) fo (s : T.buffer) so
    (scratch : T.buffer) (e2 : T.buffer) eo2 (e3 : T.buffer) eo3 (e4 : T.buffer) eo4
    (g1 : T.buffer) (g2 : T.buffer) (g3 : T.buffer) (g4 : T.buffer) c =
  let e2 = BA.unsafe_get e2 eo2 and e3 = BA.unsafe_get e3 eo3 and e4 = BA.unsafe_get e4 eo4 in
  let s1 = ref 0. and s2 = ref 0. and s3 = ref 0. and s4 = ref 0. in
  for r = 0 to rows - 1 do
    let g = BA.unsafe_get gout (go + r) and y = BA.unsafe_get th (fo + r) in
    s1 := !s1 +. g;
    s2 := !s2 +. (g *. y);
    let gm = g *. e2 *. (1. -. (y *. y)) in
    s4 := !s4 +. (gm *. (BA.unsafe_get s (so + r) +. -.e3));
    let gv = gm *. e4 in
    s3 := !s3 +. gv;
    BA.unsafe_set scratch r gv
  done;
  add_into ~first g1 c !s1;
  add_into ~first g2 c !s2;
  add_into ~first g3 c (-. !s3);
  add_into ~first g4 c !s4

(* Stage [i] of one feature: [scratch] holds the input-side gradient of
   S_i(t), absent when [carry] (the output stage of a last-step read-out
   before the final step, whose tanh the per-op graph never reaches);
   [gst] carries dL/dS_i(t+1) and leaves with dL/dS_i(t). The
   coefficient contributions use S_i(t-1) ([prev]) and the stage input
   ([xin]); [scratch] leaves holding dL/dS_i(t) * b, the input-side
   gradient of the stage below (or of the crossbar output). *)
let stage_back ~rows ~first ~carry (gst : T.buffer) go (scratch : T.buffer) (prev : T.buffer) po
    (xin : T.buffer) xo (a : T.buffer) ao (b : T.buffer) bo (g_a : T.buffer) (g_b : T.buffer) c =
  let a = BA.unsafe_get a ao and b = BA.unsafe_get b bo in
  let sa = ref 0. and sb = ref 0. in
  for r = 0 to rows - 1 do
    let g =
      if carry then BA.unsafe_get gst (go + r) *. a
      else
        let inp = BA.unsafe_get scratch r in
        if first then inp else (BA.unsafe_get gst (go + r) *. a) +. inp
    in
    BA.unsafe_set gst (go + r) g;
    sa := !sa +. (g *. BA.unsafe_get prev (po + r));
    sb := !sb +. (g *. BA.unsafe_get xin (xo + r));
    BA.unsafe_set scratch r (g *. b)
  done;
  add_into ~first g_a c !sa;
  add_into ~first g_b c !sb

(* Bias and normalisation of one feature ([Var.div_rv] over
   [Var.add_rv]): [scratch] goes from dL/d(normalised sum) to dL/d(sum). *)
let normalise_back ~rows ~first (scratch : T.buffer) (y : T.buffer) yo (inv : T.buffer) io
    (g_den : T.buffer) (g_bias : T.buffer) c =
  let inv = BA.unsafe_get inv io in
  let sd = ref 0. and sbias = ref 0. in
  for r = 0 to rows - 1 do
    let g = BA.unsafe_get scratch r in
    sd := !sd +. (g *. BA.unsafe_get y (yo + r) *. inv);
    let gs = g *. inv in
    sbias := !sbias +. gs;
    BA.unsafe_set scratch r gs
  done;
  add_into ~first g_den c (-. !sd);
  add_into ~first g_bias c !sbias

(* [Var.matmul]'s weight side for one (input, output) pair: the inner
   sum over rows with exactly-zero inputs skipped. *)
let theta_back ~rows ~first (x : T.buffer) xo ~rs (scratch : T.buffer) (g_theta : T.buffer) idx =
  let s = ref 0. in
  for r = 0 to rows - 1 do
    let xv = BA.unsafe_get x (xo + (r * rs)) in
    if xv <> 0. then s := !s +. (xv *. BA.unsafe_get scratch r)
  done;
  add_into ~first g_theta idx !s

(* [Var.matmul]'s input side: output feature [c]'s share of dL/d(layer
   input) for one input, added in ascending [c] like the matmul's inner
   loop, zero gradients skipped. *)
let input_back ~rows (gin : T.buffer) gio (scratch : T.buffer) (w : T.buffer) wo =
  let w = BA.unsafe_get w wo in
  for r = 0 to rows - 1 do
    let g = BA.unsafe_get scratch r in
    if g <> 0. then BA.unsafe_set gin (gio + r) (BA.unsafe_get gin (gio + r) +. (g *. w))
  done

(* Sweep step [t] of layer [li], whose dL/d activations are in its
   [gout]; [live] is false where they have none (the top layer of a
   last-step read-out before the final step). Without [theta], the
   layer's θ is not stepped and its gradient is not formed. *)
let sweep_step ws (d : sample) (steps : T.t array) ~t ~li ~live ~theta =
  let tr = ws.tr and gr = ws.grads.(li) in
  let rows = tr.rows and lw = tr.per_layer.(li) and l = d.kern.(li) in
  let first = t = tr.steps - 1 in
  let n_out = lw.n_out and n_st = Array.length lw.st and plane = lw.stride in
  let th = l.cb.theta_eff and inv = l.cb.inv_den in
  let e2 = l.act.eta.(1) and e3 = l.act.eta.(2) and e4 = l.act.eta.(3) in
  let g1 = gr.g_eta.(0).T.data and g2 = gr.g_eta.(1).T.data in
  let g3 = gr.g_eta.(2).T.data and g4 = gr.g_eta.(3).T.data in
  (* The layer input at step t: the data, or the layer below. *)
  let below = tr.per_layer.(if li = 0 then 0 else li - 1) in
  let x = if li = 0 then steps.(t).T.data else below.out in
  let xo = if li = 0 then steps.(t).T.off else t * below.stride in
  let rs = if li = 0 then lw.n_in else 1 and ks = if li = 0 then 1 else rows in
  if li > 0 then BA.fill ws.grads.(li - 1).gout 0.;
  for c = 0 to n_out - 1 do
    let go = c * rows and fo = (t * plane) + (c * rows) in
    if live then
      ptanh_back ~rows ~first gr.gout go lw.th fo lw.st.(n_st - 1) (fo + plane) ws.scratch
        e2.T.data (e2.T.off + c) e3.T.data (e3.T.off + c) e4.T.data (e4.T.off + c) g1 g2 g3 g4 c;
    for i = n_st - 1 downto 0 do
      let a = l.filt.stages_t.(i).a and b = l.filt.stages_t.(i).b in
      let xin = if i = 0 then lw.dv else lw.st.(i - 1) and xio = if i = 0 then fo else fo + plane in
      let carry = (not live) && i = n_st - 1 in
      stage_back ~rows ~first ~carry gr.gst.(i) go ws.scratch lw.st.(i) fo xin xio a.T.data
        (a.T.off + c) b.T.data (b.T.off + c) gr.g_a.(i).T.data gr.g_b.(i).T.data c
    done;
    normalise_back ~rows ~first ws.scratch lw.dv fo inv.T.data (inv.T.off + c) gr.g_den.T.data
      gr.g_bias.T.data c;
    if theta then
      for i = 0 to lw.n_in - 1 do
        theta_back ~rows ~first x (xo + (i * ks)) ~rs ws.scratch gr.g_theta.T.data
          ((i * n_out) + c)
      done;
    if li > 0 then
      for i = 0 to lw.n_in - 1 do
        input_back ~rows ws.grads.(li - 1).gout (i * rows) ws.scratch th.T.data
          (th.T.off + (i * n_out) + c)
      done
  done

let sign u = if u > 0. then 1. else if u < 0. then -1. else 0.

let crossbar_leaves cb =
  match Crossbar.params cb with [ theta; theta_b ] -> (theta, theta_b) | _ -> assert false

(* The realization nodes of one layer, from the step gradients summed in
   the accumulators to each leaf's contribution (computed in place),
   then emitted to the leaves in [on]. Per feature, the scalar
   arithmetic of the per-op nodes: the crossbar's V_supply·θ_b numerator
   and |θ_eff| denominator, the filter's a = τ/(µτ + Δt) and
   b = Δt/(µτ + Δt) with τ = τ_max·R·C and drift-scaled R and C, and
   each fold (×ε, or straight through under noise injection). *)
let realization_back ~emit ~on (smp : sample) (lw : Network.layer_trajectory) gr
    (l : Network.layer_t) (cb, fl, act) =
  let fold g eps = if smp.ste then g else g *. eps in
  let n_out = lw.n_out in
  let theta, theta_b = crossbar_leaves cb in
  for c = 0 to n_out - 1 do
    let gden = T.get gr.g_den 0 c in
    let gb =
      (gden *. sign (T.get l.cb.bias_eff 0 c)) +. (Printed.v_supply *. T.get gr.g_bias 0 c)
    in
    T.set gr.g_bias 0 c (fold gb (T.get l.cb.bias_eps 0 c));
    if on theta then
      for i = 0 to lw.n_in - 1 do
        let g = T.get gr.g_theta i c +. (gden *. sign (T.get l.cb.theta_eff i c)) in
        T.set gr.g_theta i c (fold g (T.get l.cb.theta_eps i c))
      done
  done;
  if on theta then emit theta gr.g_theta;
  if on theta_b then emit theta_b gr.g_bias;
  let leaves = Array.of_list (Filter_layer.params fl) in
  let drift m g = if m = 1. then g else m *. g in
  Array.iteri
    (fun i (s : Filter_layer.stage_t) ->
      for c = 0 to n_out - 1 do
        let ga = T.get gr.g_a.(i) 0 c and gb = T.get gr.g_b.(i) 0 c in
        let den = T.get s.den 0 c in
        let gden = -.(gb *. T.get s.b 0 c /. den) +. -.(ga *. T.get s.a 0 c /. den) in
        let gtau = (ga /. den) +. (gden *. T.get s.mu 0 c) in
        let gm = Filter_layer.tau_max *. gtau in
        let g_r = drift l.filt.r_mult (gm *. T.get s.c_eff 0 c)
        and g_c = drift l.filt.c_mult (gm *. T.get s.r_eff 0 c) in
        T.set gr.g_a.(i) 0 c (fold g_r (T.get s.eps_r 0 c));
        T.set gr.g_b.(i) 0 c (fold g_c (T.get s.eps_c 0 c))
      done;
      if on leaves.(2 * i) then emit leaves.(2 * i) gr.g_a.(i);
      if on leaves.((2 * i) + 1) then emit leaves.((2 * i) + 1) gr.g_b.(i))
    l.filt.stages_t;
  List.iteri
    (fun j eta ->
      if on eta then begin
        let g = gr.g_eta.(j) in
        for c = 0 to n_out - 1 do
          T.set g 0 c (fold (T.get g 0 c) (T.get l.act.eps.(j) 0 c))
        done;
        emit eta g
      end)
    (Ptanh.params act)

(* One draw's reverse sweep. [gl] is dL/d(this draw's cross-entropy);
   the trajectory in [ws] must be this draw's. *)
let sweep ws ~readout (smp : sample) steps ~gl ~labels ~emit ~on net =
  let tr = ws.tr in
  let rows = tr.rows and n_layers = Array.length tr.per_layer in
  let top = tr.per_layer.(n_layers - 1) and gtop = ws.grads.(n_layers - 1).gout in
  (* dL/d(output activations): the cross-entropy's (softmax −
     onehot)/batch, times the integrated read-out's 1/T at every step,
     or at the final step alone for a last-step read-out (times 1,
     exactly as the per-op graph, which has no scale node there). *)
  let probs = Loss.softmax_rows smp.logits in
  let k = match readout with Batch.Integrated -> 1. /. float_of_int tr.steps | Last_step -> 1. in
  let nb = float_of_int rows in
  for c = 0 to top.n_out - 1 do
    for r = 0 to rows - 1 do
      let y = if labels.(r) = c then 1. else 0. in
      BA.unsafe_set gtop ((c * rows) + r) (k *. (gl *. ((T.get probs r c -. y) /. nb)))
    done
  done;
  let layers = Array.of_list (Network.layers net) in
  let theta = Array.map (fun (cb, _, _) -> on (fst (crossbar_leaves cb))) layers in
  for t = tr.steps - 1 downto 0 do
    for li = n_layers - 1 downto 0 do
      let live = li < n_layers - 1 || readout = Batch.Integrated || t = tr.steps - 1 in
      sweep_step ws smp steps ~t ~li ~live ~theta:theta.(li)
    done
  done;
  Array.iteri
    (fun li layer ->
      realization_back ~emit ~on smp tr.per_layer.(li) ws.grads.(li) smp.kern.(li) layer)
    layers

(* {1 The node} *)

let expected ?params ~n ~tasks ~readout net ~steps ~labels =
  let params = match params with Some ps -> ps | None -> Network.params net in
  let on p = List.memq p params in
  let n_steps = Array.length steps in
  assert (n_steps > 0 && Array.length labels = T.rows steps.(0));
  let rows = T.rows steps.(0) in
  let samples =
    Array.map
      (Array.map (fun d ->
           {
             ste = d.Variation.ste;
             kern = Array.of_list (Network.realize_net_t ~varied:Batch.all_families ~draw:d net);
             logits = T.zeros ~rows:0 ~cols:0;
             value = nan;
           }))
      tasks
  in
  (* The per-op objective summed the tasks in order and built a pair as
     [Var.add (loss d1) (loss d2)], whose arguments OCaml evaluates
     right to left: the tape swept tasks last to first and, within a
     pair, d1 before d2. The sweep visits the samples in that order. *)
  let order = Array.concat (List.rev (Array.to_list samples)) in
  let kern = order.(0).kern in
  let ws = workspace ~rows ~steps:n_steps kern in
  let stamp = 1 + Atomic.fetch_and_add stamps 1 in
  (* Forward in the reverse of the sweep's order, so the trajectory left
     in the workspace is the first one the sweep needs. *)
  for k = Array.length order - 1 downto 0 do
    let smp = order.(k) in
    smp.logits <- forward ws ~readout smp.kern steps;
    smp.value <- Loss.cross_entropy_value ~logits:smp.logits ~labels
  done;
  ws.stamp <- stamp;
  (* [Mc_loss.expected_value]'s sum: per task, then over tasks. *)
  let task_value = function
    | [| s |] -> s.value
    | [| s1; s2 |] -> s1.value +. s2.value
    | _ -> invalid_arg "Adjoint.expected: a task holds one draw or an antithetic pair"
  in
  let value = 1. /. float_of_int n *. Array.fold_left ( +. ) 0. (Array.map task_value samples) in
  Var.fused (T.scalar value) ~parents:params (fun g emit ->
      let gl = 1. /. float_of_int n *. T.get_scalar g in
      let ws = workspace ~rows ~steps:n_steps kern in
      Array.iteri
        (fun k smp ->
          if k > 0 || ws.stamp <> stamp then begin
            ignore (forward ws ~readout smp.kern steps);
            ws.stamp <- 0
          end;
          sweep ws ~readout smp steps ~gl ~labels ~emit ~on net)
        order)
