(* Differential-oracle battery for the no-grad engine: batched logits
   must be bit-identical (eps 0) to the Var forward — the training path
   and the oracle — for all three model families, on whole tensors and
   on row views at a non-zero offset, down to a single row. The fused
   layer step is pinned to the unfused per-layer kernels under both
   precision tiers, and the per-family draw selection to an explicit
   per-family realization. The dune rules re-run this binary under
   POOL_SIZE=1/4, so the parity claims hold under the multicore pool.

   The battery's own sensitivity is verified at the end: a locally
   reimplemented tiled matmul with a classic off-by-one (the ragged
   final tile dropped) must diverge from the library kernel at eps 0 —
   if an eps-0 comparison could not see that bug, none of the parity
   checks above would mean anything. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Batch = Pnc_core.Batch
module Variation = Pnc_core.Variation
module Crossbar = Pnc_core.Crossbar
module Filter_layer = Pnc_core.Filter_layer
module Ptanh = Pnc_core.Ptanh
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Mc_loss = Pnc_core.Mc_loss
module Sensitivity = Pnc_core.Sensitivity

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

let eq0 = T.equal_eps ~eps:0.
let draw_of ~seed ~level = Variation.make_draw (Rng.create ~seed) (Variation.uniform level)

(* Fused engine vs unfused kernels --------------------------------------- *)

(* Both circuit architectures — first-order (pTPNC) and second-order
   (ADAPT) filters — over one input. *)
let circuit_case rng =
  let classes = 2 + Rng.int rng 3 in
  let rows = 1 + Rng.int rng 24 in
  let time = 2 + Rng.int rng 10 in
  let seed = Rng.int rng 10_000 in
  let nets =
    List.map
      (fun arch -> Network.create ~hidden:(2 + Rng.int rng 4) rng arch ~inputs:1 ~classes)
      [ Network.Ptpnc; Network.Adapt ]
  in
  (nets, T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1., seed)

let pp_circuit_case (_, x, seed) =
  Printf.sprintf "rows=%d time=%d seed=%d" (T.rows x) (T.cols x) seed

(* The engine recomposed from the unfused per-layer kernels, one time
   step at a time, in the engine's sampling order (filter, activation,
   crossbar) with one explicit draw per component family. *)
let unfused_forward_multi ?(init = `V0) ~precision ~readout ~draws:(d_crossbar, d_filter, d_act) net
    steps =
  let rows = T.rows steps.(0) in
  let layers =
    List.map
      (fun (cb, fl, act) ->
        let f = Filter_layer.realize_t ~draw:d_filter fl in
        let a = Ptanh.realize_t ~draw:d_act act in
        let c = Crossbar.realize_t ~draw:d_crossbar cb in
        (c, f, a, Filter_layer.init_state_t ~init f ~batch:rows))
      (Network.layers net)
  in
  let acc = T.zeros ~rows ~cols:(Network.classes net) in
  let last = ref acc in
  Array.iter
    (fun x_t ->
      let out =
        List.fold_left
          (fun x (c, f, a, st) ->
            Ptanh.apply_batch_t ~precision a
              (Filter_layer.step_batch_t f st (Crossbar.apply_batch_t c x)))
          x_t layers
      in
      T.add_inplace acc out;
      last := out)
    steps;
  match readout with
  | Batch.Integrated -> T.scale (1. /. float_of_int (Array.length steps)) acc
  | Last_step -> !last

let unfused_forward ?init ~precision ~readout ~draws net x =
  unfused_forward_multi ?init ~precision ~readout ~draws net (T.columns x)

let tiers_and_readouts =
  [ (`Exact, Batch.Integrated); (`Exact, Last_step); (`Fast, Integrated); (`Fast, Last_step) ]

let test_fused_vs_unfused () =
  Qgen.check ~count:20 ~name:"fused engine = unfused kernels" ~pp:pp_circuit_case circuit_case
    (fun (nets, x, seed) ->
      List.for_all
        (fun net ->
          List.for_all
            (fun (precision, readout) ->
              let d = draw_of ~seed ~level:0.1 in
              eq0
                (unfused_forward ~precision ~readout ~draws:(d, d, d) net x)
                (Network.forward_batch_t ~opts:{ Batch.default with precision; readout }
                   ~draw:(draw_of ~seed ~level:0.1) net x))
            tiers_and_readouts)
        nets)

(* The fused engine writes the initial filter states straight into its
   workspace; under every [state_init] they must be the states
   [Filter_layer.init_state_t] builds, a `Gaussian stream consumed
   layer by layer, stage-major, then row-major. *)
let test_state_init_parity () =
  Qgen.check ~count:20 ~name:"fused engine = unfused kernels, every state_init"
    ~pp:pp_circuit_case circuit_case (fun (nets, x, seed) ->
      List.for_all
        (fun net ->
          List.for_all
            (fun init ->
              let d = draw_of ~seed ~level:0.1 in
              eq0
                (unfused_forward ~init:(init ()) ~precision:`Exact ~readout:Batch.Integrated
                   ~draws:(d, d, d) net x)
                (Network.forward_batch_t
                   ~opts:{ Batch.default with state_init = init () }
                   ~draw:(draw_of ~seed ~level:0.1) net x))
            [
              (fun () -> `V0);
              (fun () -> `Zero);
              (fun () -> `Gaussian (Rng.create ~seed:(seed + 1), 0.3));
            ])
        nets)

(* [forward_batch_t] reads a [rows x time] series in place, at row
   stride [time] (and from a row view's offset); the split-steps path
   reads one transposed tensor per step. Same numbers, bit for bit, for
   both circuit architectures, both tiers and both read-outs. *)
let test_series_in_place () =
  let case rng =
    let classes = 2 + Rng.int rng 3 and rows = 1 + Rng.int rng 70 and time = 2 + Rng.int rng 10 in
    let seed = Rng.int rng 10_000 in
    let nets =
      List.map
        (fun arch -> Network.create ~hidden:(2 + Rng.int rng 4) rng arch ~inputs:1 ~classes)
        [ Network.Ptpnc; Network.Adapt ]
    in
    let x = T.uniform rng ~rows:(rows + 2) ~cols:time ~lo:(-1.) ~hi:1. in
    (nets, T.rows_view x ~row:1 ~len:rows, seed)
  in
  Qgen.check ~count:20 ~name:"forward_batch_t = forward_multi_batch_t (columns x)"
    ~pp:pp_circuit_case case
    (fun (nets, x, seed) ->
      List.for_all
        (fun net ->
          List.for_all
            (fun (precision, readout) ->
              let opts = { Batch.default with precision; readout } in
              eq0
                (Network.forward_multi_batch_t ~opts ~draw:(draw_of ~seed ~level:0.1) net
                   (T.columns x))
                (Network.forward_batch_t ~opts ~draw:(draw_of ~seed ~level:0.1) net x))
            tiers_and_readouts)
        nets)

(* Multivariate circuits (2-3 inputs) fed [rows x inputs] steps salted
   with exact zeros of both signs: the first layer's strided read of
   the step and the crossbar's exactly-zero-input skip, which the
   univariate uniform inputs above never reach. *)
let multi_input_case rng =
  let classes = 2 + Rng.int rng 3 in
  let inputs = 2 + Rng.int rng 2 in
  let rows = 1 + Rng.int rng 24 in
  let time = 2 + Rng.int rng 10 in
  let seed = Rng.int rng 10_000 in
  let nets =
    List.map
      (fun arch -> Network.create ~hidden:(2 + Rng.int rng 4) rng arch ~inputs ~classes)
      [ Network.Ptpnc; Network.Adapt ]
  in
  let entry _ _ =
    match Rng.int rng 4 with 0 -> 0. | 1 -> -0. | _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.
  in
  (nets, Array.init time (fun _ -> T.init ~rows ~cols:inputs entry), seed)

let pp_multi_input_case (_, steps, seed) =
  Printf.sprintf "rows=%d inputs=%d time=%d seed=%d" (T.rows steps.(0)) (T.cols steps.(0))
    (Array.length steps) seed

let test_multi_input_parity () =
  Qgen.check ~count:20 ~name:"multi-input fused engine = unfused kernels = Var"
    ~pp:pp_multi_input_case multi_input_case (fun (nets, steps, seed) ->
      List.for_all
        (fun net ->
          List.for_all
            (fun (precision, readout) ->
              let d = draw_of ~seed ~level:0.1 in
              let reference = unfused_forward_multi ~precision ~readout ~draws:(d, d, d) net steps in
              (* The Var forward is the `Exact oracle only. *)
              (precision = `Fast
              || eq0 reference
                   (Var.with_no_grad (fun () ->
                        Var.value
                          (Network.forward_multi ~readout ~draw:(draw_of ~seed ~level:0.1) net
                             steps))))
              && eq0 reference
                   (Network.forward_multi_batch_t ~opts:{ Batch.default with precision; readout }
                      ~draw:(draw_of ~seed ~level:0.1) net steps))
            tiers_and_readouts)
        nets)

(* Per-family draws ------------------------------------------------------ *)

let family_selections =
  let only crossbar filter activation = { Batch.crossbar; filter; activation } in
  [
    (Sensitivity.Crossbar_conductances, only true false false);
    (Filter_rc, only false true false);
    (Activation_eta, only false false true);
    (All_families, Batch.all_families);
  ]

(* For each of Sensitivity's families, batched logits under the
   selection it names equal the Var forward under the expected
   selection, and both equal the unfused kernels realized with the draw
   handed to exactly the expected families — so a swap of two families
   in Sensitivity's table or anywhere in the engine's wiring diverges at
   eps 0. *)
let test_family_parity () =
  Qgen.check ~count:15 ~name:"per-family batched = Var" ~pp:pp_circuit_case circuit_case
    (fun (nets, x, seed) ->
      List.for_all
        (fun net ->
          List.for_all
            (fun (family, (varied : Batch.families)) ->
              let oracle =
                Var.with_no_grad (fun () ->
                    Var.value (Network.forward ~varied ~draw:(draw_of ~seed ~level:0.3) net x))
              in
              let d = draw_of ~seed ~level:0.3 in
              let pick on = if on then d else Variation.deterministic in
              let explicit =
                unfused_forward ~precision:`Exact ~readout:Integrated
                  ~draws:(pick varied.crossbar, pick varied.filter, pick varied.activation)
                  net x
              in
              eq0 oracle explicit
              && eq0 oracle
                   (Network.forward_batch_t
                      ~opts:{ Batch.default with varied = Sensitivity.varied family }
                      ~draw:(draw_of ~seed ~level:0.3) net x))
            family_selections)
        nets)

(* Held instances --------------------------------------------------------- *)

(* A forward on a held instance is the draw-taking entry without its
   realization: for both circuit architectures, both tiers and both
   read-outs, series and pre-split steps, over a row view at an offset,
   the logits are bit-equal, and the instance gives the same logits
   every time it is run. The families an instance was realized with are
   the ones it runs: [opts.varied] is read where the instance is made. *)
let test_held_instance_parity () =
  let case rng =
    let classes = 2 + Rng.int rng 3 and rows = 1 + Rng.int rng 40 and time = 2 + Rng.int rng 10 in
    let seed = Rng.int rng 10_000 in
    let nets =
      List.map
        (fun arch -> Network.create ~hidden:(2 + Rng.int rng 4) rng arch ~inputs:1 ~classes)
        [ Network.Ptpnc; Network.Adapt ]
    in
    let x = T.uniform rng ~rows:(rows + 3) ~cols:time ~lo:(-1.) ~hi:1. in
    (nets, T.rows_view x ~row:2 ~len:rows, seed)
  in
  Qgen.check ~count:15 ~name:"held instance = draw-taking entry" ~pp:pp_circuit_case case
    (fun (nets, x, seed) ->
      let steps = T.columns x in
      List.for_all
        (fun net ->
          let model = Model.Circuit net in
          List.for_all
            (fun (_, varied) ->
              let inst = Model.realize ~varied ~draw:(draw_of ~seed ~level:0.2) model in
              List.for_all
                (fun (precision, readout) ->
                  let opts = { Batch.default with precision; readout; varied } in
                  let draw () = draw_of ~seed ~level:0.2 in
                  let series = Model.logits_batch_t ~opts ~draw:(draw ()) model x
                  and multi = Model.logits_multi_batch_t ~opts ~draw:(draw ()) model steps in
                  let held = { opts with varied = Batch.all_families } in
                  eq0 series (Model.run_batch_t ~opts:held inst x)
                  && eq0 multi (Model.run_multi_batch_t ~opts:held inst steps)
                  && eq0 series (Model.run_batch_t ~opts:held inst x))
                tiers_and_readouts)
            family_selections)
        nets)

(* End-to-end parity ----------------------------------------------------- *)

(* The input is a row view at a non-zero offset into a larger tensor,
   so every family's kernels read their rows from an offset; a single
   row is among the generated sizes. *)
let model_case rng =
  let classes = 2 + Rng.int rng 3 in
  let rows = 1 + Rng.int rng 23 in
  let time = 4 + Rng.int rng 9 in
  let seed = Rng.int rng 10_000 in
  let model =
    match Rng.int rng 3 with
    | 0 -> Model.Reference (Elman.create ~hidden:(2 + Rng.int rng 5) rng ~inputs:1 ~classes)
    | 1 ->
        Model.Circuit (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Ptpnc ~inputs:1 ~classes)
    | _ ->
        Model.Circuit (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Adapt ~inputs:1 ~classes)
  in
  let pad = 1 + Rng.int rng 3 in
  let x = T.uniform rng ~rows:(rows + pad + 1) ~cols:time ~lo:(-1.) ~hi:1. in
  (model, T.rows_view x ~row:pad ~len:rows, seed)

let pp_model_case (model, x, seed) =
  Printf.sprintf "%s rows=%d time=%d off=%d seed=%d" (Model.label model) (T.rows x) (T.cols x)
    x.T.off seed

(* Two draws from the same seed consume identical streams: one for the
   oracle, one per batched evaluation. *)
let var_logits ~seed model x =
  Var.with_no_grad (fun () ->
      Var.value (Model.logits ~draw:(draw_of ~seed ~level:0.1) model x))

let test_logits_batch_parity () =
  Qgen.check ~count:30 ~name:"logits_batch_t = Var logits" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      eq0 (var_logits ~seed model x)
        (Model.logits_batch_t ~draw:(draw_of ~seed ~level:0.1) model x))

let test_predict_batch_parity () =
  Qgen.check ~count:20 ~name:"predict_batch = Var argmax" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      Model.predict_batch ~draw:(draw_of ~seed ~level:0.1) model x
      = T.argmax_rows (var_logits ~seed model x))

(* Consumers ------------------------------------------------------------- *)

let small_dataset ~classes ~batch ~time rng =
  {
    Pnc_data.Dataset.name = "synthetic";
    x = Array.init batch (fun _ -> Array.init time (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.));
    y = Array.init batch (fun i -> i mod classes);
    n_classes = classes;
  }

(* [Train.accuracy] under a draw is the accuracy of the Var forward's
   argmax under the same draw. *)
let test_accuracy_vs_var () =
  Qgen.check ~count:8 ~name:"Train.accuracy = Var argmax accuracy" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      ignore x;
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 15) ~time:8 rng in
      let xs, y = Train.to_xy ds in
      Train.accuracy ~draw:(draw_of ~seed ~level:0.1) model ds
      = Pnc_util.Stats.accuracy ~pred:(T.argmax_rows (var_logits ~seed model xs)) ~truth:y)

let test_accuracy_under_variation_pool_invariance () =
  Qgen.check ~count:6 ~name:"accuracy under variation: pool invariant"
    ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      ignore x;
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 10) ~time:8 rng in
      let spec = Variation.uniform 0.1 in
      let oracle =
        Train.accuracy_under_variation ~rng:(Rng.create ~seed) ~spec ~draws:4 model ds
      in
      Pool.with_pool ~size:env_pool_size (fun pool ->
          Train.accuracy_under_variation ~pool ~rng:(Rng.create ~seed) ~spec ~draws:4 model ds
          = oracle))

let test_mc_loss_pool_invariance () =
  Qgen.check ~count:8 ~name:"expected_value invariant in the pool" ~pp:pp_model_case
    model_case
    (fun (model, x, seed) ->
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let labels = Array.init (T.rows x) (fun i -> i mod classes) in
      let spec = Variation.uniform 0.1 in
      let value ?pool () =
        Mc_loss.expected_value ?pool ~rng:(Rng.create ~seed) ~spec ~n:3 model ~x ~labels
      in
      let oracle = value () in
      Pool.with_pool ~size:env_pool_size (fun pool -> value ~pool () = oracle))

(* Sensitivity's rows run the selection their family names: each
   row's accuracy is the per-draw mean over Var-forward accuracies with
   that selection. *)
let test_sensitivity_wiring () =
  Qgen.check ~count:6 ~name:"sensitivity rows = Var oracle" ~pp:string_of_int
    (fun rng -> Rng.int rng 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let net = Network.create ~hidden:3 rng Network.Adapt ~inputs:1 ~classes:2 in
      let ds = small_dataset ~classes:2 ~batch:12 ~time:8 rng in
      let x, y = Train.to_xy ds in
      let level = 0.3 and draws = 3 in
      let rows = Sensitivity.analyze ~rng:(Rng.create ~seed) ~level ~draws net ds in
      List.for_all2
        (fun (row : Sensitivity.row) (family, varied) ->
          let accs =
            Array.map
              (fun r ->
                let draw = Variation.make_draw r (Variation.uniform level) in
                let logits =
                  Var.with_no_grad (fun () -> Var.value (Network.forward ~varied ~draw net x))
                in
                Pnc_util.Stats.accuracy ~pred:(T.argmax_rows logits) ~truth:y)
              (Rng.split_n (Rng.create ~seed) draws)
          in
          row.family = family && row.accuracy = Array.fold_left ( +. ) 0. accs /. float_of_int draws)
        rows family_selections)

(* Kernel oracle --------------------------------------------------------- *)

(* The parity tests above compare two paths that share the blocked
   matmul, so a tiling bug inside the kernel itself would cancel out of
   them. This check pins the kernel to an independent naive triple loop
   at shapes past the 32x32 block size with ragged row- and k-tails.
   Bit-equality is exact because the blocked kernel accumulates k in
   ascending order, the same order as the naive loop. *)
let naive_matmul a b =
  let m = T.rows a and kk = T.cols a and n = T.cols b in
  T.init ~rows:m ~cols:n (fun r c ->
      let acc = ref 0. in
      for k = 0 to kk - 1 do
        acc := !acc +. (T.get a r k *. T.get b k c)
      done;
      !acc)

let test_blocked_matmul_vs_naive () =
  Qgen.check ~count:25 ~name:"blocked matmul = naive oracle"
    ~pp:(fun (m, k, n, seed) -> Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed)
    (fun rng ->
      (* Straddle the 32-wide blocks: full tiles, ragged tails, and the
         degenerate kk=1 fast path all come up. *)
      let m = 1 + Rng.int rng 70 in
      let k = 1 + Rng.int rng 70 in
      let n = 1 + Rng.int rng 10 in
      (m, k, n, Rng.int rng 10_000))
    (fun (m, k, n, seed) ->
      let rng = Rng.create ~seed in
      let a = T.uniform rng ~rows:m ~cols:k ~lo:(-1.) ~hi:1. in
      let b = T.uniform rng ~rows:k ~cols:n ~lo:(-1.) ~hi:1. in
      eq0 (T.matmul a b) (naive_matmul a b))

(* Battery sensitivity --------------------------------------------------- *)

(* A tiled matmul with the canonical blocking bug: the loop walks only
   FULL k-tiles, silently dropping the ragged final tile. The tile size
   is deliberately small so ordinary test shapes exercise the bug. *)
let buggy_tile = 4

let buggy_tiled_matmul a b =
  let m = T.rows a and kk = T.cols a and n = T.cols b in
  let out = T.zeros ~rows:m ~cols:n in
  let k0 = ref 0 in
  while !k0 + buggy_tile <= kk do
    (* off-by-one: `<=` should be a ragged-tail `<` + clamp *)
    for r = 0 to m - 1 do
      for k = !k0 to !k0 + buggy_tile - 1 do
        let av = T.get a r k in
        for c = 0 to n - 1 do
          T.set out r c (T.get out r c +. (av *. T.get b k c))
        done
      done
    done;
    k0 := !k0 + buggy_tile
  done;
  out

let test_battery_catches_tiling_bug () =
  Qgen.check ~count:20 ~name:"eps-0 diff catches dropped ragged tile"
    ~pp:(fun (m, k, n, seed) -> Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed)
    (fun rng ->
      let m = 1 + Rng.int rng 8 in
      (* inner dimension NOT a multiple of the tile: a ragged tail exists *)
      let k = (buggy_tile * (1 + Rng.int rng 3)) + 1 + Rng.int rng (buggy_tile - 1) in
      let n = 1 + Rng.int rng 8 in
      (m, k, n, Rng.int rng 10_000))
    (fun (m, k, n, seed) ->
      let rng = Rng.create ~seed in
      let a = T.uniform rng ~rows:m ~cols:k ~lo:0.5 ~hi:1.5 in
      let b = T.uniform rng ~rows:k ~cols:n ~lo:0.5 ~hi:1.5 in
      (* Strictly positive entries: the dropped tail contribution cannot
         cancel, so the eps-0 comparison MUST see the divergence. *)
      not (eq0 (T.matmul a b) (buggy_tiled_matmul a b)))

(* Time-step split and allocation --------------------------------------- *)

let same_bits a b =
  T.same_shape a b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       (T.to_row_array a) (T.to_row_array b)

let test_columns_match_col () =
  Qgen.check ~count:30 ~name:"columns = col, bit for bit"
    ~pp:(fun (rows, cols, seed) -> Printf.sprintf "rows=%d cols=%d seed=%d" rows cols seed)
    (fun rng -> (Rng.int rng 12, 1 + Rng.int rng 12, Rng.int rng 10_000))
    (fun (rows, cols, seed) ->
      let rng = Rng.create ~seed in
      let x = T.uniform rng ~rows ~cols ~lo:(-2.) ~hi:2. in
      (* A row view exercises a non-zero source offset too. *)
      let x = if rows > 2 then T.rows_view x ~row:1 ~len:(rows - 2) else x in
      let split = T.columns x in
      Array.length split = cols
      && Array.for_all2 same_bits split (Array.init cols (T.col x)))

let test_col_bounds () =
  let x = T.uniform (Rng.create ~seed:5) ~rows:3 ~cols:4 ~lo:0. ~hi:1. in
  List.iter
    (fun c ->
      match T.col x c with
      | _ -> Alcotest.failf "T.col x %d did not raise" c
      | exception Invalid_argument _ -> ())
    [ -1; T.cols x ]

let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The no-grad draw path must be allocation-flat in the sequence
   length: a boxed float per activation read (the generic Bigarray
   stubs, or a float argument to a non-inlined helper) costs thousands
   of words per step at this shape, the fused kernel a handful. Both
   tiers and both read-outs, on the whole batch. *)
let test_forward_alloc_per_step () =
  let rows = 200 in
  let net = Network.create ~hidden:4 (Rng.create ~seed:3) Network.Adapt ~inputs:1 ~classes:3 in
  let x64 = T.uniform (Rng.create ~seed:4) ~rows ~cols:64 ~lo:(-1.) ~hi:1. in
  let x128 = T.uniform (Rng.create ~seed:4) ~rows ~cols:128 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun (precision, readout) ->
      let words x =
        let run () =
          ignore
            (Network.forward_batch_t ~opts:{ Batch.default with precision; readout }
               ~draw:(draw_of ~seed:9 ~level:0.1) net x)
        in
        run ();
        let w0 = words_allocated () in
        run ();
        words_allocated () -. w0
      in
      let w64 = words x64 and w128 = words x128 in
      let per_step = (w128 -. w64) /. 64. in
      if per_step > 64. then
        Alcotest.failf
          "%s, %s: %.0f words per extra time step (%.0f at 64 steps, %.0f at 128)"
          (Batch.precision_name precision)
          (match readout with Batch.Integrated -> "integrated" | Last_step -> "last step")
          per_step w64 w128)
    tiers_and_readouts;
  (* The reference RNN's forward takes its buffers once per call: per
     step only the time-step views remain. *)
  let rnn = Elman.create ~hidden:8 (Rng.create ~seed:3) ~inputs:1 ~classes:3 in
  List.iter
    (fun precision ->
      let words x =
        let run () =
          ignore
            (Elman.forward_multi_batch_t ~opts:{ Batch.default with precision } rnn
               (T.columns x))
        in
        run ();
        let w0 = words_allocated () in
        run ();
        words_allocated () -. w0
      in
      let w64 = words x64 and w128 = words x128 in
      let per_step = (w128 -. w64) /. 64. in
      if per_step > 16. then
        Alcotest.failf "Elman, %s: %.0f words per extra time step (%.0f at 64 steps, %.0f at 128)"
          (Batch.precision_name precision) per_step w64 w128)
    [ `Exact; `Fast ]

(* Each domain keeps its evaluation workspace: a call of the shape the
   last one had reuses it, so its allocation neither depends on the
   batch rows nor includes a workspace, while a change of shape builds
   one. *)
let test_forward_alloc_per_row () =
  let net = Network.create ~hidden:4 (Rng.create ~seed:3) Network.Adapt ~inputs:1 ~classes:3 in
  let x rows = T.uniform (Rng.create ~seed:4) ~rows ~cols:64 ~lo:(-1.) ~hi:1. in
  let x32 = x 32 and x200 = x 200 in
  let words x =
    let draw = draw_of ~seed:9 ~level:0.1 in
    let w0 = words_allocated () in
    ignore (Network.forward_batch_t ~draw net x);
    words_allocated () -. w0
  in
  ignore (words x200);
  let refit32 = words x32 in
  let w32 = words x32 and w32' = words x32 in
  let refit200 = words x200 in
  let w200 = words x200 in
  Alcotest.(check (float 0.)) "a repeated call allocates exactly the same" w32 w32';
  if Float.abs (w200 -. w32) > 16. then
    Alcotest.failf "%.0f words at 32 rows, %.0f at 200" w32 w200;
  if not (refit32 > w32 && refit200 > w200) then
    Alcotest.failf
      "a repeated shape allocates %.0f (32 rows) and %.0f (200 rows) words, a new shape %.0f \
       and %.0f"
      w32 w200 refit32 refit200

(* A forward on a held instance allocates only its logits and a
   constant: on the hidden-4 net, a realizing forward of a 32 x 64
   batch under a +-10% draw allocates 2.9k words (mostly the realized
   circuit), and one on a held instance, whose workspace the domain
   already keeps, 145; the bound is 256, both tiers, both read-outs. *)
let test_held_instance_alloc () =
  let net = Network.create ~hidden:4 (Rng.create ~seed:3) Network.Adapt ~inputs:1 ~classes:3 in
  let model = Model.Circuit net in
  let x = T.uniform (Rng.create ~seed:4) ~rows:32 ~cols:64 ~lo:(-1.) ~hi:1. in
  let inst = Model.realize ~draw:(draw_of ~seed:9 ~level:0.1) model in
  let words f =
    f ();
    let w0 = words_allocated () in
    f ();
    words_allocated () -. w0
  in
  List.iter
    (fun (precision, readout) ->
      let opts = { Batch.default with precision; readout } in
      let realizing =
        words (fun () ->
            ignore (Model.logits_batch_t ~opts ~draw:(draw_of ~seed:9 ~level:0.1) model x))
      in
      let held = words (fun () -> ignore (Model.run_batch_t ~opts inst x)) in
      if held > 256. || realizing < 4. *. held then
        Alcotest.failf "%s: %.0f words on a held instance, %.0f realizing"
          (Batch.precision_name precision) held realizing)
    tiers_and_readouts

(* Splitting the input once per estimate changes nothing: the estimate
   equals the per-draw mean over [Model.predict_batch] on [x]. *)
let test_accuracy_split_once () =
  Qgen.check ~count:6 ~name:"split-once estimate = per-draw predict_batch" ~pp:pp_model_case
    model_case
    (fun (model, _, seed) ->
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 10) ~time:8 rng in
      let spec = Variation.uniform 0.1 and draws = 4 in
      let x, y = Train.to_xy ds in
      let rngs = Rng.split_n (Rng.create ~seed) draws in
      let per_draw =
        Array.init draws (fun i ->
            let draw = Variation.make_draw rngs.(i) spec in
            Pnc_util.Stats.accuracy ~pred:(Model.predict_batch ~draw model x) ~truth:y)
      in
      Train.accuracy_under_variation ~rng:(Rng.create ~seed) ~spec ~draws model ds
      = Array.fold_left ( +. ) 0. per_draw /. float_of_int draws)

(* One block per forward ---------------------------------------------- *)

module Obs = Pnc_obs.Obs

let samples_count () =
  match List.assoc_opt "eval.batch.samples" (Obs.metrics_snapshot ()) with
  | Some fields -> ( match List.assoc_opt "value" fields with Some (Obs.Int n) -> n | _ -> -1)
  | None -> -1

(* [f] under a sink that keeps the fields of every [eval.batch] event,
   in emission order. *)
let eval_batch_events f =
  let events = ref [] in
  let write ~t:_ ~seq:_ ~name fields = if name = "eval.batch" then events := fields :: !events in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  Fun.protect ~finally:(fun () -> Obs.set_sink None) f;
  List.rev !events

(* Every no-grad forward, of every model family and from a series or
   pre-split steps, runs its whole input as one block: it emits exactly
   one [eval.batch] event naming its tier and its row count (and no
   block-size fields), and counts each row once in
   [eval.batch.samples]. *)
let test_one_event_per_forward () =
  Qgen.check ~count:12 ~name:"one eval.batch event per forward" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      List.for_all
        (fun precision ->
          let opts = { Batch.default with precision } in
          List.for_all
            (fun forward ->
              let s0 = samples_count () in
              let events =
                eval_batch_events (fun () ->
                    ignore (forward ~opts ~draw:(draw_of ~seed ~level:0.1) model))
              in
              samples_count () - s0 = T.rows x
              &&
              match events with
              | [ fields ] ->
                  List.assoc_opt "precision" fields = Some (Obs.Str (Batch.precision_name precision))
                  && List.assoc_opt "rows" fields = Some (Obs.Int (T.rows x))
                  && (not (List.mem_assoc "batch_size" fields))
                  && not (List.mem_assoc "blocks" fields)
              | _ -> false)
            [
              (fun ~opts ~draw model -> Model.logits_batch_t ~opts ~draw model x);
              (fun ~opts ~draw model -> Model.logits_multi_batch_t ~opts ~draw model (T.columns x));
            ])
        [ `Exact; `Fast ])

(* Steps whose row counts disagree are rejected, whichever step is the
   odd one: the whole-batch forward never reads a longer later step
   only up to the first step's rows. *)
let test_ragged_steps_rejected () =
  let rng = Rng.create ~seed:21 in
  let models =
    [
      Model.Reference (Elman.create ~hidden:3 rng ~inputs:1 ~classes:2);
      Model.Circuit (Network.create ~hidden:3 rng Network.Ptpnc ~inputs:1 ~classes:2);
      Model.Circuit (Network.create ~hidden:3 rng Network.Adapt ~inputs:1 ~classes:2);
    ]
  in
  let step rows = T.uniform rng ~rows ~cols:1 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun model ->
      List.iter
        (fun rows_of_steps ->
          let steps = Array.map step rows_of_steps in
          match
            Model.logits_multi_batch_t ~draw:(draw_of ~seed:5 ~level:0.1) model steps
          with
          | _ ->
              Alcotest.failf "%s: steps of %s rows were accepted" (Model.label model)
                (String.concat "/" (Array.to_list (Array.map string_of_int rows_of_steps)))
          | exception (Assert_failure _ | Invalid_argument _) -> ())
        [ [| 4; 5; 5 |]; [| 5; 4; 5 |]; [| 4; 4; 5 |] ])
    models

let () =
  Alcotest.run "pnc_batch"
    [
      ( "fused engine",
        [
          Alcotest.test_case "fused = unfused kernels" `Quick test_fused_vs_unfused;
          Alcotest.test_case "initial states = init_state_t" `Quick test_state_init_parity;
          Alcotest.test_case "multi-input steps with zeros" `Quick test_multi_input_parity;
          Alcotest.test_case "series read in place = split steps" `Quick test_series_in_place;
          Alcotest.test_case "per-family batched = Var" `Quick test_family_parity;
        ] );
      ( "held instances",
        [
          Alcotest.test_case "held instance = draw-taking entry" `Quick test_held_instance_parity;
          Alcotest.test_case "held instance allocates only its logits" `Quick
            test_held_instance_alloc;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "logits_batch_t = Var logits" `Quick test_logits_batch_parity;
          Alcotest.test_case "predict_batch = Var argmax" `Quick test_predict_batch_parity;
          Alcotest.test_case "one eval.batch event per forward" `Quick
            test_one_event_per_forward;
          Alcotest.test_case "ragged steps rejected" `Quick test_ragged_steps_rejected;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "Train.accuracy" `Quick test_accuracy_vs_var;
          Alcotest.test_case "accuracy under variation, pool" `Quick
            test_accuracy_under_variation_pool_invariance;
          Alcotest.test_case "Mc_loss.expected_value" `Quick test_mc_loss_pool_invariance;
          Alcotest.test_case "Sensitivity rows = Var oracle" `Quick test_sensitivity_wiring;
        ] );
      ( "steps and allocation",
        [
          Alcotest.test_case "columns = col" `Quick test_columns_match_col;
          Alcotest.test_case "col bounds" `Quick test_col_bounds;
          Alcotest.test_case "forward allocation per step" `Quick test_forward_alloc_per_step;
          Alcotest.test_case "forward allocation per row, workspace reuse" `Quick
            test_forward_alloc_per_row;
          Alcotest.test_case "accuracy under variation splits once" `Quick
            test_accuracy_split_once;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "blocked matmul = naive oracle" `Quick
            test_blocked_matmul_vs_naive;
          Alcotest.test_case "injected tiling off-by-one diverges" `Quick
            test_battery_catches_tiling_bug;
        ] );
    ]
