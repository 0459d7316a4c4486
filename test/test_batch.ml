(* Differential-oracle battery for the batched no-grad inference
   engine: every [*_batch_t] twin must be bit-identical (eps 0) to its
   unblocked oracle for every block size — 1, primes, a ragged final
   block, the whole split, past the split — because the variation draw
   is realized once per forward and every kernel is row-independent.
   The dune rules re-run this binary under POOL_SIZE=1/4 crossed with
   ADAPT_PNC_BATCH settings, so the parity claims hold under the
   multicore pool and the env knob alike.

   The battery's own sensitivity is verified at the end: a locally
   reimplemented tiled matmul with a classic off-by-one (the ragged
   final tile dropped) must diverge from the library kernel at eps 0 —
   if an eps-0 comparison could not see that bug, none of the parity
   checks above would mean anything. *)

module T = Pnc_tensor.Tensor
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

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

let eq0 = T.equal_eps ~eps:0.
let draw_of ~seed ~level = Variation.make_draw (Rng.create ~seed) (Variation.uniform level)

(* Block sizes to exercise for a batch of [rows]: 1, small primes (a
   ragged final block whenever they don't divide [rows]), an
   almost-whole block, the whole batch, and past the end. *)
let block_sizes rows =
  List.sort_uniq compare
    (List.filter (fun b -> b >= 1) [ 1; 2; 3; 5; 7; rows - 1; rows; rows + 3 ])

(* Layer twins ----------------------------------------------------------- *)

let crossbar_case rng =
  let inputs = 1 + Rng.int rng 5 in
  let outputs = 1 + Rng.int rng 5 in
  let rows = 1 + Rng.int rng 40 in
  let seed = Rng.int rng 10_000 in
  let cb = Crossbar.create rng ~inputs ~outputs in
  let x = T.uniform rng ~rows ~cols:inputs ~lo:(-1.) ~hi:1. in
  (cb, x, outputs, seed)

let test_crossbar_twin () =
  Qgen.check ~count:30 ~name:"crossbar batch twin"
    ~pp:(fun (cb, x, _, seed) ->
      Printf.sprintf "crossbar %dx%d rows=%d seed=%d" (Crossbar.inputs cb)
        (Crossbar.outputs cb) (T.rows x) seed)
    crossbar_case
    (fun (cb, x, outputs, seed) ->
      let real = Crossbar.realize_t ~draw:(draw_of ~seed ~level:0.1) cb in
      let oracle = T.zeros ~rows:(T.rows x) ~cols:outputs in
      Crossbar.apply_t_into ~dst:oracle real x;
      List.for_all
        (fun block -> eq0 oracle (Crossbar.apply_batch_t ~block real x))
        (block_sizes (T.rows x)))

let ptanh_case rng =
  let features = 1 + Rng.int rng 6 in
  let rows = 1 + Rng.int rng 40 in
  let seed = Rng.int rng 10_000 in
  let pt = Ptanh.create rng ~features in
  let x = T.uniform rng ~rows ~cols:features ~lo:(-1.5) ~hi:1.5 in
  (pt, x, seed)

let test_ptanh_twin () =
  Qgen.check ~count:30 ~name:"ptanh batch twin"
    ~pp:(fun (_, x, seed) -> Printf.sprintf "ptanh rows=%d cols=%d seed=%d" (T.rows x) (T.cols x) seed)
    ptanh_case
    (fun (pt, x, seed) ->
      let real = Ptanh.realize_t ~draw:(draw_of ~seed ~level:0.1) pt in
      let oracle = T.zeros ~rows:(T.rows x) ~cols:(T.cols x) in
      Ptanh.apply_t_into ~dst:oracle real x;
      List.for_all (fun block -> eq0 oracle (Ptanh.apply_batch_t ~block real x)) (block_sizes (T.rows x)))

let filter_case rng =
  let features = 1 + Rng.int rng 5 in
  let rows = 1 + Rng.int rng 24 in
  let time = 2 + Rng.int rng 6 in
  let seed = Rng.int rng 10_000 in
  let order = if Rng.bool rng then Filter_layer.First else Filter_layer.Second in
  let fl = Filter_layer.create rng order ~features in
  let xs =
    Array.init time (fun _ -> T.uniform rng ~rows ~cols:features ~lo:(-1.) ~hi:1.)
  in
  (fl, xs, seed)

let test_filter_twin () =
  Qgen.check ~count:30 ~name:"filter batch twin"
    ~pp:(fun (fl, xs, seed) ->
      Printf.sprintf "filter %s f=%d rows=%d time=%d seed=%d"
        (match Filter_layer.order fl with First -> "1st" | Second -> "2nd")
        (Filter_layer.features fl) (T.rows xs.(0)) (Array.length xs) seed)
    filter_case
    (fun (fl, xs, seed) ->
      let rows = T.rows xs.(0) in
      let real = Filter_layer.realize_t ~draw:(draw_of ~seed ~level:0.1) fl in
      List.for_all
        (fun block ->
          (* Fresh state per block size: the update mutates it. *)
          let st_o = Filter_layer.init_state_t real ~batch:rows in
          let st_b = Filter_layer.init_state_t real ~batch:rows in
          Array.for_all
            (fun x ->
              let a = T.copy (Filter_layer.step_t real st_o x) in
              let b = Filter_layer.step_batch_t ~block real st_b x in
              eq0 a b)
            xs
          && Array.for_all2 eq0 st_o st_b)
        (block_sizes rows))

(* End-to-end twins ------------------------------------------------------ *)

let model_case rng =
  let classes = 2 + Rng.int rng 3 in
  let rows = 2 + Rng.int rng 22 in
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
  let x = T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1. in
  (model, x, seed)

let pp_model_case (model, x, seed) =
  Printf.sprintf "%s rows=%d time=%d seed=%d" (Model.label model) (T.rows x) (T.cols x) seed

let test_logits_batch_twin () =
  Qgen.check ~count:30 ~name:"logits_batch_t = logits_t" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      (* Two draws from the same seed consume identical streams: one
         for the oracle, one per batched evaluation. *)
      let oracle = Model.logits_t ~draw:(draw_of ~seed ~level:0.1) model x in
      List.for_all
        (fun bs ->
          eq0 oracle (Model.logits_batch_t ~batch_size:bs ~draw:(draw_of ~seed ~level:0.1) model x))
        (block_sizes (T.rows x)))

let test_predict_batch_twin () =
  Qgen.check ~count:20 ~name:"predict_batch = predict" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      let oracle = Model.predict ~draw:(draw_of ~seed ~level:0.1) model x in
      List.for_all
        (fun bs ->
          Model.predict_batch ~batch_size:bs ~draw:(draw_of ~seed ~level:0.1) model x = oracle)
        (block_sizes (T.rows x)))

(* The env knob: under ADAPT_PNC_BATCH (set by the dune rules) the
   default-resolved path must still match the oracle, and explicit
   arguments must win over the environment. *)
let test_env_knob_parity () =
  Qgen.check ~count:10 ~name:"ADAPT_PNC_BATCH parity" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      let oracle = Model.logits_t ~draw:(draw_of ~seed ~level:0.1) model x in
      eq0 oracle (Model.logits_batch_t ~draw:(draw_of ~seed ~level:0.1) model x))

let test_resolve_precedence () =
  (* Explicit argument beats the environment, which beats whole-split;
     everything is clamped to [1, n]. *)
  let env = Batch.env_default () in
  Alcotest.(check int) "explicit wins" 4 (Batch.resolve ~batch_size:4 ~n:10 ());
  Alcotest.(check int) "clamped to n" 10 (Batch.resolve ~batch_size:64 ~n:10 ());
  (* An explicit non-positive block size is a caller bug, not a request
     for the default: it must be rejected, not silently whole-split. *)
  Alcotest.check_raises "non-positive arg rejected"
    (Invalid_argument "Batch.resolve: batch_size must be positive (got -3)") (fun () ->
      ignore (Batch.resolve ~batch_size:(-3) ~n:10 ()));
  Alcotest.check_raises "zero arg rejected"
    (Invalid_argument "Batch.resolve: batch_size must be positive (got 0)") (fun () ->
      ignore (Batch.resolve ~batch_size:0 ~n:10 ()));
  (match env with
  | Some b -> Alcotest.(check int) "env wins over default" (min b 10) (Batch.resolve ~n:10 ())
  | None -> Alcotest.(check int) "default = whole split" 10 (Batch.resolve ~n:10 ()));
  Alcotest.(check int) "n floor" 1 (Batch.resolve ~n:0 ())

(* Consumers ------------------------------------------------------------- *)

let small_dataset ~classes ~batch ~time rng =
  {
    Pnc_data.Dataset.name = "synthetic";
    x = Array.init batch (fun _ -> Array.init time (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.));
    y = Array.init batch (fun i -> i mod classes);
    n_classes = classes;
  }

let test_accuracy_batch_invariance () =
  Qgen.check ~count:8 ~name:"accuracy invariant in batch size" ~pp:pp_model_case model_case
    (fun (model, x, seed) ->
      ignore x;
      let rng = Rng.create ~seed in
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let ds = small_dataset ~classes ~batch:(5 + Rng.int rng 15) ~time:8 rng in
      let oracle = Train.accuracy model ds in
      List.for_all (fun bs -> Train.accuracy ~batch_size:bs model ds = oracle)
        (block_sizes (Array.length ds.Pnc_data.Dataset.x)))

let test_accuracy_under_variation_pool_batch_invariance () =
  Qgen.check ~count:6 ~name:"accuracy under variation: pool x batch invariant"
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
          List.for_all
            (fun bs ->
              Train.accuracy_under_variation ~batch_size:bs ~pool ~rng:(Rng.create ~seed) ~spec
                ~draws:4 model ds
              = oracle)
            [ 1; 3; Array.length ds.Pnc_data.Dataset.x ]))

let test_mc_loss_batch_invariance () =
  Qgen.check ~count:8 ~name:"expected_value invariant in batch size" ~pp:pp_model_case
    model_case
    (fun (model, x, seed) ->
      let classes =
        match model with
        | Model.Circuit net -> Network.classes net
        | Model.Reference e -> Elman.classes e
      in
      let labels = Array.init (T.rows x) (fun i -> i mod classes) in
      let spec = Variation.uniform 0.1 in
      let value ?batch_size ?pool () =
        Mc_loss.expected_value ?batch_size ?pool ~rng:(Rng.create ~seed) ~spec ~n:3 model ~x
          ~labels
      in
      let oracle = value () in
      List.for_all (fun bs -> value ~batch_size:bs () = oracle) (block_sizes (T.rows x))
      && Pool.with_pool ~size:env_pool_size (fun pool ->
             value ~pool ~batch_size:2 () = oracle))

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
   stubs) costs thousands of words per step at this shape, the fused
   kernel a handful. The block size is pinned so the per-block row
   views do not depend on ADAPT_PNC_BATCH. *)
let test_forward_alloc_per_step () =
  let rows = 200 in
  let net = Network.create ~hidden:4 (Rng.create ~seed:3) Network.Adapt ~inputs:1 ~classes:3 in
  let x64 = T.uniform (Rng.create ~seed:4) ~rows ~cols:64 ~lo:(-1.) ~hi:1. in
  let x128 = T.uniform (Rng.create ~seed:4) ~rows ~cols:128 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun precision ->
      let words x =
        let run () =
          ignore
            (Network.forward_batch_t ~batch_size:rows ~precision
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
        Alcotest.failf "%s: %.0f words per extra time step (%.0f at 64 steps, %.0f at 128)"
          (Batch.precision_name precision) per_step w64 w128)
    [ `Exact; `Fast ]

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

let () =
  Alcotest.run "pnc_batch"
    [
      ( "layer twins",
        [
          Alcotest.test_case "crossbar" `Quick test_crossbar_twin;
          Alcotest.test_case "ptanh" `Quick test_ptanh_twin;
          Alcotest.test_case "filter" `Quick test_filter_twin;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "logits_batch_t = logits_t" `Quick test_logits_batch_twin;
          Alcotest.test_case "predict_batch = predict" `Quick test_predict_batch_twin;
          Alcotest.test_case "ADAPT_PNC_BATCH parity" `Quick test_env_knob_parity;
          Alcotest.test_case "resolve precedence" `Quick test_resolve_precedence;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "Train.accuracy" `Quick test_accuracy_batch_invariance;
          Alcotest.test_case "accuracy under variation, pool x batch" `Quick
            test_accuracy_under_variation_pool_batch_invariance;
          Alcotest.test_case "Mc_loss.expected_value" `Quick test_mc_loss_batch_invariance;
        ] );
      ( "steps and allocation",
        [
          Alcotest.test_case "columns = col" `Quick test_columns_match_col;
          Alcotest.test_case "col bounds" `Quick test_col_bounds;
          Alcotest.test_case "forward allocation per step" `Quick test_forward_alloc_per_step;
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
