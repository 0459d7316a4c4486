(* Workload [mc]: the paper's "accuracy under ±10% variation" protocol,
   [Train.accuracy_under_variation ~pool] over many independent draws
   on a 200-row x 64-step GPOVY test split. No tape: the fused batched
   kernel does nearly all the work, with the domain pool in the path. *)

open Common
module Pool = Pnc_util.Pool
module Var = Pnc_autodiff.Var

(* Draws per estimate; one estimate is one timed sample. *)
let draws = 32

(* The test split of a 1000-sample GPOVY set: 200 rows. *)
let dataset_n = 1000

type inputs = { model : Model.t; test : Dataset.t; x : T.t; pool : Pool.t }

let setup ~seed =
  let model = deployed_model ~seed in
  let _, split = load_split ~seed ~n:dataset_n in
  let test = split.Dataset.test in
  let pool = Pool.create ~size:nproc () in
  let x, _ = Train.to_xy test in
  (* Warm-up: one pooled draw. *)
  ignore (Train.accuracy_under_variation ~pool ~rng:(Rng.create ~seed) ~spec ~draws:1 model test);
  { model; test; x; pool }

let estimate_rng ~seed = Rng.create ~seed:(seed + 4)

let estimate ?pool ~seed inp =
  Train.accuracy_under_variation ?pool ~rng:(estimate_rng ~seed) ~spec ~draws inp.model inp.test

(* Draw [i] of an estimate, replayed from its pre-split child stream. *)
let draw_i ~seed i = Variation.make_draw (Rng.split_n (estimate_rng ~seed) draws).(i) spec

let checks ~seed inp pooled =
  let sequential = estimate ~seed inp in
  let i = seed mod draws in
  let batched = Network.forward_batch_t ~draw:(draw_i ~seed i) (net_of inp.model) inp.x in
  let tape =
    Var.with_no_grad (fun () -> Var.value (Network.forward ~draw:(draw_i ~seed i) (net_of inp.model) inp.x))
  in
  [
    ("mc: pooled estimate bit-equal to sequential", same_bits pooled sequential);
    ("mc: sampled draw's batched logits bit-equal to the tape forward", same_bits_tensor batched tape);
  ]

let run ~seed ~seconds =
  let inp, setup_times =
    setup_reps ~reps:3 ~release:(fun i -> Pool.shutdown i.pool) (fun () -> setup ~seed)
  in
  let sample, rss = rss_after (fun () -> estimate ~pool:inp.pool ~seed inp) in
  let passes = repeat_for ~min_reps:rss_samples ~seconds sample in
  let reference = fst (List.hd passes) in
  let checks = checks ~seed inp reference in
  let failed =
    List.fold_left (fun acc (v, _) -> if same_bits v reference then acc else acc + draws) 0 passes
  in
  let per_s = List.map (fun (_, dt) -> float_of_int draws /. dt) passes in
  let pass_ms = List.map (fun (_, dt) -> 1000. *. dt) passes in
  let per_draw_ms = List.map (fun ms -> ms /. float_of_int draws) pass_ms in
  Pool.shutdown inp.pool;
  {
    attempted = draws * List.length passes;
    failed;
    checks;
    metrics =
      [
        metric "setup_s" "s" (median setup_times);
        metric "peak_rss_mb" "MB" (rss ());
        metric "ops_per_s" "1/s" (fast_rate per_s);
        metric "op_ms" "ms" (fast_time per_draw_ms);
      ];
    info =
      [
        ("mc_draws_per_s", Printf.sprintf "%.4f 1/s (median %.4f)" (fast_rate per_s) (median per_s));
        ( "mc_shape",
          Printf.sprintf "%d estimates x %d draws, %d rows x %d steps, pool of %d"
            (List.length passes) draws (T.rows inp.x) (T.cols inp.x) nproc );
        tail_info "mc_estimate_ms_tail" "ms" pass_ms;
        ("mc_accuracy", Printf.sprintf "%.4f" reference);
      ];
  }

(* ---- per-layer probes --------------------------------------------------- *)

(* The unfused twins of the fused step on the same realization and
   shapes, each kernel timed on its own. Returns the logits (which must
   equal the fused ones) and the seconds spent in crossbar, filter,
   ptanh and read-out. *)
let unfused net draw x =
  let reals = realize_all net draw in
  let rows = T.rows x and steps = T.cols x in
  let states = List.map (fun (_, f, _) -> Filter_layer.init_state_t f ~batch:rows) reals in
  let acc = T.zeros ~rows ~cols:(Network.classes net) in
  let t = Array.make 4 0. in
  let clock k f =
    let t0 = now () in
    let r = f () in
    t.(k) <- t.(k) +. (now () -. t0);
    r
  in
  for s = 0 to steps - 1 do
    let signal = ref (T.col x s) in
    List.iter2
      (fun (c, f, a) st ->
        let summed = clock 0 (fun () -> Crossbar.apply_batch_t c !signal) in
        let filtered = clock 1 (fun () -> Filter_layer.step_batch_t f st summed) in
        signal := clock 2 (fun () -> Ptanh.apply_batch_t a filtered))
      reals states;
    clock 3 (fun () -> T.add_inplace acc !signal)
  done;
  let logits = clock 3 (fun () -> T.scale (1. /. float_of_int steps) acc) in
  (logits, t)

(* Floating-point operations of one fused draw, computed from the
   shapes (tanh counted as one operation). *)
let flops net ~rows ~steps =
  let per_step =
    List.fold_left
      (fun acc (cb, fl, _) ->
        let n_in = Crossbar.inputs cb and n_out = Crossbar.outputs cb in
        let stages = match Filter_layer.order fl with Filter_layer.First -> 1 | Second -> 2 in
        acc + (2 * rows * n_in * n_out) + (rows * n_out * (2 + (3 * stages) + 2 + 1 + 2)))
      0 (Network.layers net)
    + (rows * Network.classes net)
  in
  float_of_int ((steps * per_step) + (rows * Network.classes net))

let traced ~seed ~seconds =
  let inp = setup ~seed in
  let net = net_of inp.model in
  let tr = Trace.create "mc" in
  let truth = inp.test.Dataset.y in
  let instance ~parent rngs i =
    Trace.span tr ~parent "pool.task" (fun parent ->
        let draw = Trace.span tr ~parent "realize.draw" (fun _ -> Variation.make_draw rngs.(i) spec) in
        let logits =
          Trace.span tr ~parent "kernel.forward" (fun _ -> Network.forward_batch_t ~draw net inp.x)
        in
        Pnc_util.Stats.accuracy ~pred:(T.argmax_rows logits) ~truth)
  in
  (* [Train.accuracy_under_variation] re-created from public calls. *)
  let pass () =
    let submit = now () in
    Trace.span tr "run.pass" (fun parent ->
        let rngs = Rng.split_n (estimate_rng ~seed) draws in
        let accs = Pool.init inp.pool ~n:draws (instance ~parent rngs) in
        (submit, Array.fold_left ( +. ) 0. accs /. float_of_int draws))
  in
  let budget = seconds /. 3. in
  let untraced = repeat_for ~seconds:budget (fun () -> estimate ~pool:inp.pool ~seed inp) in
  let reference = fst (List.hd untraced) in
  let sequential = repeat_for ~seconds:budget (fun () -> estimate ~seed inp) in
  let t_start = now () in
  let traced = repeat_for ~seconds:budget pass in
  let wall = now () -. t_start in
  let tasks = Trace.named tr "pool.task" in
  let n_draws = float_of_int (List.length tasks) in
  let n_passes = float_of_int (List.length traced) in
  let submits = List.map (fun ((s, _), _) -> s) traced in
  (* Submit -> start wait of each task: against the latest submit that
     precedes its start. *)
  let wait_ms =
    1000.
    *. mean
         (List.map
            (fun (s : Trace.span) ->
              s.Trace.t0 -. List.fold_left (fun a t -> if t <= s.Trace.t0 then Float.max a t else a) 0. submits)
            tasks)
  in
  let pool_wall = Trace.total tr "run.pass" /. n_passes in
  let busy = Trace.total tr "pool.task" /. n_passes in
  let workers = max 1 (Pool.size inp.pool) in
  let seq_pass = fast_time (List.map snd sequential) and pooled_pass = fast_time (List.map snd untraced) in
  (* Probes on a few draws, sequentially on this domain. *)
  let probe_draws = List.init 8 (fun k -> (seed + k) mod draws) in
  let rngs = Rng.split_n (estimate_rng ~seed) draws in
  let realize_s =
    List.map
      (fun i ->
        let r = Rng.copy rngs.(i) in
        snd (timed (fun () -> realize_all net (Variation.make_draw r spec))))
      probe_draws
  in
  (* Fused forward on this domain alone: time and words allocated. *)
  let fused =
    List.map
      (fun i ->
        let draw = draw_i ~seed i in
        let w0 = words_allocated () in
        let logits, dt = timed (fun () -> Network.forward_batch_t ~draw net inp.x) in
        (logits, dt, words_allocated () -. w0))
      probe_draws
  in
  let twins = List.map (fun i -> unfused net (draw_i ~seed i) inp.x) probe_draws in
  let kernel k = 1e6 *. mean (List.map (fun (_, t) -> t.(k)) twins) in
  let twin_total = kernel 0 +. kernel 1 +. kernel 2 +. kernel 3 in
  let allocs = List.map (fun (_, _, w) -> w) fused in
  let forward_s = mean (List.map (fun (_, dt, _) -> dt) fused) in
  let fl = flops net ~rows:(T.rows inp.x) ~steps:(T.cols inp.x) in
  let outcome =
    {
      attempted = int_of_float n_draws;
      failed = 0;
      checks =
        [
          ( "mc: traced replica reproduces accuracy_under_variation",
            List.for_all (fun ((_, v), _) -> same_bits v reference) traced );
          ( "mc: unfused twins reproduce the fused logits",
            List.for_all2 (fun (f, _, _) (u, _) -> same_bits_tensor f u) fused twins );
          ("mc: allocation per draw repeats exactly", List.for_all (( = ) (List.hd allocs)) allocs);
        ];
      metrics =
        [
          metric "realize.mc_us" "us" (1e6 *. mean realize_s);
          metric "kernel.forward_us" "us" (1e6 *. forward_s);
          metric "kernel.forward_pooled_us" "us" (1e6 *. Trace.total tr "kernel.forward" /. n_draws);
          metric "kernel.crossbar_us" "us" (kernel 0);
          metric "kernel.filter_us" "us" (kernel 1);
          metric "kernel.ptanh_us" "us" (kernel 2);
          metric "kernel.readout_us" "us" (kernel 3);
          metric "kernel.ptanh_share" "ratio" (kernel 2 /. twin_total);
          metric "kernel.alloc_kwords" "kword" (List.hd allocs /. 1e3);
          metric "kernel.flops" "count" fl;
          metric "kernel.gflops" "GFLOP/s" (fl /. forward_s /. 1e9);
          metric "pool.wall_ms" "ms" (1000. *. pool_wall);
          metric "pool.busy_ms" "ms" (1000. *. busy);
          metric "pool.wait_ms" "ms" wait_ms;
          metric "pool.efficiency" "ratio" (busy /. (float_of_int workers *. pool_wall));
          metric "pool.speedup" "ratio" (seq_pass /. pooled_pass);
        ]
        @ Trace.self_metrics ~prefix:"mc" ~layers:[ "pool"; "realize"; "kernel" ] ~wall ~lanes:1 tr
        @ [
            overhead_metric "mc" ~untraced:(fast_time (List.map snd untraced))
              ~traced:(fast_time (List.map snd traced));
          ];
      info =
        [
          ("mc_flops", "computed from shapes, tanh counted as one operation");
          ("mc_alloc_words", String.concat " " (List.map (Printf.sprintf "%.0f") allocs));
        ];
    }
  in
  Pool.shutdown inp.pool;
  (outcome, tr)
