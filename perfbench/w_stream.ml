(* Workload [stream]: a prequential pass over a drifting, perturbed
   GPOVY stream (abrupt drift, noise bursts, dropouts) under ±10%
   variation on one physical instance, windows of width 8 = stride. The
   frozen pass ([adapt = Off]) runs first, then the adapted one
   ([adapt = All]), each through [Online.eval]. Per-call fixed costs
   dominate: every 8-row window replays and realizes the draw, and
   adaptation runs the tape on 8-row tensors. *)

open Common
module Var = Pnc_autodiff.Var
module Loss = Pnc_autodiff.Loss
module Optimizer = Pnc_optim.Optimizer
module Scenario = Pnc_stream.Scenario
module Online = Pnc_stream.Online
module Window = Pnc_stream.Window

let n_samples = 256
let width = 8
let frozen = { Online.default_protocol with Online.width; stride = width }
let adapted = { frozen with Online.adapt = Online.All }

type inputs = { model : Model.t; rz : Scenario.realized; snap : T.t list }

let setup ~seed =
  let model = deployed_model ~seed in
  let scenario =
    Scenario.make ~dataset ~n_samples ~seed:(seed + 5)
      ~drift:{ Scenario.drift_at = n_samples / 2; kind = Scenario.Abrupt; shift = 1 }
      ~perturb:{ Scenario.no_perturb with burst_rate = 0.2; burst_sigma = 0.5; dropout_rate = 0.05 }
      ()
  in
  let rz = Scenario.realize scenario in
  { model; rz; snap = Online.snapshot_params model }

let eval_rng ~seed = Rng.create ~seed:(seed + 6)

let pass ~seed inp protocol =
  let r = Online.eval ~spec ~rng:(eval_rng ~seed) protocol inp.model inp.rz in
  Online.restore_params inp.model inp.snap;
  r

let n_windows = n_samples / width

(* With stride = width and [`V0], the frozen overall accuracy must
   equal offline [Train.accuracy] on the same stream and physical
   instance (child 0 of the evaluator's rng, replayed). *)
let offline_acc ~seed inp =
  let top = Rng.split_n (eval_rng ~seed) 2 in
  Train.accuracy ~draw:(Variation.make_draw (Rng.copy top.(0)) spec) inp.model
    (Scenario.to_dataset inp.rz)

let run ~seed ~seconds =
  let inp, setup_times = setup_reps ~reps:3 (fun () -> setup ~seed) in
  (* One sample is a frozen pass followed by an adapted pass. *)
  let sample, rss =
    rss_after (fun () ->
        let f, tf = timed (fun () -> pass ~seed inp frozen) in
        let a, ta = timed (fun () -> pass ~seed inp adapted) in
        (f, tf, a, ta))
  in
  let pairs = repeat_for ~min_reps:rss_samples ~seconds sample in
  let f0, _, a0, _ = fst (List.hd pairs) in
  let failed =
    List.fold_left
      (fun acc ((f, _, a, _), _) ->
        acc
        + (if f.Online.points = f0.Online.points then 0 else n_windows)
        + if a.Online.points = a0.Online.points then 0 else n_windows)
      0 pairs
  in
  let frozen_per_s = List.map (fun ((_, tf, _, _), _) -> float_of_int n_windows /. tf) pairs in
  let adapt_per_s = List.map (fun ((_, _, _, ta), _) -> float_of_int n_windows /. ta) pairs in
  let frozen_ms = List.map (fun ((_, tf, _, _), _) -> 1000. *. tf /. float_of_int n_windows) pairs in
  {
    attempted = 2 * n_windows * List.length pairs;
    failed;
    checks =
      [
        ( "stream: frozen accuracy equals offline Train.accuracy",
          same_bits f0.Online.overall_acc (offline_acc ~seed inp) );
        ( "stream: adapted points repeat across passes",
          List.for_all (fun ((_, _, a, _), _) -> a.Online.points = a0.Online.points) pairs );
        ( "stream: adaptation restored the trained weights",
          List.for_all2 same_bits_tensor inp.snap (Online.snapshot_params inp.model) );
      ];
    metrics =
      [
        metric "setup_s" "s" (median setup_times);
        metric "peak_rss_mb" "MB" (rss ());
        metric "ops_per_s" "1/s" (fast_rate adapt_per_s);
        metric "op_ms" "ms" (fast_time frozen_ms);
      ];
    info =
      [
        ("stream_frozen_windows_per_s", Printf.sprintf "%.4f 1/s (median %.4f)" (fast_rate frozen_per_s) (median frozen_per_s));
        ("stream_adapt_windows_per_s", Printf.sprintf "%.4f 1/s (median %.4f)" (fast_rate adapt_per_s) (median adapt_per_s));
        ( "stream_shape",
          Printf.sprintf "%d passes each way, %d windows of %d over %d samples" (List.length pairs)
            n_windows width n_samples );
        ( "stream_accuracy",
          Printf.sprintf "frozen %.4f, adapted %.4f" f0.Online.overall_acc a0.Online.overall_acc );
      ];
  }

(* ---- traced replica ----------------------------------------------------- *)

(* [Online.eval]'s window loop re-created from public calls, for
   [`V0] windows with stride = width. Returns the per-window correct
   counts and the exact per-step tape counts. *)
let replica tr ~seed inp protocol =
  let x_all = T.of_rows inp.rz.Scenario.x in
  let windows = Array.of_list (Window.slice ~n:n_samples ~width ~stride:width) in
  let top = Rng.split_n (eval_rng ~seed) 2 in
  let mk_draw () = Variation.make_draw (Rng.copy top.(0)) spec in
  let params = match protocol.Online.adapt with Online.Off -> [] | _ -> Model.params inp.model in
  let opt = Optimizer.adamw ~params () in
  let nodes = ref [] in
  let correct =
    Array.map
      (fun (win : Window.t) ->
        Trace.span tr "stream.window" (fun parent ->
            let sp name f = Trace.span tr ~parent name (fun _ -> f ()) in
            let xw = T.rows_view x_all ~row:win.Window.start ~len:win.Window.len in
            let yw = Array.sub inp.rz.Scenario.y win.Window.start win.Window.len in
            let draw = sp "realize.draw" mk_draw in
            let pred = sp "kernel.predict" (fun () -> Model.predict_batch ~draw inp.model xw) in
            let c = ref 0 in
            Array.iteri (fun j p -> if p = yw.(j) then incr c) pred;
            if params <> [] then
              for _ = 1 to protocol.Online.adapt_steps do
                Trace.span tr ~parent "stream.adapt_step" (fun parent ->
                    let sp name f = Trace.span tr ~parent name (fun _ -> f ()) in
                    let n0 = Var.tape_recorded () in
                    sp "optim.zero_grads" (fun () -> Optimizer.zero_grads opt);
                    let loss =
                      sp "var.fwd" (fun () ->
                          let logits = Model.logits ~draw:(mk_draw ()) inp.model xw in
                          Loss.softmax_cross_entropy ~logits ~labels:yw)
                    in
                    sp "var.bwd" (fun () -> Var.backward loss);
                    nodes := (Var.tape_recorded () - n0) :: !nodes;
                    sp "optim.step" (fun () ->
                        Optimizer.clip_grad_norm opt ~max_norm:5.;
                        Optimizer.step opt ~lr:protocol.Online.adapt_lr);
                    sp "optim.clamp" (fun () -> Model.clamp inp.model))
              done;
            !c))
      windows
  in
  Online.restore_params inp.model inp.snap;
  (correct, List.rev !nodes)

(* One window's realization: the replayed draw, then every layer's
   components. *)
let realize_window ~seed net =
  let top = Rng.split_n (eval_rng ~seed) 2 in
  fun () -> ignore (realize_all net (Variation.make_draw (Rng.copy top.(0)) spec))

let traced ~seed ~seconds =
  let inp = setup ~seed in
  let tr = Trace.create "stream" in
  let budget = seconds /. 2. in
  let untraced =
    repeat_for ~seconds:budget (fun () -> (pass ~seed inp frozen, pass ~seed inp adapted))
  in
  let f0, a0 = fst (List.hd untraced) in
  let t_start = now () in
  let traced =
    repeat_for ~seconds:budget (fun () -> (replica tr ~seed inp frozen, replica tr ~seed inp adapted))
  in
  let wall = now () -. t_start in
  let corrects (r : Online.result) = Array.map (fun (p : Online.point) -> p.Online.correct) r.Online.points in
  let nodes = List.concat_map (fun ((_, (_, n)), _) -> n) traced in
  let n_win = float_of_int (Trace.count tr "stream.window") in
  let steps = float_of_int (Trace.count tr "stream.adapt_step") in
  let realize = realize_window ~seed (net_of inp.model) in
  let realize_s = median (List.init 50 (fun _ -> snd (timed realize))) in
  let per_pair l = fast_time (List.map snd l) in
  let outcome =
    {
      attempted = int_of_float n_win;
      failed = 0;
      checks =
        [
          ( "stream: traced replica reproduces Online.eval",
            List.for_all
              (fun (((fc, _), (ac, _)), _) -> fc = corrects f0 && ac = corrects a0)
              traced );
          ("stream: tape nodes per adaptation step repeat exactly", List.for_all (( = ) (List.hd nodes)) nodes);
        ];
      metrics =
        [
          metric "realize.stream_us" "us" (1e6 *. realize_s);
          metric "stream.score_us" "us" (1e6 *. Trace.total tr "kernel.predict" /. n_win);
          metric "stream.adapt_step_ms" "ms" (1000. *. Trace.total tr "stream.adapt_step" /. steps);
          metric "stream.adapt_tape_nodes" "count" (float_of_int (List.hd nodes));
        ]
        @ Trace.self_metrics ~prefix:"stream" ~layers:[ "stream"; "realize"; "kernel"; "var"; "optim" ]
            ~wall ~lanes:1 tr
        @ [ overhead_metric "stream" ~untraced:(per_pair untraced) ~traced:(per_pair traced) ];
      info = [];
    }
  in
  (outcome, tr)
