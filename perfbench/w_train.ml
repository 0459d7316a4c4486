(* Workload [train]: variation-aware training of the ADAPT net on GPOVY
   at the fast scale's shape, through [Train.train] with a fixed epoch
   budget. The tape ([var]) and the optimizer ([optim]) do most of the
   work; the fused kernel only runs the validation objective. *)

open Common
module Var = Pnc_autodiff.Var
module Optimizer = Pnc_optim.Optimizer
module Scheduler = Pnc_optim.Scheduler
module Mc_loss = Pnc_core.Mc_loss

(* Epochs per [Train.train] call; one call is one timed sample. *)
let epochs = 10
let cfg = train_config ~epochs

type inputs = { classes : int; split : Dataset.split }

let setup ~seed =
  let classes, split = load_split ~seed ~n:fast_n in
  (* Warm-up: one epoch on a throwaway model, so first-touch costs land
     in set-up rather than in the first timed call. *)
  ignore (Train.train (train_config ~epochs:1) (adapt_model ~seed ~classes) split);
  { classes; split }

let train_once ~seed inp =
  Train.train ~rng:(Rng.create ~seed:(seed + 3)) cfg (adapt_model ~seed ~classes:inp.classes) inp.split

let curves (h : Train.history) = Array.append h.Train.train_loss_curve h.Train.val_loss_curve
let finite_curve c = Array.for_all Float.is_finite c

let run ~seed ~seconds =
  let inp, setup_times = setup_reps ~reps:3 (fun () -> setup ~seed) in
  let sample, rss = rss_after (fun () -> train_once ~seed inp) in
  let calls = repeat_for ~min_reps:rss_samples ~seconds sample in
  let reference = curves (fst (List.hd calls)) in
  (* An epoch fails when its losses are non-finite or differ from the
     first call's: every call starts from the same seeds. *)
  let failed =
    List.fold_left
      (fun acc ((h : Train.history), _) ->
        let c = curves h in
        let bad = ref 0 in
        for e = 0 to epochs - 1 do
          let tl = h.Train.train_loss_curve.(e) and vl = h.Train.val_loss_curve.(e) in
          if
            (not (Float.is_finite tl && Float.is_finite vl))
            || not (same_bits tl reference.(e) && same_bits vl reference.(epochs + e))
          then incr bad
        done;
        if Array.length c <> 2 * epochs then acc + epochs else acc + !bad)
      0 calls
  in
  let per_s = List.map (fun (_, dt) -> float_of_int epochs /. dt) calls in
  let epoch_ms = List.map (fun (_, dt) -> 1000. *. dt /. float_of_int epochs) calls in
  let attempted = epochs * List.length calls in
  {
    attempted;
    failed;
    checks =
      [
        ("train: loss curve finite", finite_curve reference);
        ( "train: loss curve bit-identical across calls",
          List.for_all (fun (h, _) -> same_bits_array (curves h) reference) calls );
      ];
    metrics =
      [
        metric "setup_s" "s" (median setup_times);
        metric "peak_rss_mb" "MB" (rss ());
        metric "ops_per_s" "1/s" (fast_rate per_s);
        metric "op_ms" "ms" (fast_time epoch_ms);
      ];
    info =
      [
        ("train_epochs_per_s", Printf.sprintf "%.4f 1/s (median %.4f)" (fast_rate per_s) (median per_s));
        ( "train_calls",
          Printf.sprintf "%d calls x %d epochs, %d train rows x %d steps" (List.length calls)
            epochs (Dataset.n_samples inp.split.Dataset.train)
            (Dataset.length inp.split.Dataset.train) );
        tail_info "train_epoch_ms_tail" "ms" epoch_ms;
      ];
  }

(* ---- traced replica ----------------------------------------------------- *)

let snapshot params = List.map (fun p -> T.copy (Var.value p)) params

(* [Train.train]'s loop re-created from public calls, one span around
   each call into a layer. Returns the per-epoch losses (train then
   validation, like [curves]) and the exact per-epoch tape counts. *)
let replica tr ~seed inp =
  let model = adapt_model ~seed ~classes:inp.classes in
  let rng = Rng.create ~seed:(seed + 3) in
  let x_train, y_train = Train.to_xy inp.split.Dataset.train in
  let x_val, y_val = Train.to_xy inp.split.Dataset.valid in
  let params = Model.params model in
  let opt = Optimizer.adamw ~weight_decay:cfg.Train.weight_decay ~params () in
  let sched =
    Scheduler.plateau ~factor:cfg.Train.lr_factor ~patience:cfg.Train.patience
      ~min_lr:cfg.Train.min_lr ~init_lr:cfg.Train.lr ()
  in
  let best = ref infinity and best_snap = ref (snapshot params) in
  let stop = ref false and epoch = ref 0 in
  let tl = ref [] and vl = ref [] and nodes = ref [] and words = ref [] in
  while (not !stop) && !epoch < cfg.Train.max_epochs do
    incr epoch;
    Trace.span tr "run.epoch" (fun parent ->
        let sp name f = Trace.span tr ~parent name (fun _ -> f ()) in
        sp "optim.zero_grads" (fun () -> Optimizer.zero_grads opt);
        let n0 = Var.tape_recorded () and w0 = words_allocated () in
        let loss =
          sp "var.fwd" (fun () ->
              Mc_loss.expected ~antithetic:cfg.Train.antithetic ~ni:cfg.Train.noise_injection ~rng
                ~spec:cfg.Train.variation ~n:cfg.Train.mc_samples model ~x:x_train ~labels:y_train)
        in
        sp "var.bwd" (fun () -> Var.backward loss);
        words := (words_allocated () -. w0) :: !words;
        nodes := (Var.tape_recorded () - n0) :: !nodes;
        sp "optim.step" (fun () ->
            Option.iter (fun m -> Optimizer.clip_grad_norm opt ~max_norm:m) cfg.Train.grad_clip;
            Optimizer.step opt ~lr:(Scheduler.lr sched));
        sp "optim.clamp" (fun () -> Model.clamp model);
        let val_loss =
          sp "mc_loss.val" (fun () ->
              Mc_loss.expected_value ~antithetic:cfg.Train.antithetic ~rng ~spec:cfg.Train.variation
                ~n:cfg.Train.mc_samples_val model ~x:x_val ~labels:y_val)
        in
        tl := T.get_scalar (Var.value loss) :: !tl;
        vl := val_loss :: !vl;
        if val_loss < !best then begin
          best := val_loss;
          best_snap := snapshot params
        end;
        match Scheduler.observe sched val_loss with `Stop -> stop := true | `Continue -> ())
  done;
  (Array.of_list (List.rev_append !tl (List.rev !vl)), List.rev !nodes, List.rev !words)

let traced ~seed ~seconds =
  let inp = setup ~seed in
  let tr = Trace.create "train" in
  (* Untraced calls in the same process, then traced replicas until the
     budget is spent; each replica must reproduce the untraced loss
     curve bit for bit. *)
  let untraced = repeat_for ~seconds:(seconds /. 3.) (fun () -> train_once ~seed inp) in
  let reference = curves (fst (List.hd untraced)) in
  let t_start = now () in
  let reps = repeat_for ~seconds:(2. *. seconds /. 3.) (fun () -> replica tr ~seed inp) in
  let wall = now () -. t_start in
  let n_epochs = float_of_int (epochs * List.length reps) in
  let per_epoch name = 1000. *. Trace.total tr name /. n_epochs in
  let all_nodes = List.concat_map (fun ((_, n, _), _) -> n) reps in
  let all_words = List.concat_map (fun ((_, _, w), _) -> w) reps in
  let nodes0 = List.hd all_nodes in
  let per_call l = fast_time (List.map snd l) in
  let outcome =
    {
      attempted = int_of_float n_epochs;
      failed = 0;
      checks =
        [
          ( "train: traced replica reproduces Train.train's loss curve",
            List.for_all (fun ((c, _, _), _) -> same_bits_array c reference) reps );
          ("train: tape nodes per epoch repeat exactly", List.for_all (( = ) nodes0) all_nodes);
        ];
      metrics =
        [
          metric "var.fwd_ms" "ms" (per_epoch "var.fwd");
          metric "var.bwd_ms" "ms" (per_epoch "var.bwd");
          metric "var.tape_nodes" "count" (float_of_int nodes0);
          metric "var.alloc_mwords" "Mword" (mean all_words /. 1e6);
          metric "optim.step_ms" "ms" (per_epoch "optim.zero_grads" +. per_epoch "optim.step");
          metric "optim.clamp_ms" "ms" (per_epoch "optim.clamp");
          metric "mc_loss.val_ms" "ms" (per_epoch "mc_loss.val");
        ]
        @ Trace.self_metrics ~prefix:"train" ~layers:[ "var"; "optim"; "mc_loss" ] ~wall ~lanes:1 tr
        @ [
            overhead_metric "train" ~untraced:(per_call untraced) ~traced:(per_call reps);
          ];
      info = [ ("train_traced_epochs", Printf.sprintf "%.0f" n_epochs) ];
    }
  in
  (outcome, tr)
