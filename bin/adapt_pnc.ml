(* adapt_pnc — command-line interface to the ADAPT-pNC reproduction.

   Subcommands:
     datasets         list the 15 benchmark datasets
     train            train one model on one dataset and evaluate it
     ablate           run the Fig. 7 ablation variants on one dataset
     hwcost           Table III row for one dataset
     augment-preview  Fig. 6 augmentation showcase
     spice-char       mu extraction and filter characterization
     tune-aug         random-search augmentation hyper-parameters *)

open Cmdliner

module Config = Pnc_exp.Config
module Experiments = Pnc_exp.Experiments
module Grid = Pnc_grid.Grid
module Registry = Pnc_data.Registry
module Dataset = Pnc_data.Dataset
module Rng = Pnc_util.Rng
module Obs = Pnc_obs.Obs

(* Common arguments ------------------------------------------------------- *)

let dataset_arg =
  let doc = "Benchmark dataset name (see `adapt_pnc datasets`)." in
  Arg.(value & opt string "PowerCons" & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Experiment scale: smoke, fast or paper." in
  Arg.(value & opt string "fast" & info [ "scale" ] ~docv:"SCALE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo evaluation (0 or 1 = sequential; results are identical \
     for every worker count, only wall-clock changes)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Evaluation pool from --jobs: sizes <= 1 skip pool creation entirely
   so the default CLI behaviour is byte-for-byte the sequential path. *)
let with_jobs jobs f =
  if jobs <= 1 then f None
  else Pnc_util.Pool.with_pool ~size:jobs (fun pool -> f (Some pool))

(* Observability: --metrics-out installs the JSONL sink for the whole
   command (and appends a final metrics snapshot); --trace prints the
   span tree to stderr as it closes. Neither flag changes any computed
   number — telemetry is read-only (see docs/OBSERVABILITY.md). *)

let metrics_out_arg =
  let doc =
    "Write telemetry (per-epoch training records, Monte-Carlo throughput, pool utilization) \
     as JSON Lines to $(docv). With no sink installed the instrumentation is inert."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Print span open/close lines (with durations) to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let with_obs ~metrics_out ~trace f =
  Obs.trace_stderr := trace;
  match metrics_out with
  | None -> f ()
  | Some path ->
      Obs.with_jsonl ~path (fun () ->
          let r = f () in
          Obs.emit_metrics ();
          r)

let config_of ~scale =
  Config.of_scale (Config.scale_of_string scale)

let check_dataset name =
  if not (List.mem name Registry.names) then (
    Printf.eprintf "unknown dataset %s; available: %s\n" name (String.concat ", " Registry.names);
    exit 1)

(* datasets ---------------------------------------------------------------- *)

let datasets_cmd =
  let run () =
    let t = Pnc_util.Table.create ~header:[ "Name"; "Classes"; "Samples (default)" ] in
    List.iter
      (fun spec ->
        Pnc_util.Table.add_row t
          [
            spec.Registry.name;
            string_of_int spec.Registry.n_classes;
            string_of_int spec.Registry.default_n;
          ])
      Registry.all;
    Pnc_util.Table.print t
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the 15 benchmark datasets (Table I).")
    Term.(const run $ const ())

(* train -------------------------------------------------------------------- *)

let variant_of_string = function
  | "elman" -> Experiments.Reference
  | "ptpnc" | "baseline" -> Experiments.Base
  | "va" -> Experiments.Va
  | "at" -> Experiments.At
  | "so-lf" | "so" -> Experiments.So_lf
  | "adapt" | "full" -> Experiments.Full
  | "ni" -> Experiments.Ni
  | s -> invalid_arg ("unknown model variant: " ^ s)

let model_arg =
  let doc = "Model variant: elman, ptpnc, va, at, so-lf, adapt or ni." in
  Arg.(value & opt string "adapt" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let corr_arg =
  let doc =
    "Correlated-variation spec RHO,CLEN or RHO,CLEN,TEMP_C,AGE_HOURS: attaches a \
     distance-kernel correlation (and optionally a SPICE-characterized drift operating \
     point) to the +NI training spec and the corr+var metric. Without it the built-in \
     default (0.5,2.0) is used for those and everything else is untouched."
  in
  Arg.(value & opt (some string) None & info [ "corr" ] ~docv:"SPEC" ~doc)

let apply_corr cfg = function
  | None -> cfg
  | Some s -> { cfg with Config.corr = Some (Config.corr_of_string s) }

let checkpoint_dir_arg =
  let doc =
    "Write a resumable training checkpoint to $(docv)/train.ckpt (atomically, every \
     --checkpoint-every epochs) and the final trained model to $(docv)/model.ckpt."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc = "Epochs between training checkpoints (with --checkpoint-dir)." in
  Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let resume_arg =
  let doc = "Resume from DIR/train.ckpt (with --checkpoint-dir); the completed run is \
             bit-identical to an uninterrupted one." in
  Arg.(value & flag & info [ "resume" ] ~doc)

let die_at_epoch_arg =
  let doc =
    "Simulate a crash: exit right after writing the checkpoint for epoch $(docv) (for \
     testing crash-safe resume; see `make resume-demo`)."
  in
  Arg.(value & opt (some int) None & info [ "die-at-epoch" ] ~docv:"EPOCH" ~doc)

let train_cmd =
  let run dataset model seed scale jobs ckpt_dir ckpt_every resume die_at corr metrics_out
      trace =
    check_dataset dataset;
    let cfg = apply_corr (config_of ~scale) corr in
    let variant = variant_of_string model in
    let train_ckpt = Option.map (fun d -> Filename.concat d "train.ckpt") ckpt_dir in
    (* Resolve --resume before creating the checkpoint directory: a
       missing train.ckpt used to fall through to [None] here, silently
       training from scratch and then overwriting the directory the
       user asked to resume from. That is never what --resume means. *)
    let resume_from =
      match (resume, train_ckpt) with
      | false, _ -> None
      | true, None ->
          prerr_endline "--resume requires --checkpoint-dir";
          exit 2
      | true, Some p ->
          if Sys.file_exists p then Some p
          else begin
            Printf.eprintf
              "--resume: no checkpoint at %s (nothing to resume; run without --resume to \
               start a fresh run)\n"
              p;
            exit 2
          end
    in
    Option.iter
      (fun d ->
        if not (Sys.file_exists d) then
          try Sys.mkdir d 0o755
          with Sys_error msg ->
            Printf.eprintf
              "cannot create checkpoint directory: %s (does the parent directory exist?)\n"
              msg;
            exit 2)
      ckpt_dir;
    Printf.printf "training %s on %s (seed %d, scale %s)...\n%!"
      (Experiments.variant_name variant)
      dataset seed scale;
    let r =
      try
        with_obs ~metrics_out ~trace (fun () ->
            with_jobs jobs (fun pool ->
                Experiments.train_run ?pool ~checkpoint_every:ckpt_every
                  ?checkpoint_path:train_ckpt ?resume_from ?die_at_epoch:die_at cfg ~dataset
                  ~variant ~seed))
      with Pnc_core.Train.Killed e ->
        Printf.printf "simulated crash after epoch %d; checkpoint written%s\n" e
          (match train_ckpt with Some p -> " to " ^ p | None -> "");
        exit 0
    in
    Option.iter
      (fun d ->
        let path = Filename.concat d "model.ckpt" in
        Pnc_core.Persist.save_model ~path r.Experiments.model;
        Printf.printf "model checkpoint:                         %s\n" path)
      ckpt_dir;
    Printf.printf "epochs:                                   %d (%.1f s)\n" r.Experiments.epochs
      r.Experiments.train_seconds;
    Printf.printf "accuracy, clean:                          %.3f\n" r.Experiments.clean_acc;
    Printf.printf "accuracy, ±10%% components:                %.3f\n" r.Experiments.clean_var_acc;
    Printf.printf "accuracy, augmented test + ±10%% (Tab. I): %.3f\n" r.Experiments.aug_var_acc;
    Printf.printf "accuracy, perturbed inputs + ±10%%:        %.3f\n" r.Experiments.pert_var_acc;
    Printf.printf "accuracy, correlated ±10%% + drift:        %.3f\n" r.Experiments.corr_var_acc;
    match r.Experiments.model with
    | Pnc_core.Model.Circuit net ->
        Printf.printf "hardware: %s, %.3f mW\n"
          (Pnc_core.Hardware.describe (Pnc_core.Hardware.of_network net))
          (Pnc_core.Hardware.power_mw net)
    | Pnc_core.Model.Reference _ -> ()
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train one model on one dataset and evaluate it as the paper does.")
    Term.(
      const run $ dataset_arg $ model_arg $ seed_arg $ scale_arg $ jobs_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg $ resume_arg $ die_at_epoch_arg
      $ corr_arg $ metrics_out_arg $ trace_arg)

(* eval ---------------------------------------------------------------------- *)

(* Shared by eval and serve. Resolution happens at this entry point
   (explicit flag, else ADAPT_PNC_PRECISION, else exact) — library
   defaults never read the environment. *)
let precision_arg =
  let doc =
    "Activation tier for the no-grad evaluation kernels: $(b,exact) is bit-identical to \
     training; $(b,fast) swaps in a bounded fast tanh (absolute tanh error at most 1e-7) \
     for throughput. Defaults to \\$ADAPT_PNC_PRECISION, else exact."
  in
  Arg.(
    value
    & opt (some (enum [ ("exact", `Exact); ("fast", `Fast) ])) None
    & info [ "precision" ] ~docv:"TIER" ~doc)

let eval_cmd =
  let load_arg =
    let doc = "Model or train checkpoint to evaluate (written by `train --checkpoint-dir`)." in
    Arg.(required & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let draws_arg =
    let doc = "Monte-Carlo draws for accuracy under variation." in
    Arg.(value & opt int 10 & info [ "draws" ] ~docv:"N" ~doc)
  in
  let level_arg =
    let doc = "Component variation level (0.1 = ±10%)." in
    Arg.(value & opt float 0.1 & info [ "level" ] ~docv:"L" ~doc)
  in
  let run load dataset seed scale draws level precision jobs metrics_out trace =
    let precision = Pnc_core.Batch.entry_precision ?precision () in
    let opts = { Pnc_core.Batch.default with precision } in
    check_dataset dataset;
    let cfg = config_of ~scale in
    let model =
      match Pnc_core.Persist.load_model ~path:load with
      | Ok m -> m
      | Error e ->
          Printf.eprintf "cannot load %s: %s\n" load (Pnc_ckpt.Ckpt.error_to_string e);
          exit 1
    in
    let split, _ = Experiments.load_split cfg ~dataset ~seed in
    let test = split.Dataset.test in
    with_obs ~metrics_out ~trace (fun () ->
        with_jobs jobs (fun pool ->
            Printf.printf "%s on %s (test set, seed %d, %s precision)\n"
              (Pnc_core.Model.label model) dataset seed
              (Pnc_core.Batch.precision_name precision);
            Printf.printf "accuracy, clean:            %.3f\n"
              (Pnc_core.Train.accuracy ~opts model test);
            if Pnc_core.Model.is_circuit model then
              Printf.printf "accuracy, ±%.0f%% components: %.3f (%d draws)\n"
                (100. *. level)
                (Pnc_core.Train.accuracy_under_variation ~opts ?pool
                   ~rng:(Rng.create ~seed:(seed + 4000))
                   ~spec:(Pnc_core.Variation.uniform level) ~draws model test)
                draws))
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a checkpointed model on a dataset (batched no-grad fast path), clean \
             and under variation.")
    Term.(
      const run $ load_arg $ dataset_arg $ seed_arg $ scale_arg $ draws_arg $ level_arg
      $ precision_arg $ jobs_arg $ metrics_out_arg $ trace_arg)

(* stream -------------------------------------------------------------------- *)

module Scenario = Pnc_stream.Scenario
module Online = Pnc_stream.Online

let stream_cmd =
  let samples_arg =
    let doc = "Stream length, in samples." in
    Arg.(value & opt int 96 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let length_arg =
    let doc = "Time steps per stream sample (the series length fed to the circuit)." in
    Arg.(value & opt int 64 & info [ "length" ] ~docv:"T" ~doc)
  in
  let drift_at_arg =
    let doc =
      "Inject concept drift: labels rotate by --drift-shift from stream index $(docv) on. \
       Absent = drift-free stream."
    in
    Arg.(value & opt (some int) None & info [ "drift-at" ] ~docv:"I" ~doc)
  in
  let drift_ramp_arg =
    let doc = "Gradual-drift ramp, in samples (0 = abrupt change point)." in
    Arg.(value & opt int 0 & info [ "drift-ramp" ] ~docv:"N" ~doc)
  in
  let drift_shift_arg =
    let doc = "Label rotation amount at the change point (mod n_classes)." in
    Arg.(value & opt int 1 & info [ "drift-shift" ] ~docv:"K" ~doc)
  in
  let burst_rate_arg =
    let doc = "Probability that a stream sample carries one gaussian noise burst." in
    Arg.(value & opt float 0. & info [ "burst-rate" ] ~docv:"P" ~doc)
  in
  let burst_sigma_arg =
    let doc = "Noise sigma inside a burst." in
    Arg.(value & opt float 0.5 & info [ "burst-sigma" ] ~docv:"S" ~doc)
  in
  let dropout_rate_arg =
    let doc = "Per-time-step sample-and-hold dropout probability." in
    Arg.(value & opt float 0. & info [ "dropout-rate" ] ~docv:"P" ~doc)
  in
  let wander_amp_arg =
    let doc = "Baseline-wander amplitude (0 = off)." in
    Arg.(value & opt float 0. & info [ "wander-amp" ] ~docv:"A" ~doc)
  in
  let wander_period_arg =
    let doc = "Baseline-wander period, in units of stream samples." in
    Arg.(value & opt float 8. & info [ "wander-period" ] ~docv:"P" ~doc)
  in
  let width_arg =
    let doc = "Evaluation window width, in samples." in
    Arg.(value & opt int 16 & info [ "width" ] ~docv:"W" ~doc)
  in
  let stride_arg =
    let doc = "Window stride (0 = same as --width, i.e. non-overlapping windows)." in
    Arg.(value & opt int 0 & info [ "stride" ] ~docv:"S" ~doc)
  in
  let state_init_arg =
    let doc =
      "Filter initial-voltage semantics per window: $(b,v0) (the drawn device V0, the \
       offline-parity default), $(b,zero) (settled circuit) or $(b,rand) (fresh gaussian \
       V[0] per window from its own seeded stream, sigma from --state-sigma)."
    in
    Arg.(
      value
      & opt (enum [ ("v0", `V0); ("zero", `Zero); ("rand", `Rand) ]) `V0
      & info [ "state-init" ] ~docv:"INIT" ~doc)
  in
  let state_sigma_arg =
    let doc = "Gaussian sigma for --state-init rand." in
    Arg.(value & opt float 0.1 & info [ "state-sigma" ] ~docv:"S" ~doc)
  in
  let adapt_arg =
    let doc =
      "Online test-time adaptation: $(b,off) (frozen baseline), $(b,filters) (adapt only \
       the learnable filter parameters) or $(b,all). When on, the frozen baseline is \
       always computed too, on the same realizations, for the ablation."
    in
    Arg.(
      value
      & opt (enum [ ("off", Online.Off); ("filters", Online.Filters); ("all", Online.All) ])
          Online.Off
      & info [ "adapt" ] ~docv:"MODE" ~doc)
  in
  let adapt_lr_arg =
    let doc = "Adaptation learning rate." in
    Arg.(value & opt float 0.05 & info [ "adapt-lr" ] ~docv:"LR" ~doc)
  in
  let adapt_steps_arg =
    let doc = "Optimizer steps per window when adaptation is on." in
    Arg.(value & opt int 2 & info [ "adapt-steps" ] ~docv:"N" ~doc)
  in
  let detect_baseline_arg =
    let doc = "Windows averaged into the drift detector's reference level." in
    Arg.(value & opt int 3 & info [ "detect-baseline" ] ~docv:"N" ~doc)
  in
  let detect_drop_arg =
    let doc = "Accuracy drop below the reference level that fires the drift detector." in
    Arg.(value & opt float 0.25 & info [ "detect-drop" ] ~docv:"D" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Grid-cell cache directory (same files and keys as `grid run --cache-dir`): the \
       trained model is loaded from it when present, written to it otherwise."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let run dataset model seed scale samples length drift_at drift_ramp drift_shift burst_rate
      burst_sigma dropout_rate wander_amp wander_period width stride state_init state_sigma
      adapt adapt_lr adapt_steps detect_baseline detect_drop cache_dir jobs metrics_out trace =
    check_dataset dataset;
    let cfg = config_of ~scale in
    let variant = variant_of_string model in
    let drift =
      Option.map
        (fun drift_at ->
          {
            Scenario.drift_at;
            kind = (if drift_ramp > 0 then Scenario.Gradual drift_ramp else Scenario.Abrupt);
            shift = drift_shift;
          })
        drift_at
    in
    let perturb =
      { Scenario.burst_rate; burst_sigma; dropout_rate; wander_amp; wander_period }
    in
    let scenario =
      try Scenario.make ~length ?drift ~perturb ~dataset ~n_samples:samples ~seed ()
      with Invalid_argument msg ->
        Printf.eprintf "bad scenario: %s\n" msg;
        exit 1
    in
    let state_init =
      match state_init with
      | `V0 -> `V0
      | `Zero -> `Zero
      | `Rand -> `Randomized state_sigma
    in
    let protocol =
      {
        Online.width;
        stride = (if stride > 0 then stride else width);
        state_init;
        adapt;
        adapt_lr;
        adapt_steps;
        detect_baseline;
        detect_drop;
      }
    in
    with_obs ~metrics_out ~trace (fun () ->
        with_jobs jobs (fun pool ->
            let run =
              match cache_dir with
              | Some dir ->
                  (* The grid's own cell: the fingerprint leaves datasets
                     and seeds out. *)
                  let one = { cfg with Config.datasets = [ dataset ]; seeds = [ seed ] } in
                  List.hd (Grid.run ?pool ~dir one ~variants:[ variant ])
              | None -> Experiments.train_run ?pool cfg ~dataset ~variant ~seed
            in
            let sr = Experiments.stream_run ?pool cfg ~scenario ~protocol run in
            Experiments.print_stream ~scenario ~protocol sr))
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Run a model over a synthetic sensor stream (drift, bursts, dropouts, wander) \
             through the sliding-window evaluator, optionally with online test-time \
             adaptation against the frozen baseline.")
    Term.(
      const run $ dataset_arg $ model_arg $ seed_arg $ scale_arg $ samples_arg $ length_arg
      $ drift_at_arg $ drift_ramp_arg $ drift_shift_arg $ burst_rate_arg $ burst_sigma_arg
      $ dropout_rate_arg $ wander_amp_arg $ wander_period_arg $ width_arg $ stride_arg
      $ state_init_arg $ state_sigma_arg $ adapt_arg $ adapt_lr_arg $ adapt_steps_arg
      $ detect_baseline_arg $ detect_drop_arg $ cache_dir_arg $ jobs_arg $ metrics_out_arg
      $ trace_arg)

(* serve --------------------------------------------------------------------- *)

let serve_cmd =
  let load_arg =
    let doc =
      "Model or train checkpoint to serve (written by `train --checkpoint-dir`). The file \
       is polled for changes and hot-reloaded atomically (see --reload-every-ms)."
    in
    Arg.(required & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_arg =
    let doc = "TCP port (0 picks an ephemeral port, printed at startup)." in
    Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let max_batch_arg =
    let doc =
      "The most rows one flush takes off the admission queue. A request that finds a lane \
       free computes at once; requests that arrive while every lane is busy queue and \
       coalesce into blocks of up to this many rows."
    in
    Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"ROWS" ~doc)
  in
  let reload_arg =
    let doc = "Checkpoint poll period for hot reload, in milliseconds (0 disables)." in
    Arg.(value & opt float 500.0 & info [ "reload-every-ms" ] ~docv:"MS" ~doc)
  in
  let jobs_arg =
    let doc =
      "Domains the daemon serves on (default: the runtime's recommended domain count, one per \
       core, at most 128). Connection handlers are spread round-robin over N domains, and at \
       most N lanes compute blocks at once, each on its handler's thread; 1 runs everything \
       on one domain. Every domain it serves on, its own included, runs on a fixed 256 KB \
       minor heap, so memory stays close to that of a one-domain daemon. A throughput knob only — served logits \
       are identical for every value."
    in
    Arg.(
      value
      & opt int Pnc_serve.Serve.default_config.pool_size
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run load host port max_batch precision reload_ms jobs metrics_out trace =
    let precision = Pnc_core.Batch.entry_precision ?precision () in
    let config =
      {
        Pnc_serve.Serve.default_config with
        host;
        port;
        max_batch;
        precision;
        pool_size = jobs;
        reload_every_s = reload_ms /. 1000.;
      }
    in
    with_obs ~metrics_out ~trace (fun () ->
        match Pnc_serve.Serve.create ~config ~checkpoint:load () with
        | Error msg ->
            Printf.eprintf "serve: %s\n" msg;
            exit 1
        | Ok srv ->
            Printf.printf "serving %s (model version %d, %s precision) on http://%s:%d\n%!"
              (Pnc_serve.Serve.model_label srv)
              (Pnc_serve.Serve.model_version srv)
              (Pnc_core.Batch.precision_name precision)
              host (Pnc_serve.Serve.port srv);
            Printf.printf
              "micro-batching: up to %d rows per flush, %d lane%s; hot reload: %s; \
               SIGINT/SIGTERM drain and exit\n%!"
              max_batch (max 1 jobs) (if jobs > 1 then "s" else "")
              (if reload_ms > 0. then Printf.sprintf "every %.0f ms" reload_ms else "off");
            (* This domain runs the accept loop and the handlers of every
               n-th connection: give it the small minor heap the handler
               domains start on. The library leaves an embedding
               caller's domain as it is. *)
            Gc.set { (Gc.get ()) with minor_heap_size = Pnc_util.Pool.minor_heap_words };
            Pnc_serve.Serve.run srv;
            (* [run] ignores SIGPIPE, so if the reader of stdout is gone
               this write fails with EPIPE; the drain itself succeeded,
               and a lost banner must not turn it into a failure exit.
               Closing stdout drops the unwritten bytes, which the
               at-exit flush would otherwise retry and raise on. *)
            try print_endline "serve: drained and stopped."
            with Sys_error _ -> close_out_noerr stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a checkpointed model over HTTP/1.1 with dynamic micro-batching (see \
             docs/SERVING.md).")
    Term.(
      const run $ load_arg $ host_arg $ port_arg $ max_batch_arg $ precision_arg $ reload_arg
      $ jobs_arg $ metrics_out_arg $ trace_arg)

(* ckpt ---------------------------------------------------------------------- *)

let ckpt_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Checkpoint file.")
  in
  let inspect =
    let run file =
      match Pnc_ckpt.Ckpt.load ~path:file with
      | Ok ck -> print_string (Pnc_ckpt.Ckpt.inspect ck)
      | Error e ->
          Printf.eprintf "%s: %s\n" file (Pnc_ckpt.Ckpt.error_to_string e);
          exit 1
    in
    Cmd.v
      (Cmd.info "inspect"
         ~doc:"Validate a checkpoint (magic, version, CRCs) and print its header.")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "ckpt" ~doc:"Checkpoint utilities (see docs/CHECKPOINTS.md).")
    [ inspect ]

(* grid ---------------------------------------------------------------------- *)

(* Process-sharded experiment grid over the checkpoint cache (see
   docs/GRID.md). Workers coordinate solely through the cache
   directory: claim files for in-progress cells, atomic renames for
   results — so `run` is resumable, crash-tolerant and shard-count
   invariant, and `merge` is byte-identical however the cells got
   there. *)

let cache_dir_arg =
  let doc =
    "Grid cache directory — the only coordination channel between workers. Created by \
     $(b,run)/$(b,worker); $(b,status) and $(b,merge) require it to exist."
  in
  Arg.(required & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let grid_datasets_arg =
  let doc =
    "Restrict the grid to $(docv) (repeatable). Default: every dataset of the scale. Cells \
     are keyed independently of this selection, so narrowing or widening it reuses the cache."
  in
  Arg.(value & opt_all string [] & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let grid_variants_arg =
  let doc = "Variant set: $(b,all) (six variants, every artifact), $(b,table1) or $(b,fig7)." in
  Arg.(value & opt string "all" & info [ "variants" ] ~docv:"SET" ~doc)

let lease_ttl_arg =
  let doc =
    "Seconds before a live-pid claim is considered hung and reaped. Dead-pid claims are \
     reaped immediately regardless."
  in
  Arg.(value & opt float 3600. & info [ "lease-ttl" ] ~docv:"SECONDS" ~doc)

let grid_config ~scale ~precision ~datasets =
  let cfg = config_of ~scale in
  let precision = Pnc_core.Batch.entry_precision ?precision () in
  let cfg = { cfg with Pnc_exp.Config.precision } in
  match datasets with
  | [] -> cfg
  | ds ->
      List.iter check_dataset ds;
      { cfg with Pnc_exp.Config.datasets = ds }

let grid_variants_of ~variants:s =
  try Grid.variants_of_string s
  with Invalid_argument msg ->
    Printf.eprintf "grid: %s\n" msg;
    exit 2

let require_cache_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf
      "grid: no cache directory at %s (run `adapt_pnc grid run --cache-dir %s` first)\n" dir dir;
    exit 2
  end

let grid_worker_cmd =
  let worker_id_arg =
    let doc = "Shard label used in claim files and telemetry." in
    Arg.(value & opt int 0 & info [ "worker-id" ] ~docv:"N" ~doc)
  in
  let run cache_dir scale datasets variants_s precision lease_ttl worker_id metrics_out trace =
    let variants = grid_variants_of ~variants:variants_s in
    let cfg = grid_config ~scale ~precision ~datasets in
    Experiments.mkdir_p cache_dir;
    with_obs ~metrics_out ~trace (fun () ->
        let cells = Grid.cells_of_config ~dir:cache_dir cfg ~variants in
        let owner = Printf.sprintf "worker-%d" worker_id in
        let n, _ =
          Grid.Proto.work ~lease_ttl ~progress:(Printf.eprintf "%s\n%!") ~owner cells
        in
        Printf.printf "[%s] grid complete: computed %d of %d cells\n" owner n
          (List.length cells))
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"One grid worker process (spawned by `grid run`; also usable standalone — \
             workers sharing a cache dir shard the grid between them).")
    Term.(
      const run $ cache_dir_arg $ scale_arg $ grid_datasets_arg $ grid_variants_arg
      $ precision_arg $ lease_ttl_arg $ worker_id_arg $ metrics_out_arg $ trace_arg)

let grid_run_cmd =
  let shards_arg =
    let doc =
      "Worker processes to shard the grid across (1 = in-process, no subprocess). Results \
       are invariant to the shard count; only wall-clock changes."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let run cache_dir shards scale datasets variants_s precision lease_ttl metrics_out trace =
    if shards < 1 then begin
      Printf.eprintf "grid run: --shards must be >= 1 (got %d)\n" shards;
      exit 2
    end;
    let variants = grid_variants_of ~variants:variants_s in
    let cfg = grid_config ~scale ~precision ~datasets in
    with_obs ~metrics_out ~trace (fun () ->
        if shards = 1 then begin
          let runs =
            Grid.run ~lease_ttl ~progress:(Printf.eprintf "%s\n%!") ~dir:cache_dir cfg ~variants
          in
          Printf.printf "grid complete: %d cells\n" (List.length runs)
        end
        else begin
          Experiments.mkdir_p cache_dir;
          let precision_s =
            Pnc_core.Batch.precision_name cfg.Pnc_exp.Config.precision
          in
          let argv ~worker_id =
            Array.of_list
              ([
                 Sys.executable_name; "grid"; "worker"; "--cache-dir"; cache_dir; "--scale";
                 scale; "--variants"; variants_s; "--precision"; precision_s; "--lease-ttl";
                 Printf.sprintf "%g" lease_ttl; "--worker-id"; string_of_int worker_id;
               ]
              @ List.concat_map (fun d -> [ "--dataset"; d ]) datasets
              @ (match metrics_out with
                | Some f -> [ "--metrics-out"; Printf.sprintf "%s.worker%d" f worker_id ]
                | None -> [])
              @ if trace then [ "--trace" ] else [])
          in
          let exits = Grid.spawn_workers ~shards ~argv in
          List.iter
            (fun (worker_id, st) ->
              match st with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED c ->
                  Printf.eprintf "grid run: worker-%d exited with code %d\n" worker_id c
              | Unix.WSIGNALED s ->
                  Printf.eprintf "grid run: worker-%d killed by signal %d\n" worker_id s
              | Unix.WSTOPPED s ->
                  Printf.eprintf "grid run: worker-%d stopped by signal %d\n" worker_id s)
            exits;
          let st = Grid.status ~lease_ttl ~dir:cache_dir cfg ~variants in
          if st.Grid.done_ = st.Grid.total then
            Printf.printf "grid complete: %d cells across %d workers\n" st.Grid.total shards
          else begin
            (* Workers only exit early when killed or crashed; the grid
               is resumable — rerunning picks up exactly the missing
               cells. *)
            Grid.print_status st;
            Printf.eprintf "grid run: incomplete (%d of %d cells done); rerun to resume\n"
              st.Grid.done_ st.Grid.total;
            exit 1
          end
        end)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compute the (dataset × variant × seed) grid, sharded across worker processes \
             coordinating only through the cache directory. Resumable: cached cells are \
             skipped, a killed run continues where it stopped.")
    Term.(
      const run $ cache_dir_arg $ shards_arg $ scale_arg $ grid_datasets_arg
      $ grid_variants_arg $ precision_arg $ lease_ttl_arg $ metrics_out_arg $ trace_arg)

let grid_status_cmd =
  let json_arg =
    let doc = "Emit JSON Lines (one object per cell plus a summary) instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run cache_dir scale datasets variants_s precision lease_ttl json =
    let variants = grid_variants_of ~variants:variants_s in
    let cfg = grid_config ~scale ~precision ~datasets in
    require_cache_dir cache_dir;
    let st = Grid.status ~lease_ttl ~dir:cache_dir cfg ~variants in
    if json then List.iter print_endline (Grid.status_json_lines st) else Grid.print_status st
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Cells done/claimed/stale/pending for a grid cache, with an ETA from the \
             cached per-cell timings. Stale means present-but-untrustworthy (corrupt cell, \
             interrupted write, dead worker's claim): it will be recomputed, never trusted.")
    Term.(
      const run $ cache_dir_arg $ scale_arg $ grid_datasets_arg $ grid_variants_arg
      $ precision_arg $ lease_ttl_arg $ json_arg)

let grid_merge_cmd =
  let run cache_dir scale datasets variants_s precision =
    let variants = grid_variants_of ~variants:variants_s in
    let cfg = grid_config ~scale ~precision ~datasets in
    require_cache_dir cache_dir;
    match Grid.merge ~dir:cache_dir cfg ~variants with
    | Ok runs -> Grid.print_merged cfg ~variants runs
    | Error missing ->
        Printf.eprintf "grid merge: %d cells missing or invalid:\n" (List.length missing);
        List.iter (fun id -> Printf.eprintf "  %s\n" id) missing;
        Printf.eprintf "run `adapt_pnc grid run --cache-dir %s` to compute them\n" cache_dir;
        exit 3
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Assemble the paper tables from cached cells only (no training). Deterministic: \
             byte-identical output for every shard count and completion order; exits 3 if \
             any cell is missing.")
    Term.(
      const run $ cache_dir_arg $ scale_arg $ grid_datasets_arg $ grid_variants_arg
      $ precision_arg)

let grid_cmd =
  Cmd.group
    (Cmd.info "grid"
       ~doc:"Process-sharded experiment grid over the checkpoint cache (see docs/GRID.md).")
    [ grid_run_cmd; grid_worker_cmd; grid_status_cmd; grid_merge_cmd ]

(* ablate -------------------------------------------------------------------- *)

let ablate_cmd =
  let run dataset seed scale jobs corr metrics_out trace =
    check_dataset dataset;
    let cfg = apply_corr (config_of ~scale) corr in
    let t =
      Pnc_util.Table.create
        ~header:[ "Configuration"; "clean+var"; "perturbed+var"; "corr+var" ]
    in
    with_obs ~metrics_out ~trace (fun () ->
        with_jobs jobs (fun pool ->
            List.iter
              (fun variant ->
                Printf.eprintf "training %s...\n%!" (Experiments.variant_name variant);
                let r =
                  Obs.Span.with_
                    ~attrs:[ ("variant", Obs.Str (Experiments.variant_name variant)) ]
                    "ablate.variant"
                    (fun () -> Experiments.train_run ?pool cfg ~dataset ~variant ~seed)
                in
                Pnc_util.Table.add_row t
                  [
                    Experiments.variant_name variant;
                    Printf.sprintf "%.3f" r.Experiments.clean_var_acc;
                    Printf.sprintf "%.3f" r.Experiments.pert_var_acc;
                    Printf.sprintf "%.3f" r.Experiments.corr_var_acc;
                  ])
              Experiments.ablate_variants));
    Printf.printf "Fig. 7 ablation (+NI extension) on %s (seed %d):\n" dataset seed;
    Pnc_util.Table.print t
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Run the Fig. 7 ablation variants, plus the +NI noise-injection extension, on \
             one dataset. The corr+var column evaluates every variant under the same \
             correlated-variation draws (--corr, default 0.5,2.0).")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ jobs_arg $ corr_arg $ metrics_out_arg
      $ trace_arg)

(* hwcost -------------------------------------------------------------------- *)

let hwcost_cmd =
  let run dataset seed scale =
    check_dataset dataset;
    let cfg = config_of ~scale in
    let row variant =
      Printf.eprintf "training %s...\n%!" (Experiments.variant_name variant);
      let r = Experiments.train_run cfg ~dataset ~variant ~seed in
      match r.Experiments.model with
      | Pnc_core.Model.Circuit net ->
          (Pnc_core.Hardware.of_network net, Pnc_core.Hardware.power_mw net)
      | _ -> assert false
    in
    let bc, bp = row Experiments.Base in
    let ac, ap = row Experiments.Full in
    Printf.printf "Table III row for %s:\n" dataset;
    Printf.printf "  pTPNC:     %s, %.3f mW\n" (Pnc_core.Hardware.describe bc) bp;
    Printf.printf "  ADAPT-pNC: %s, %.3f mW\n" (Pnc_core.Hardware.describe ac) ap;
    Printf.printf "  devices x%.2f, power %.0f%% saving\n"
      (float_of_int (Pnc_core.Hardware.total ac) /. float_of_int (Pnc_core.Hardware.total bc))
      (100. *. (1. -. (ap /. bp)))
  in
  Cmd.v (Cmd.info "hwcost" ~doc:"Device counts and power for one dataset (Table III).")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg)

(* augment-preview ------------------------------------------------------------- *)

let augment_preview_cmd =
  let run seed =
    Experiments.print_fig6 (Experiments.fig6 ~seed ())
  in
  Cmd.v (Cmd.info "augment-preview" ~doc:"Show the augmentation transforms (Fig. 6).")
    Term.(const run $ seed_arg)

(* spice-char -------------------------------------------------------------------- *)

let spice_char_cmd =
  let run () =
    Experiments.print_mu_survey (Experiments.mu_survey ());
    Experiments.filter_characterization ();
    (* Activation circuit: DC sweep of the 2T/2R stage and the eta fit
       (the circuit-level grounding of Ptanh's parameters). *)
    let e, rms = Pnc_core.Ptanh_circuit.characterize () in
    Printf.printf
      "ptanh circuit fit (after inverter): eta1=%.3f eta2=%.3f eta3=%.3f eta4=%.3f (rms %.4f)\n"
      e.Pnc_core.Ptanh_circuit.eta1 e.Pnc_core.Ptanh_circuit.eta2 e.Pnc_core.Ptanh_circuit.eta3
      e.Pnc_core.Ptanh_circuit.eta4 rms;
    (* Temperature/aging drift of the learnable-filter RC, extracted by
       transient tau fits at each operating point (docs/VARIATION.md). *)
    let pts =
      Pnc_spice.Drift.survey ~r:330. ~c:1e-5 ~dt:Pnc_core.Printed.dt ()
    in
    Printf.printf "\nfilter RC drift characterization (tau-fit multipliers):\n";
    let t =
      Pnc_util.Table.create
        ~header:[ "temp (C)"; "age (h)"; "R mult"; "C mult"; "fit rms" ]
    in
    List.iter
      (fun p ->
        Pnc_util.Table.add_row t
          [
            Printf.sprintf "%.0f" p.Pnc_spice.Drift.temp_c;
            Printf.sprintf "%.0f" p.Pnc_spice.Drift.age_hours;
            Printf.sprintf "%.4f" p.Pnc_spice.Drift.r_mult;
            Printf.sprintf "%.4f" p.Pnc_spice.Drift.c_mult;
            Printf.sprintf "%.2e" p.Pnc_spice.Drift.fit_rms;
          ])
      pts;
    Pnc_util.Table.print t
  in
  Cmd.v
    (Cmd.info "spice-char"
       ~doc:"Extract the coupling factor mu and characterize the printed filters (SPICE-lite).")
    Term.(const run $ const ())

(* tune-aug ----------------------------------------------------------------------- *)

let tune_aug_cmd =
  let budget_arg =
    Arg.(value & opt int 8 & info [ "budget" ] ~docv:"N" ~doc:"Number of random candidates.")
  in
  let run dataset seed budget =
    check_dataset dataset;
    let cfg = config_of ~scale:"smoke" in
    let eval policy =
      (* Score a policy by the clean validation accuracy of the Full
         ADAPT-pNC recipe trained at smoke scale, its training copies
         augmented by the policy. *)
      let t =
        Experiments.prepare cfg ~dataset ~seed (fun ~classes ->
            { (Experiments.recipe ~classes Experiments.Full) with Experiments.at = Some policy })
      in
      let _ = Experiments.fit t in
      let acc =
        Pnc_core.Train.accuracy t.Experiments.tr_model t.Experiments.tr_split.Dataset.valid
      in
      Printf.eprintf "  %.3f  %s\n%!" acc (Pnc_augment.Augment.describe_policy policy);
      acc
    in
    let best = Pnc_augment.Tune.search (Rng.create ~seed:(seed + 5)) ~budget ~eval in
    let policy = Pnc_augment.Augment.describe_policy best.Pnc_augment.Tune.policy in
    if best.Pnc_augment.Tune.ties > 1 then
      Printf.printf "tie: %d policies share the best val acc %.3f; the first evaluated: %s\n"
        best.Pnc_augment.Tune.ties best.Pnc_augment.Tune.score policy
    else Printf.printf "best policy (val acc %.3f): %s\n" best.Pnc_augment.Tune.score policy
  in
  Cmd.v
    (Cmd.info "tune-aug"
       ~doc:"Random-search augmentation hyper-parameters (the Ray Tune substitute).")
    Term.(const run $ dataset_arg $ seed_arg $ budget_arg)

(* nas -------------------------------------------------------------------------- *)

let nas_cmd =
  let budget_arg =
    Arg.(value & opt int 6 & info [ "budget" ] ~docv:"N" ~doc:"Number of random architectures.")
  in
  let run dataset seed scale budget =
    check_dataset dataset;
    let cfg = config_of ~scale in
    let progress g = Printf.eprintf "evaluating %s...\n%!" g in
    let candidates = Pnc_exp.Search.random_search ~progress cfg ~dataset ~seed ~budget in
    let t =
      Pnc_util.Table.create
        ~header:[ "Architecture"; "val acc (±10%)"; "test acc (±10%)"; "#devices"; "power mW" ]
    in
    List.iter
      (fun c ->
        Pnc_util.Table.add_row t
          [
            Pnc_exp.Search.describe_genome c.Pnc_exp.Search.genome;
            Printf.sprintf "%.3f" c.Pnc_exp.Search.val_acc;
            Printf.sprintf "%.3f" c.Pnc_exp.Search.test_acc;
            string_of_int c.Pnc_exp.Search.devices;
            Printf.sprintf "%.3f" c.Pnc_exp.Search.power_mw;
          ])
      candidates;
    Printf.printf "architecture search on %s (%d candidates):\n" dataset (List.length candidates);
    Pnc_util.Table.print t;
    print_endline "accuracy/devices Pareto front:";
    List.iter
      (fun c ->
        Printf.printf "  %-28s acc %.3f, %d devices\n"
          (Pnc_exp.Search.describe_genome c.Pnc_exp.Search.genome)
          c.Pnc_exp.Search.val_acc c.Pnc_exp.Search.devices)
      (Pnc_exp.Search.pareto_front candidates)
  in
  Cmd.v
    (Cmd.info "nas"
       ~doc:"Random architecture search over hidden width, filter order, VA and AT (future work).")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg $ budget_arg)

(* export ------------------------------------------------------------------------ *)

let export_cmd =
  let run dataset seed =
    check_dataset dataset;
    let cfg = config_of ~scale:"smoke" in
    Printf.eprintf "training a small ADAPT-pNC on %s to export...\n%!" dataset;
    let r = Experiments.train_run cfg ~dataset ~variant:Experiments.Full ~seed in
    match r.Experiments.model with
    | Pnc_core.Model.Circuit net ->
        print_string (Pnc_core.Netlist_export.deck net);
        (match Pnc_core.Network.layers net with
        | (cb, _, _) :: _ ->
            let inputs = Array.make (Pnc_core.Crossbar.inputs cb) 0.5 in
            let ok = Pnc_core.Netlist_export.dc_check cb ~inputs ~max_abs_error:1e-9 in
            Printf.eprintf "DC cross-check of layer-1 crossbar at V_in = 0.5 V: %s\n"
              (if ok then "netlist matches Eq. (1)" else "MISMATCH")
        | [] -> ())
    | Pnc_core.Model.Reference _ -> ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Train a circuit and print its SPICE deck (crossbars and filter stages).")
    Term.(const run $ dataset_arg $ seed_arg)

(* describe --------------------------------------------------------------------- *)

let describe_cmd =
  let run dataset seed =
    check_dataset dataset;
    let d = Registry.load ~seed dataset in
    print_endline (Pnc_data.Describe.report ~seed d)
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Dataset diagnostics: class balance, separability, 1-NN reference accuracy.")
    Term.(const run $ dataset_arg $ seed_arg)

(* sensitivity ------------------------------------------------------------------- *)

let sensitivity_cmd =
  let level_arg =
    Arg.(value & opt float 0.1 & info [ "level" ] ~docv:"L" ~doc:"Variation level (0.1 = ±10%).")
  in
  let run dataset seed level jobs metrics_out trace =
    check_dataset dataset;
    let cfg = config_of ~scale:"smoke" in
    Printf.eprintf "training an ADAPT-pNC on %s...\n%!" dataset;
    with_obs ~metrics_out ~trace (fun () ->
        with_jobs jobs (fun pool ->
            let r = Experiments.train_run ?pool cfg ~dataset ~variant:Experiments.Full ~seed in
            match r.Experiments.model with
            | Pnc_core.Model.Circuit net ->
                let split, _ = Experiments.load_split cfg ~dataset ~seed in
                let rows =
                  Pnc_core.Sensitivity.analyze ?pool ~rng:(Rng.create ~seed:77) ~level ~draws:10
                    net split.Dataset.test
                in
                Printf.printf "component-family sensitivity on %s at ±%.0f%%:\n%s\n" dataset
                  (100. *. level)
                  (Pnc_core.Sensitivity.report rows)
            | Pnc_core.Model.Reference _ -> ()))
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Which printed component family drives the accuracy loss under variation.")
    Term.(
      const run $ dataset_arg $ seed_arg $ level_arg $ jobs_arg $ metrics_out_arg $ trace_arg)

(* discretize --------------------------------------------------------------------- *)

let discretize_cmd =
  let run dataset seed =
    check_dataset dataset;
    let cfg = config_of ~scale:"smoke" in
    Printf.eprintf "training an ADAPT-pNC on %s...\n%!" dataset;
    let r = Experiments.train_run cfg ~dataset ~variant:Experiments.Full ~seed in
    match r.Experiments.model with
    | Pnc_core.Model.Circuit net ->
        let split, _ = Experiments.load_split cfg ~dataset ~seed in
        let ladder =
          Pnc_core.Discretize.accuracy_ladder ~levels_list:[ 2; 3; 4; 6; 8; 16; 32 ] net
            split.Dataset.test
        in
        Printf.printf "conductance discretization ladder on %s (continuous acc %.3f):\n" dataset
          r.Experiments.clean_acc;
        List.iter (fun (l, acc) -> Printf.printf "  %2d ink levels: acc %.3f\n" l acc) ladder
    | Pnc_core.Model.Reference _ -> ()
  in
  Cmd.v
    (Cmd.info "discretize"
       ~doc:"Accuracy after snapping the trained conductances to k printable ink levels.")
    Term.(const run $ dataset_arg $ seed_arg)

let () =
  let doc = "ADAPT-pNC: robustness-aware printed temporal neuromorphic circuits (DATE 2025)" in
  let info = Cmd.info "adapt_pnc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            datasets_cmd;
            train_cmd;
            eval_cmd;
            stream_cmd;
            serve_cmd;
            ckpt_cmd;
            grid_cmd;
            ablate_cmd;
            hwcost_cmd;
            augment_preview_cmd;
            spice_char_cmd;
            tune_aug_cmd;
            nas_cmd;
            export_cmd;
            describe_cmd;
            sensitivity_cmd;
            discretize_cmd;
          ]))
