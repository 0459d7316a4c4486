(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 3 and EXPERIMENTS.md).

   Sections, in order:
   - Fig. 6    augmentation showcase (PowerCons)
   - Sec III-2 coupling-factor (mu) extraction via SPICE-lite
   - Fig. 4    printed filter characterization (cutoffs)
   - NI        noise-injection ablation under correlated variation
   - Table I   accuracy on the 15 benchmarks (3 model families)
   - Fig. 5    baseline degradation under variation
   - Fig. 7    ablation (VA / AT / SO-LF / combined)
   - Table III hardware costs and power
   - Table II  runtime (Timer means + Bechamel microbenchmark)

   Scale via ADAPT_PNC_SCALE=smoke|fast|paper (default fast). Throughput
   (draws/s, req/s, windows/s) is the benchmark's job: see perfbench/. *)

module Config = Pnc_exp.Config
module Experiments = Pnc_exp.Experiments
module Grid = Pnc_grid.Grid
module Obs = Pnc_obs.Obs

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

(* Table II microbenchmark: Bechamel stages the epoch closure Table II's
   Timer means run, one test per model family, on the first dataset. *)
let bechamel_table2 cfg =
  let open Bechamel in
  let open Toolkit in
  let dataset = List.hd cfg.Config.datasets in
  let test (name, variant) =
    Test.make ~name (Staged.stage (Experiments.table2_epoch cfg ~dataset variant))
  in
  let tests =
    Test.make_grouped ~name:"epoch" ~fmt:"%s %s"
      (List.map test
         [
           ("elman-rnn", Experiments.Reference);
           ("ptpnc-baseline", Experiments.Base);
           ("adapt-pnc", Experiments.Full);
         ])
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let bench_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
  let raw_results = Benchmark.all bench_cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let merged = Analyze.merge ols instances results in
  print_endline "Table II (Bechamel) - one training epoch, monotonic clock";
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) ->
          Printf.printf "  %-28s %s/epoch\n" name (Pnc_util.Timer.fmt_seconds (est *. 1e-9))
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    clock;
  print_newline ()

(* Noise-injection ablation under correlated variation: the same ADAPT
   architecture trained with and without straight-through noise
   injection, both evaluated under the correlated +drift draw model
   (the corr+var operating point of `adapt_pnc ablate`). The +NI row is
   the robust-training payoff this section pins. *)
let bench_ni ?pool cfg =
  let dataset = List.hd cfg.Config.datasets in
  let corr = Experiments.corr_of_cfg cfg in
  let row variant =
    Printf.eprintf "[bench] training %s (%s)...\n%!"
      (Experiments.variant_name variant)
      dataset;
    Experiments.train_run ?pool cfg ~dataset ~variant ~seed:0
  in
  let full = row Experiments.Full in
  let ni = row Experiments.Ni in
  Printf.printf
    "Noise-injection ablation - ADAPT net on %s, correlated variation (rho=%.2f, clen=%.2f)\n"
    dataset corr.Pnc_core.Variation.rho corr.Pnc_core.Variation.clen;
  let line name (r : Experiments.run) =
    Printf.printf "  %-12s clean %.3f   i.i.d.+var %.3f   corr+var %.3f\n" name
      r.Experiments.clean_acc r.Experiments.clean_var_acc r.Experiments.corr_var_acc
  in
  line "ADAPT" full;
  line "ADAPT +NI" ni;
  let gain = ni.Experiments.corr_var_acc -. full.Experiments.corr_var_acc in
  Printf.printf "  +NI corr+var gain            %+.3f%s\n\n%!" gain
    (if gain >= 0. then "" else "  REGRESSION");
  let emit name (r : Experiments.run) =
    if Obs.enabled () then
      Obs.emit "bench.ni"
        [
          ("variant", Obs.Str name);
          ("dataset", Obs.Str dataset);
          ("corr_rho", Obs.Float corr.Pnc_core.Variation.rho);
          ("corr_clen", Obs.Float corr.Pnc_core.Variation.clen);
          ("clean_acc", Obs.Float r.Experiments.clean_acc);
          ("clean_var_acc", Obs.Float r.Experiments.clean_var_acc);
          ("corr_var_acc", Obs.Float r.Experiments.corr_var_acc);
          ("gain", Obs.Float gain);
        ]
  in
  emit "adapt" full;
  emit "adapt+ni" ni

let run_all () =
  let cfg = Config.from_env () in
  (* ADAPT_PNC_BENCH_ONLY=ni runs just the noise-injection section and
     skips the training grid. Any other value is rejected rather than
     falling through to the full harness. *)
  let ni_only =
    match Sys.getenv_opt "ADAPT_PNC_BENCH_ONLY" with
    | None -> false
    | Some s -> (
        match String.trim (String.lowercase_ascii s) with
        | "" -> false
        | "ni" -> true
        | other ->
            Printf.eprintf "[bench] unknown ADAPT_PNC_BENCH_ONLY=%S (accepted values: ni)\n%!" other;
            exit 2)
  in
  (* ADAPT_PNC_JOBS=n selects the evaluation pool size (default: one
     worker per available core minus one; 0/1 = sequential). Results
     are worker-count-invariant by construction. *)
  let jobs =
    match Sys.getenv_opt "ADAPT_PNC_JOBS" with
    | Some s -> (try int_of_string (String.trim s) with _ -> Pnc_util.Pool.default_size ())
    | None -> Pnc_util.Pool.default_size ()
  in
  if Obs.enabled () then
    Obs.emit "bench.meta"
      [
        ("scale", Obs.Str (Config.scale_name cfg.Config.scale));
        ("datasets", Obs.Int (List.length cfg.Config.datasets));
        ("seeds", Obs.Int (List.length cfg.Config.seeds));
        ("jobs", Obs.Int jobs);
        ("cores", Obs.Int (Domain.recommended_domain_count ()));
      ];
  if ni_only then begin
    Printf.printf "ADAPT-pNC benchmark harness (scale: %s, noise-injection section only)\n\n"
      (Config.scale_name cfg.Config.scale);
    bench_ni cfg;
    Obs.emit_metrics ();
    print_endline "done.";
    exit 0
  end;
  let pool = Pnc_util.Pool.create ~size:jobs () in
  Printf.printf "ADAPT-pNC benchmark harness (scale: %s, %d datasets, seeds: %d, eval workers: %d)\n\n"
    (Config.scale_name cfg.Config.scale)
    (List.length cfg.Config.datasets)
    (List.length cfg.Config.seeds)
    (Pnc_util.Pool.size pool);

  (* Light artifacts first. *)
  Experiments.print_fig6 (Experiments.fig6 ());
  Experiments.print_mu_survey (Experiments.mu_survey ());
  Experiments.filter_characterization ();
  bench_ni ~pool cfg;

  (* The shared training grid behind Table I, Fig. 5, Fig. 7, Table III,
     cached in ADAPT_PNC_CACHE_DIR, so an interrupted or re-run harness
     skips completed training runs. Unset, the cache is a fresh
     directory: cells are keyed by the config, not by the code that
     trained them, so a shared default would serve stale cells. *)
  let variants = Experiments.all_variants in
  let dir =
    match Sys.getenv_opt "ADAPT_PNC_CACHE_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ ->
        let d = Filename.temp_dir "adapt_pnc_bench" "" in
        progress ("grid cells cached in " ^ d);
        d
  in
  let grid = Grid.run ~pool ~progress ~dir cfg ~variants in
  Grid.print_merged cfg ~variants grid;

  (* Extension ablation: robustness and manufacturing yield as the
     process variation grows beyond the paper's 10% operating point. *)
  Experiments.print_variation_sweep ~threshold:0.6
    (Experiments.variation_sweep_of_grid ~threshold:0.6 ~pool cfg grid);

  (* Runtime comparisons. *)
  Experiments.print_table2 (Experiments.table2 ~progress cfg);
  bechamel_table2 cfg;
  Pnc_util.Pool.shutdown pool;
  Obs.emit_metrics ();
  print_endline "done."

let () =
  (* BENCH_OUT=path streams every bench section as JSON Lines (plus a
     final metrics snapshot) alongside the human-readable report. The
     instrumentation never touches an Rng stream, so the printed
     numbers are identical with and without the sink. *)
  match Sys.getenv_opt "BENCH_OUT" with
  | Some path when String.trim path <> "" -> Obs.with_jsonl ~path run_all
  | _ -> run_all ()
