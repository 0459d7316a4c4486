(** One entry point per table / figure of the paper's evaluation
    (see DESIGN.md §3 for the experiment index).

    The heavy artifacts (Table I, Table III, Fig. 5, Fig. 7) share one
    training grid: every (dataset × variant × seed) combination is
    trained once and each artifact reads the slice it needs. *)

(** Training configuration variants of the ablation (Fig. 7), plus the
    reference RNN. [Base] is the no-variation-aware first-order pTPNC
    baseline; [Full] is VA + SO-LF + AT — the robustness-aware
    ADAPT-pNC of Table I. [Ni] is the Full configuration additionally
    trained through correlated perturbed realizations with
    straight-through gradients (noise injection; an extension beyond
    the paper). *)
type variant = Reference | Base | Va | At | So_lf | Full | Ni

val variant_name : variant -> string

val variant_tag : variant -> string
(** Stable lowercase identifier used in cache keys and checkpoint
    metadata (["reference"], ["base"], ["va"], ["at"], ["so_lf"],
    ["full"]). *)

val table1_variants : variant list
(** [Reference; Base; Full]. *)

val fig7_variants : variant list
(** [Base; Va; At; So_lf; Full]. *)

val ablate_variants : variant list
(** [fig7_variants @ [Ni]] — the ladder printed by [adapt_pnc ablate];
    {!fig7_variants} itself is unchanged so the Fig. 7 artifact and its
    cached grids stay pinned. *)

val corr_of_cfg : Config.t -> Pnc_core.Variation.corr
(** The correlated operating point used by the [+NI] training spec and
    the [corr_var_acc] metric: [cfg.corr] when set, else
    {!Pnc_core.Variation.default_corr}. *)

val load_split :
  ?augment:Pnc_augment.Augment.policy -> Config.t -> dataset:string -> seed:int ->
  Pnc_data.Dataset.split * int
(** The split of one (dataset, seed) run and its class count: the
    dataset drawn by {!Pnc_data.Registry.load} at [cfg.dataset_n]
    samples and preprocessed with stream [seed + 1000]. With [augment],
    the training split alone gains [cfg.aug_copies] copies of each
    series augmented by that policy (stream [seed + 2000]); validation
    and test stay clean, so model selection and scoring never see the
    augmentation policy. *)

(** {1 One training recipe}

    Every model the grid, the architecture search, both Table II
    timers and [adapt_pnc tune-aug] train is built by {!prepare}. *)

type family = Rnn | Circuit of Pnc_core.Network.arch

type recipe = {
  family : family;
  hidden : int;
  va : bool;  (** [cfg.train_va], else [cfg.train_base] *)
  at : Pnc_augment.Augment.policy option;  (** the training copies' policy *)
  ni : bool;  (** noise injection at {!corr_of_cfg}, antithetic pairs *)
}

val recipe : classes:int -> variant -> recipe
(** A variant's recipe on a dataset of [classes] classes: VA for [Va],
    [Full], [Ni]; AT with {!Pnc_augment.Augment.default_policy} for
    [At], [Full], [Ni]; NI for [Ni]. *)

type training = {
  tr_split : Pnc_data.Dataset.split;
  tr_model : Pnc_core.Model.t;
  tr_cfg : Pnc_core.Train.config;
  tr_seed : int;
}

val prepare : Config.t -> dataset:string -> seed:int -> (classes:int -> recipe) -> training
(** What one training run is made of, for the recipe at the dataset's
    class count: {!load_split}'s split augmented by the recipe's AT
    policy, the initial model drawn from stream [seed + 77], and the
    budget. *)

val fit :
  ?checkpoint_every:int -> ?checkpoint_path:string -> ?resume_from:string ->
  ?die_at_epoch:int -> training -> Pnc_core.Train.history
(** {!Pnc_core.Train.train} of the prepared run on training stream
    [seed + 3000]. *)

type run = {
  dataset : string;
  variant : variant;
  seed : int;
  model : Pnc_core.Model.t;
  clean_acc : float;  (** original test set, no variation *)
  clean_var_acc : float;  (** original test set, ±10 % components *)
  aug_var_acc : float;  (** original+augmented test, ±10 % (Table I protocol) *)
  pert_var_acc : float;  (** perturbed test, ±10 % (Fig. 5/7 protocol) *)
  corr_var_acc : float;
      (** original test under spatially {e correlated} ±10 % variation
          at {!corr_of_cfg} (draw stream seed+7000, disjoint from every
          other protocol) *)
  train_seconds : float;
  epochs : int;
}

val train_run :
  ?pool:Pnc_util.Pool.t ->
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?die_at_epoch:int ->
  Config.t ->
  dataset:string ->
  variant:variant ->
  seed:int ->
  run
(** {!fit} of the variant's {!prepare}d run, then its scores.
    Training itself stays on the (sequential) autodiff path; [pool]
    parallelizes the Monte-Carlo evaluation protocols with
    worker-count-invariant results, so it does not enter
    {!Config.fingerprint}; every evaluation runs at the configured
    [cfg.precision] tier. The checkpoint arguments are passed through
    to {!fit}. *)

val all_variants : variant list
(** [Reference :: fig7_variants] — the six-variant grid that feeds
    every artifact (Table I, Table III, Fig. 5, Fig. 7). *)

val grid_keys : Config.t -> variants:variant list -> (string * variant * int) list
(** The (dataset, variant, seed) cells of the grid in canonical order
    (dataset-major, then variant, then seed). The {!Pnc_grid} driver
    computes and merges in this order, which is why merged tables are
    independent of completion order and worker count. *)

val cell_path :
  dir:string -> Config.t -> dataset:string -> variant:variant -> seed:int -> string
(** Cache file for one grid cell: [dir/cell-<md5hex>.ckpt], where the
    digest covers {!Config.fingerprint} plus (dataset, variant, seed). *)

val save_cell : path:string -> Config.t -> run -> unit
(** Write one computed cell as a ["grid-cell"] checkpoint (model
    parameters + metrics + identity metadata), atomically. *)

val load_cell :
  path:string -> Config.t -> dataset:string -> variant:variant -> seed:int -> run option
(** [None] on any failure — missing file, corrupt or truncated bytes,
    kind/fingerprint/identity mismatch. A cell that does not load
    cleanly is recomputed, never trusted. When the file {e exists} but
    fails to load, a [grid.cell.stale] event is emitted and the
    [grid.stale_cells] counter is bumped, so interrupted cell writes
    are observable (surfaced as [stale] by [grid status]) instead of
    silently recomputed on the next full run. *)

val mkdir_p : string -> unit
(** Recursive, race-tolerant directory creation: the cache directory
    is created by whichever of [Grid.run] or `grid worker` gets there
    first. *)

(** {1 Streaming protocol}

    The online workload family: a synthetic sensor stream
    ({!Pnc_stream.Scenario}) evaluated through sliding windows
    ({!Pnc_stream.Online}), with the frozen trained model as the
    ablation baseline and optional test-time adaptation. *)

type stream_run = {
  sr_run : run;  (** the trained cell the stream ran over *)
  sr_frozen : Pnc_stream.Online.result;  (** adaptation-off baseline *)
  sr_adapted : Pnc_stream.Online.result option;
      (** present iff the protocol asked for adaptation; computed on
          the {e same} trained weights (restored afterwards) and the
          same eval rng as the frozen run *)
}

val stream_run :
  ?pool:Pnc_util.Pool.t ->
  Config.t ->
  scenario:Pnc_stream.Scenario.t ->
  protocol:Pnc_stream.Online.protocol ->
  run ->
  stream_run
(** Streams the realized scenario over a trained cell (from
    {!train_run}, or from the grid cache through [Grid.run]): always
    the frozen baseline, plus the adapted pass when the protocol
    enables adaptation. The model keeps its trained weights on return.
    Circuits stream under ±[eval_level] component variation on one
    replayed physical instance; evaluation randomness comes from the
    run's seed+6000, disjoint from every training/eval stream of
    {!train_run}.
    @raise Invalid_argument when the run was trained on another
    dataset than the scenario streams. *)

val print_stream :
  scenario:Pnc_stream.Scenario.t ->
  protocol:Pnc_stream.Online.protocol ->
  stream_run ->
  unit
(** Accuracy-over-time table plus summary lines. Deliberately free of
    wall-clock columns: two runs of the same protocol print
    byte-identical output for any pool size, which the
    CI stream job checks with [cmp]. *)

(** {1 Artifacts} *)

type cell = { mean : float; std : float }

type table1_row = {
  t1_dataset : string;
  elman : cell;
  ptpnc : cell;
  adapt : cell;
}

val table1_of_grid : Config.t -> run list -> table1_row list
(** Per dataset: top-k seeds by clean accuracy, mean ± std of the
    augmented-test-under-variation accuracy — the paper's Table I
    protocol. The last row is the average across datasets. *)

val print_table1 : table1_row list -> unit

val table2_epoch : Config.t -> dataset:string -> variant -> unit -> unit
(** The epoch Table II times: {!Pnc_core.Train.epoch} of the variant's
    {!prepare}d seed-0 run, on the split the grid trains it on. *)

val table2 : ?progress:(string -> unit) -> Config.t -> (string * float) list
(** Mean seconds of one {!table2_epoch} per model family, averaged over
    a sample of datasets (Table II). *)

val print_table2 : (string * float) list -> unit

type table3_row = {
  t3_dataset : string;
  base_counts : Pnc_core.Hardware.counts;
  base_power_mw : float;
  adapt_counts : Pnc_core.Hardware.counts;
  adapt_power_mw : float;
}

val table3_of_grid : Config.t -> run list -> table3_row list
(** Device counts and power of the trained Base and Full circuit models
    (best seed per dataset); last row holds the per-dataset average. *)

val print_table3 : table3_row list -> unit

type fig5 = {
  f5_clean : cell;  (** baseline accuracy, clean inputs, no variation *)
  f5_var : cell;  (** baseline under ±10 % variation *)
  f5_pert_var : cell;  (** baseline under variation + perturbed inputs *)
}

val fig5_of_grid : Config.t -> run list -> fig5
val print_fig5 : fig5 -> unit

type fig7_bar = { config_name : string; clean : cell; perturbed : cell }

val fig7_of_grid : Config.t -> run list -> fig7_bar list
(** Mean accuracy across datasets for each ablation configuration,
    clean and perturbed, both under ±10 % variation (Fig. 7). *)

val print_fig7 : fig7_bar list -> unit

(** {1 Extension: variation sweep / manufacturing yield}

    Beyond the paper's fixed ±10 % operating point: mean accuracy and
    manufacturing yield (fraction of printed instances meeting an
    accuracy spec) of the trained baseline and ADAPT-pNC circuits as
    the process-variation level grows. *)

type sweep_row = {
  level : float;
  base_acc : cell;
  adapt_acc : cell;
  base_yield : float;
  adapt_yield : float;
}

val variation_sweep_of_grid :
  ?levels:float list ->
  ?threshold:float ->
  ?pool:Pnc_util.Pool.t ->
  Config.t ->
  run list ->
  sweep_row list
(** Defaults: levels 0/5/10/20/30 %, yield threshold 0.6. Yields are
    estimated at the config's precision tier, the one the grid was
    scored at. [pool] parallelizes the per-level yield estimation. *)

val print_variation_sweep : threshold:float -> sweep_row list -> unit

val fig6 : ?seed:int -> unit -> (string * float array) list
(** The augmentation showcase on a PowerCons series: original plus each
    transform (Fig. 6). *)

val print_fig6 : (string * float array) list -> unit

val mu_survey : unit -> Pnc_core.Coupling.extraction list
val print_mu_survey : Pnc_core.Coupling.extraction list -> unit

val filter_characterization : unit -> unit
(** Fig. 4 side panels: SPICE-lite cutoffs of printable first- and
    second-order stages against filter theory. *)

(** {1 Paper-reported values} (for side-by-side comparison) *)

val paper_table1 : (string * float * float * float) list
(** dataset, Elman, pTPNC, ADAPT-pNC mean accuracies; last row is the
    average. *)

val paper_table3_avg : int * int * float * float
(** (pTPNC avg total devices, ADAPT avg total devices, pTPNC avg power
    mW, ADAPT avg power mW). *)
