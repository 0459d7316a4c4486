(** Experiment scales.

    [Paper] follows Sec. IV-A3 exactly (10 seeds, patience 100,
    LR 0.1 → 1e-5) and takes hours; [Fast] reproduces every table and
    figure with a reduced budget in minutes and is the default of the
    benchmark harness; [Smoke] exists for tests. *)

type scale = Smoke | Fast | Paper

type t = {
  scale : scale;
  seeds : int list;
  top_k : int;  (** models kept per dataset (paper: top 3 of 10) *)
  train_base : Pnc_core.Train.config;  (** no-variation-aware budget *)
  train_va : Pnc_core.Train.config;  (** variation-aware budget *)
  aug_copies : int;  (** augmented copies mixed into train/valid/test *)
  eval_draws : int;  (** Monte-Carlo draws for accuracy under variation *)
  eval_level : float;  (** component variation at test time (0.1) *)
  dataset_n : int option;  (** override generated sample count *)
  datasets : string list;
  precision : Pnc_core.Batch.precision;
      (** activation tier for scoring after training ([`Exact]
          default; [`Fast] is recorded in {!fingerprint}).
          {!Pnc_core.Train.train}'s objective and its validation
          (model selection) always run [`Exact]. *)
  corr : Pnc_core.Variation.corr option;
      (** correlated-variation spec for the [+NI] training variant and
          the correlated-robustness metric; [None] (the default at
          every scale) leaves all pre-existing fingerprints
          byte-identical — {!Experiments} then falls back to
          {!Pnc_core.Variation.default_corr} for the metric *)
}

val of_scale : scale -> t
val scale_of_string : string -> scale
(** Accepts "smoke" | "fast" | "paper". @raise Invalid_argument. *)

val scale_name : scale -> string

val fingerprint : t -> string
(** Canonical text over every field that affects one grid cell's
    computation (both train budgets including their variation specs,
    augmentation copies, evaluation draws/level, dataset sizing).
    Fields that only select or aggregate cells — seeds, dataset and
    variant lists, [top_k] — are excluded, so reshaping the grid reuses
    cached cells. The cell cache keys on the digest of this string.

    The precision tier appends ["|precision=fast"] only under [`Fast]:
    [`Exact] fingerprints are byte-identical to those produced before
    the tier existed, so old cached cells stay valid. The correlation
    spec and the noise-injection training flag follow the same
    append-only policy (["|corr(...)"], [";ni"]): absent, the strings
    are unchanged. *)

val corr_of_string : string -> Pnc_core.Variation.corr
(** Parses ["RHO,CLEN"] or ["RHO,CLEN,TEMP_C,AGE_HOURS"] (the
    ADAPT_PNC_CORR / --corr syntax). @raise Invalid_argument. *)

val from_env : unit -> t
(** Reads the ADAPT_PNC_SCALE environment variable (default fast), the
    ADAPT_PNC_PRECISION tier (via
    {!Pnc_core.Batch.entry_precision}; default exact), and
    ADAPT_PNC_CORR (a {!corr_of_string} spec; default absent). *)
