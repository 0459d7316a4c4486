(** Component-family sensitivity analysis.

    The paper treats ±10 % variation as one lump; this analysis asks
    which family of printed components actually drives the accuracy
    loss: the crossbar conductances (θ), the filter RC values, or the
    activation circuit parameters (η). Each family is varied alone
    while the other two stay nominal, and the accuracy drop relative to
    the nominal circuit is reported. *)

type family = Crossbar_conductances | Filter_rc | Activation_eta | All_families

val family_name : family -> string

val varied : family -> Batch.families
(** The component families a row's draw varies; the others stay
    nominal. *)

type row = {
  family : family;
  accuracy : float;  (** mean accuracy with only this family varying *)
  drop : float;  (** nominal accuracy − accuracy *)
}

val analyze :
  ?opts:Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  level:float ->
  draws:int ->
  Network.t ->
  Pnc_data.Dataset.t ->
  row list
(** Rows for the three families plus [All_families], ordered as
    declared. The [All_families] row reproduces the standard
    evaluation-under-variation number. Runs on the no-grad engine
    with [opts] (its [varied] is set per row) and splits the input into
    time steps once; with [pool] the per-family Monte-Carlo draws
    evaluate in parallel with worker-count-invariant results (pre-split
    child streams). *)

val report : row list -> string
