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
    declared. Each row is {!Train.accuracy_under_variation} of
    [Model.Circuit net] under uniform ±[level] with [draws] draws, on
    the no-grad engine with [opts] whose [varied] is set per row. The
    rows draw from [rng] in that order, so the [All_families] row is
    {!Train.accuracy_under_variation} at [opts] on [rng] as the three
    family rows leave it, bit for bit: the standard
    evaluation-under-variation number.
    The nominal accuracy the drops are taken from is {!Train.accuracy}.
    With [pool] the draws evaluate in parallel with
    worker-count-invariant results (pre-split child streams). *)

val report : row list -> string
