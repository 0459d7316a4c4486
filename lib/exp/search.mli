(** Architecture search for ADAPT-pNCs — the future-work direction the
    paper's conclusion names ("new architectural search methodologies
    ... to further address sensor variations").

    A budgeted random search over the circuit design space (hidden
    width, filter order, variation-aware training, augmented training)
    that scores candidates by validation accuracy under component
    variation and reports their hardware cost, so the result is a
    small accuracy-vs-devices trade-off front rather than a single
    winner. *)

type genome = {
  hidden : int;
  order : Pnc_core.Filter_layer.order;
  use_va : bool;
  use_at : bool;
}

type candidate = {
  genome : genome;
  val_acc : float;  (** validation accuracy under ±10 % variation *)
  test_acc : float;  (** test accuracy under ±10 % variation *)
  devices : int;
  power_mw : float;
}

val describe_genome : genome -> string

val random_genome : Pnc_util.Rng.t -> genome
(** hidden in [2, 10], uniform over the other axes. *)

val evaluate :
  Config.t -> dataset:string -> seed:int -> genome -> candidate
(** Train the genome's circuit with the config's budget on
    {!Experiments.load_split}'s split (augmented training data for a
    [use_at] genome; validation and test stay clean) and score it. *)

val random_search :
  ?progress:(string -> unit) ->
  Config.t ->
  dataset:string ->
  seed:int ->
  budget:int ->
  candidate list
(** [budget] random genomes (plus the paper's ADAPT-pNC design as an
    anchor), sorted by validation accuracy, best first. *)

val pareto_front : candidate list -> candidate list
(** Non-dominated candidates under (maximize val_acc, minimize
    devices), sorted by device count. *)
