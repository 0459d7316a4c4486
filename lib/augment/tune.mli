(** Budgeted random search over augmentation hyper-parameters (the
    Ray Tune substitute, Sec. IV-A2).

    The paper tunes crop size, noise level and time-warp strength per
    dataset on validation accuracy; [search] draws candidate policies
    from the same space and keeps the best-scoring one. *)

type candidate = { policy : Augment.policy; score : float; ties : int }
(** [ties] counts the evaluated candidates that scored exactly [score],
    this one included: 1 when the best is unique. Among tied
    candidates [policy] is the first evaluated, so above 1 the choice
    between them is the draw order's, not the score's. *)

val random_policy : Pnc_util.Rng.t -> Augment.policy
(** One policy with strengths drawn from the paper-motivated ranges:
    jitter sigma in [0.01, 0.1], scale sigma in [0.05, 0.2], warp
    strength in [0.1, 0.5], crop ratio in [0.7, 0.95], frequency noise
    sigma in [0.01, 0.1], probability in [0.3, 0.8]. *)

val search :
  Pnc_util.Rng.t -> budget:int -> eval:(Augment.policy -> float) -> candidate
(** Evaluates {!Augment.default_policy}, then [budget] random
    candidates, and returns the argmax (higher scores better) with the
    number of candidates that share its score. *)
