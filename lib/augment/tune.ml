module Rng = Pnc_util.Rng

type candidate = { policy : Augment.policy; score : float; ties : int }

let random_policy rng =
  {
    Augment.transforms =
      [
        Augment.Jitter { sigma = Rng.uniform rng ~lo:0.01 ~hi:0.1 };
        Augment.Magnitude_scale { sigma = Rng.uniform rng ~lo:0.05 ~hi:0.2 };
        Augment.Time_warp
          { knots = 2 + Rng.int rng 5; strength = Rng.uniform rng ~lo:0.1 ~hi:0.5 };
        Augment.Random_crop { ratio = Rng.uniform rng ~lo:0.7 ~hi:0.95 };
        Augment.Freq_noise { sigma = Rng.uniform rng ~lo:0.01 ~hi:0.1 };
      ];
    prob = Rng.uniform rng ~lo:0.3 ~hi:0.8;
  }

let search rng ~budget ~eval =
  assert (budget >= 0);
  let consider best policy =
    let score = eval policy in
    match best with
    | Some b when b.score > score -> best
    | Some b when b.score = score -> Some { b with ties = b.ties + 1 }
    | _ -> Some { policy; score; ties = 1 }
  in
  let best = ref (consider None Augment.default_policy) in
  for _ = 1 to budget do
    best := consider !best (random_policy rng)
  done;
  match !best with Some b -> b | None -> assert false
