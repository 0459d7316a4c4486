module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let draws_counter = Obs.Counter.make "sensitivity.draws"

type family = Crossbar_conductances | Filter_rc | Activation_eta | All_families

let family_name = function
  | Crossbar_conductances -> "crossbar conductances (theta)"
  | Filter_rc -> "filter R and C"
  | Activation_eta -> "activation eta"
  | All_families -> "all families"

type row = { family : family; accuracy : float; drop : float }

let varied = function
  | Crossbar_conductances -> { Batch.crossbar = true; filter = false; activation = false }
  | Filter_rc -> { Batch.crossbar = false; filter = true; activation = false }
  | Activation_eta -> { Batch.crossbar = false; filter = false; activation = true }
  | All_families -> Batch.all_families

(* Each row is the shared scorer, [Train.accuracy_under_variation], on
   the no-grad engine with the row's families varied: pool tasks must
   not touch the global gradient tape, and the analysis needs no
   gradients anyway. *)
let analyze ?(opts = Batch.default) ?pool ~rng ~level ~draws net dataset =
  assert (draws >= 1 && level >= 0.);
  Obs.Span.with_ ~attrs:[ ("level", Obs.Float level); ("draws", Obs.Int draws) ]
    "sensitivity.analyze"
  @@ fun () ->
  let model = Model.Circuit net and spec = Variation.uniform level in
  let nominal = Train.accuracy ~opts model dataset in
  List.map
    (fun family ->
      let t0 = if Obs.enabled () then Clock.now () else 0. in
      let opts = { opts with varied = varied family } in
      let accuracy = Train.accuracy_under_variation ~opts ?pool ~rng ~spec ~draws model dataset in
      Obs.Counter.add draws_counter draws;
      if Obs.enabled () then begin
        let dt = Clock.elapsed t0 in
        Obs.emit "sensitivity.family"
          [
            ("family", Obs.Str (family_name family));
            ("draws", Obs.Int draws);
            ("seconds", Obs.Float dt);
            ("draws_per_s", Obs.Float (float_of_int draws /. Float.max dt 1e-9));
            ("accuracy", Obs.Float accuracy);
            ("drop", Obs.Float (nominal -. accuracy));
          ]
      end;
      { family; accuracy; drop = nominal -. accuracy })
    [ Crossbar_conductances; Filter_rc; Activation_eta; All_families ]

let report rows =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%-32s acc %.3f (drop %+.3f)" (family_name r.family) r.accuracy r.drop)
       rows)
