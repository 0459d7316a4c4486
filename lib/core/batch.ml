(* Evaluation options and telemetry for the batched no-grad evaluation
   path (see docs/BATCHING.md). A circuit instance is realized once
   under its variation draw and every forward on it runs the whole
   input as one block. *)

module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let samples_counter = Obs.Counter.make "eval.batch.samples"
let realizations_counter = Obs.Counter.make "eval.realizations"
let seconds_hist = Obs.Histogram.make "eval.batch_seconds"

(* Precision-tier resolution for entry points (CLI, serve, bench,
   Config.from_env). Precision CAN change results (`Fast deviates by up
   to 1e-7 per tanh), so the environment variable is read only here at
   the boundary — library functions
   default to `Exact plainly, never to the environment. That keeps the
   eps-0 parity tests honest under a CI run with
   ADAPT_PNC_PRECISION=fast exported, and it forces every Fast run to
   flow through a Config/flag that records the tier in the
   fingerprint. *)

type precision = [ `Exact | `Fast ]

let precision_name = function `Exact -> "exact" | `Fast -> "fast"

let precision_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "exact" -> Some `Exact
  | "fast" -> Some `Fast
  | _ -> None

let precision_env_warned = ref false

let entry_precision ?precision () =
  match (precision, Sys.getenv_opt "ADAPT_PNC_PRECISION") with
  | Some p, _ -> p
  | None, None -> `Exact
  | None, Some s -> (
      match precision_of_string s with
      | Some p -> p
      | None ->
          if not !precision_env_warned then begin
            precision_env_warned := true;
            Printf.eprintf
              "adapt-pnc: ignoring malformed ADAPT_PNC_PRECISION=%S (want exact|fast)\n%!"
              s
          end;
          `Exact)

type readout = Integrated | Last_step
type families = { crossbar : bool; filter : bool; activation : bool }

let all_families = { crossbar = true; filter = true; activation = true }

type opts = {
  precision : precision;
  state_init : Filter_layer.state_init;
  readout : readout;
  varied : families;
}

let default =
  {
    precision = `Exact;
    state_init = `V0;
    readout = Integrated;
    varied = all_families;
  }

let count_realization () = Obs.Counter.incr realizations_counter

let timed opts ~rows f =
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let out = f () in
  Obs.Counter.add samples_counter rows;
  if Obs.enabled () then begin
    let dt = Clock.elapsed t0 in
    Obs.Histogram.observe seconds_hist dt;
    Obs.emit "eval.batch"
      [
        ("precision", Obs.Str (precision_name opts.precision));
        ("rows", Obs.Int rows);
        ("seconds", Obs.Float dt);
        ("rows_per_s", Obs.Float (float_of_int rows /. Float.max dt 1e-9));
      ]
  end;
  out
