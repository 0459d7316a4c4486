(* The repository's benchmark: four workloads that run the library the
   way its users do, each printing every end-to-end metric by name and
   unit and checking that the outputs are correct.

     perfbench/run.sh --workload train|mc|serve|stream --seed N --seconds S --trace 0|1

   With --trace 0 the requested workload runs untraced and reports the
   end-to-end metrics. With --trace 1 the traced replica of every
   workload runs (the requested one for S seconds, the others for a
   short budget), with spans around each call into a layer, and the
   per-layer metrics are reported; the spans are written to
   .perfbench_run/. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; perfbench/NOTES.md describes
   every workload and metric. *)

open Common

let workloads = [ "train"; "mc"; "serve"; "stream" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload train|mc|serve|stream --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        go rest
    | "--trace" :: t :: rest ->
        trace := int_of_string t;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then
    usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* The commit under test, when the checkout still has its git metadata. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown (no .git in the checkout)"
  else
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let rev = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      rev
    with Unix.Unix_error _ -> "unknown"

let meta ~workload ~seed ~seconds ~trace =
  Json.render
    (Json.Obj
       [
         ("git_rev", Json.String (git_rev ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("nproc", Json.Num (float_of_int nproc));
         ("workload", Json.String workload);
         ("seed", Json.Num (float_of_int seed));
         ("seconds", Json.Num seconds);
         ("trace", Json.Bool trace);
         ("dataset", Json.String dataset);
         ( "sizes",
           Json.Obj
             [
               ("train", Json.String (Printf.sprintf "n=%d, %d epochs per call" fast_n W_train.epochs));
               ( "mc",
                 Json.String
                   (Printf.sprintf "n=%d (200-row test split), %d draws per estimate, pool of %d"
                      W_mc.dataset_n W_mc.draws nproc) );
               ( "serve",
                 Json.String
                   (Printf.sprintf "%d connections, %d rows per request, %d bodies" nproc
                      W_serve.rows_per_request W_serve.n_bodies) );
               ( "stream",
                 Json.String
                   (Printf.sprintf "%d samples, windows of %d" W_stream.n_samples W_stream.width) );
             ] );
       ])

let run_untraced workload ~seed ~seconds =
  match workload with
  | "train" -> W_train.run ~seed ~seconds
  | "mc" -> W_mc.run ~seed ~seconds
  | "serve" -> W_serve.run ~seed ~seconds
  | _ -> W_stream.run ~seed ~seconds

(* Every traced run reports every per-layer metric, so it runs all four
   traced replicas; the requested workload gets the full budget. *)
let traced_budget = 2.

let run_traced workload ~seed ~seconds =
  let budget w = if w = workload then seconds else Float.min seconds traced_budget in
  let outcomes =
    [
      W_train.traced ~seed ~seconds:(budget "train");
      W_mc.traced ~seed ~seconds:(budget "mc");
      W_serve.traced ~seed ~seconds:(budget "serve");
      W_stream.traced ~seed ~seconds:(budget "stream");
    ]
  in
  ensure_run_dir ();
  List.iter
    (fun (_, tr) ->
      Trace.write tr
        (Filename.concat run_dir (Printf.sprintf "trace-%s-%s-seed%d.jsonl" workload tr.Trace.run seed)))
    outcomes;
  let os = List.map fst outcomes in
  {
    attempted = List.fold_left (fun a o -> a + o.attempted) 0 os;
    failed = List.fold_left (fun a o -> a + o.failed) 0 os;
    checks = List.concat_map (fun o -> o.checks) os;
    metrics = List.concat_map (fun o -> o.metrics) os;
    info = List.concat_map (fun o -> o.info) os;
  }

let () =
  let workload, seed, seconds, trace = parse_args () in
  print_endline ("meta " ^ meta ~workload ~seed ~seconds ~trace);
  let o = (if trace then run_traced else run_untraced) workload ~seed ~seconds in
  List.iter (fun (name, ok) -> Printf.printf "check %-64s %s\n" name (if ok then "ok" else "FAILED")) o.checks;
  List.iter (fun (k, v) -> Printf.printf "info  %-32s %s\n" k v) o.info;
  List.iter (fun m -> Printf.printf "metric %-32s %.6g %s\n" m.name m.value m.unit_) o.metrics;
  Printf.printf "ops %d, ops_failed %d\n" o.attempted o.failed;
  let correct = o.failed = 0 && List.for_all snd o.checks in
  print_endline
    (Json.render
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.String m.unit_) ]))
                   o.metrics) );
          ]))
