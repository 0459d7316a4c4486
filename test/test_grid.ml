(* Fault-injection and shard-invariance battery for the process-sharded
   experiment grid (lib/grid, docs/GRID.md).

   Three layers, increasingly end-to-end:

   - [Lease]: the claim-file primitive — atomicity, corrupt-claim
     reaping, dead-pid and TTL staleness.
   - [Proto] with cheap synthetic cells: the claim/compute/publish loop
     in-process, including a qgen property that the merged result is
     invariant to shard count ({1,2,3,5}), completion order and
     interleaved duplicate workers, with every cell computed exactly
     once (atomic rename = exactly-once effect).
   - The real binary: SIGKILL a worker mid-cell at randomized points,
     resume, and require the merged tables byte-identical (eps 0) to a
     1-shard run; corrupt and truncate cached cells and plant stale
     claims, and require them reaped and recomputed, never trusted. *)

module Grid = Pnc_grid.Grid
module Proto = Grid.Proto
module Lease = Pnc_ckpt.Lease
module Config = Pnc_exp.Config
module E = Pnc_exp.Experiments
module Rng = Pnc_util.Rng
module Ckpt = Pnc_ckpt.Ckpt
module Obs = Pnc_obs.Obs

(* Helpers ------------------------------------------------------------------ *)

let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/adapt_pnc.exe"

let fresh_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pnc_grid_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

type outcome = { code : int; stdout : string; stderr : string }

let slurp_and_remove p =
  let s = read_file p in
  Sys.remove p;
  s

let run_cli (args : string list) : outcome =
  let out = Filename.temp_file "grid_out" ".txt" in
  let err = Filename.temp_file "grid_err" ".txt" in
  let argv = Array.of_list (exe :: args) in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process exe argv Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + s
    | Unix.WSTOPPED s -> 128 + s
  in
  { code; stdout = slurp_and_remove out; stderr = slurp_and_remove err }

(* A pid that is genuinely dead: a reaped child's. (Recycling before
   the test reads it is astronomically unlikely.) *)
let dead_pid () =
  let pid = Unix.create_process "/bin/true" [| "/bin/true" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] pid);
  pid

let plant_claim ~path ~pid ~owner ~since =
  write_file path
    (Printf.sprintf {|{"pid":%d,"owner":"%s","since":%.6f}|} pid owner since)

(* Lease -------------------------------------------------------------------- *)

let test_lease_roundtrip () =
  let dir = fresh_dir () in
  let p = Filename.concat dir "cell.ckpt.claim" in
  Alcotest.(check bool) "first acquire wins" true (Lease.acquire ~path:p ~owner:"w0");
  (match Lease.read ~path:p with
  | Some l ->
      Alcotest.(check int) "own pid" (Unix.getpid ()) l.Lease.pid;
      Alcotest.(check string) "owner" "w0" l.Lease.owner;
      Alcotest.(check bool) "fresh claim not stale" false (Lease.stale l)
  | None -> Alcotest.fail "claim unreadable after acquire");
  Alcotest.(check bool) "second acquire loses" false (Lease.acquire ~path:p ~owner:"w1");
  (match Lease.try_acquire ~owner:"w1" p with
  | `Held l -> Alcotest.(check string) "held by first owner" "w0" l.Lease.owner
  | `Acquired | `Reaped_and_acquired -> Alcotest.fail "stole a live claim");
  Lease.release ~path:p;
  Alcotest.(check bool) "acquire after release" true (Lease.acquire ~path:p ~owner:"w1")

let test_lease_corrupt_claim_reaped () =
  let dir = fresh_dir () in
  let p = Filename.concat dir "cell.ckpt.claim" in
  List.iter
    (fun garbage ->
      write_file p garbage;
      Alcotest.(check bool) "corrupt claim reads as None" true (Lease.read ~path:p = None);
      (match Lease.try_acquire ~owner:"w0" p with
      | `Reaped_and_acquired -> ()
      | `Acquired -> Alcotest.fail "corrupt claim was not even seen"
      | `Held _ -> Alcotest.fail "trusted a corrupt claim");
      Lease.release ~path:p)
    [ ""; "not json"; {|{"pid":"x","owner":1}|}; {|{"owner":"w9","since":1.0}|} ]

let test_lease_dead_pid_is_stale () =
  let dir = fresh_dir () in
  let p = Filename.concat dir "cell.ckpt.claim" in
  plant_claim ~path:p ~pid:(dead_pid ()) ~owner:"ghost" ~since:(Unix.gettimeofday ());
  (match Lease.read ~path:p with
  | Some l -> Alcotest.(check bool) "dead pid is stale" true (Lease.stale l)
  | None -> Alcotest.fail "planted claim unreadable");
  match Lease.try_acquire ~owner:"w0" p with
  | `Reaped_and_acquired -> (
      match Lease.read ~path:p with
      | Some l -> Alcotest.(check string) "reaper owns the claim now" "w0" l.Lease.owner
      | None -> Alcotest.fail "claim vanished after reap")
  | `Acquired -> Alcotest.fail "dead claim was not even seen"
  | `Held _ -> Alcotest.fail "trusted a dead worker's claim"

let test_lease_ttl () =
  let now = Unix.gettimeofday () in
  let hung = { Lease.pid = Unix.getpid (); owner = "hung"; since = now -. 100. } in
  Alcotest.(check bool) "live pid within ttl" false (Lease.stale ~ttl:1000. hung);
  Alcotest.(check bool) "live pid past ttl is hung" true (Lease.stale ~ttl:10. hung)

(* Proto with synthetic cells ----------------------------------------------- *)

(* A synthetic cell publishes a deterministic payload by write-temp +
   atomic rename, exactly like the real cell checkpoints; loading is a
   full content check, so truncation or garbage is never trusted. *)
let payload name = Printf.sprintf "cell(%s) deterministic payload\n" name

let synth_cell ?(delay = 0.) ~dir name =
  let path = Filename.concat dir (name ^ ".cell") in
  {
    Proto.cell_id = name;
    path;
    load =
      (fun () ->
        match read_file path with
        | s when s = payload name -> Some ()
        | _ | (exception Sys_error _) -> None);
    compute =
      (fun () ->
        if delay > 0. then Thread.delay delay;
        let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
        write_file tmp (payload name);
        Sys.rename tmp path);
  }

let valid c = Option.is_some (c.Proto.load ())

let test_proto_computes_all () =
  let dir = fresh_dir () in
  let cells = List.init 4 (fun i -> synth_cell ~dir (Printf.sprintf "c%d" i)) in
  Alcotest.(check int) "computes every cell" 4 (fst (Proto.work ~owner:"w0" cells));
  Alcotest.(check bool) "all valid" true (List.for_all valid cells);
  Alcotest.(check int) "second pass is pure cache" 0 (fst (Proto.work ~owner:"w0" cells))

let test_proto_corrupt_cell_recomputed () =
  let dir = fresh_dir () in
  let cells = List.init 3 (fun i -> synth_cell ~dir (Printf.sprintf "c%d" i)) in
  ignore (Proto.work ~owner:"w0" cells);
  let victim = List.nth cells 1 in
  (* truncation and garbage both fail the content check *)
  write_file victim.Proto.path "torn";
  Alcotest.(check int) "only the corrupt cell recomputes" 1 (fst (Proto.work ~owner:"w0" cells));
  Alcotest.(check string) "content restored" (payload "c1") (read_file victim.Proto.path)

let test_proto_stale_claims_reaped () =
  let dir = fresh_dir () in
  let cells = List.init 3 (fun i -> synth_cell ~dir (Printf.sprintf "c%d" i)) in
  (* plant a dead worker's claim on one cell and a corrupt claim on
     another: both must be reaped, not waited on *)
  plant_claim
    ~path:(Proto.claim_path (List.nth cells 0).Proto.path)
    ~pid:(dead_pid ()) ~owner:"ghost" ~since:(Unix.gettimeofday ());
  write_file (Proto.claim_path (List.nth cells 1).Proto.path) "garbage claim";
  Alcotest.(check int) "all cells computed despite stale claims" 3
    (fst (Proto.work ~owner:"w0" cells));
  List.iter
    (fun c ->
      Alcotest.(check bool) "claim released" false (Sys.file_exists (Proto.claim_path c.Proto.path)))
    cells

let test_proto_reap_tmp () =
  let dir = fresh_dir () in
  let c = synth_cell ~dir "c0" in
  let dead = Printf.sprintf "%s.tmp.%d" c.Proto.path (dead_pid ()) in
  let junk = c.Proto.path ^ ".tmp.notapid" in
  let live = Printf.sprintf "%s.tmp.%d" c.Proto.path (Unix.getpid ()) in
  write_file dead "interrupted publish";
  write_file junk "unparsable writer";
  write_file live "in-flight publish";
  Alcotest.(check int) "dead and unparsable reaped" 2 (Proto.reap_tmp ~path:c.Proto.path);
  Alcotest.(check bool) "dead writer's litter gone" false (Sys.file_exists dead);
  Alcotest.(check bool) "unparsable litter gone" false (Sys.file_exists junk);
  Alcotest.(check bool) "live writer untouched" true (Sys.file_exists live)

(* qgen: merged state is invariant to shard count, completion order and
   duplicate workers; atomic rename gives exactly-once computation. *)

(* A cell cached as a real checkpoint, loaded by a full [Ckpt.load]
   like the experiment grid's cells: the [ckpt.loads] counter counts
   its loads. *)
let ckpt_cell ~dir name =
  let path = Filename.concat dir (name ^ ".ckpt") in
  {
    Proto.cell_id = name;
    path;
    load = (fun () -> Result.to_option (Ckpt.load ~path));
    compute = (fun () -> Ckpt.save ~path ~kind:"grid-cell" ~meta:[] ~sections:[]);
  }

let ckpt_loads () =
  List.fold_left
    (fun acc (n, fields) ->
      match (n, List.assoc_opt "value" fields) with
      | "ckpt.loads", Some (Obs.Int v) -> acc + v
      | _ -> acc)
    0 (Obs.metrics_snapshot ())

let test_proto_complete_cache_loads_once () =
  let dir = fresh_dir () in
  let cells = List.init 5 (fun i -> ckpt_cell ~dir (Printf.sprintf "c%d" i)) in
  Alcotest.(check int) "computes every cell" 5 (fst (Proto.work ~owner:"w0" cells));
  let before = ckpt_loads () in
  Alcotest.(check int) "complete cache: nothing computed" 0 (fst (Proto.work ~owner:"w1" cells));
  Alcotest.(check int) "one load per cell" (List.length cells) (ckpt_loads () - before)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let canonical_image cells =
  String.concat "|" (List.map (fun c -> read_file c.Proto.path) cells)

type shard_case = { n_cells : int; shards : int; duplicates : bool; case_seed : int }

let pp_case c =
  Printf.sprintf "{n_cells=%d; shards=%d; duplicates=%b; case_seed=%d}" c.n_cells c.shards
    c.duplicates c.case_seed

let gen_case : shard_case Qgen.gen =
 fun rng ->
  let n_cells = Qgen.int_range 1 8 rng in
  let shards = Qgen.oneof [ 1; 2; 3; 5 ] rng in
  let duplicates = Qgen.bool rng in
  let case_seed = Qgen.int_range 0 1_000_000 rng in
  { n_cells; shards; duplicates; case_seed }

let shard_invariance case =
  let rng = Rng.create ~seed:case.case_seed in
  let mk dir = List.init case.n_cells (fun i -> synth_cell ~delay:0.002 ~dir (Printf.sprintf "c%d" i)) in
  (* reference: one worker, canonical order *)
  let ref_dir = fresh_dir () in
  let ref_cells = mk ref_dir in
  ignore (Proto.work ~owner:"ref" ref_cells);
  let expected = canonical_image ref_cells in
  (* sharded: [shards] workers (doubled when [duplicates]), each
     walking its own shuffled copy of the cell list, racing in
     threads over one directory *)
  let dir = fresh_dir () in
  let cells = mk dir in
  let n_workers = if case.duplicates then 2 * case.shards else case.shards in
  let computed = Array.make n_workers 0 in
  let workers =
    List.init n_workers (fun w ->
        let order = shuffle rng cells in
        let owner = Printf.sprintf "worker-%d" (w mod case.shards) in
        Thread.create
          (fun () -> computed.(w) <- fst (Proto.work ~poll_s:0.001 ~owner order))
          ())
  in
  List.iter Thread.join workers;
  List.for_all valid cells
  && Array.fold_left ( + ) 0 computed = case.n_cells (* exactly once *)
  && canonical_image cells = expected

(* Stale surfacing on the real cell format (no training) -------------------- *)

let smoke_cfg () =
  let cfg = Config.of_scale Config.Smoke in
  { cfg with Config.datasets = [ "GPOVY" ]; dataset_n = Some 50 }

(* Regression: an interrupted cell-checkpoint write (torn file, or a
   dead writer's [.tmp.<pid>] staging litter) must surface as [stale]
   in `grid status`, not read as silently absent. *)
let test_interrupted_cell_write_is_stale () =
  let cfg = smoke_cfg () in
  let dir = fresh_dir () in
  let dataset = "GPOVY" and variant = E.Base and seed = 0 in
  let path = E.cell_path ~dir cfg ~dataset ~variant ~seed in
  let classify () = Grid.classify ~dir cfg ~dataset ~variant ~seed in
  Alcotest.(check string) "empty dir is pending" "pending" (Grid.state_name (classify ()));
  (* torn write: bytes exist but fail decode *)
  write_file path "grid-cell checkpoint torn mid-write";
  Alcotest.(check string) "torn cell file is stale" "stale" (Grid.state_name (classify ()));
  Alcotest.(check bool) "torn cell never loads" true
    (E.load_cell ~path cfg ~dataset ~variant ~seed = None);
  Sys.remove path;
  (* interrupted publish: no cell, but a dead writer's staging litter *)
  write_file (Printf.sprintf "%s.tmp.%d" path (dead_pid ())) "staged bytes";
  Alcotest.(check string) "tmp litter is stale" "stale" (Grid.state_name (classify ()));
  (* dead worker's claim *)
  Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
  plant_claim ~path:(Proto.claim_path path) ~pid:(dead_pid ()) ~owner:"ghost"
    ~since:(Unix.gettimeofday ());
  Alcotest.(check string) "dead worker's claim is stale" "stale" (Grid.state_name (classify ()));
  (* live claim *)
  Lease.release ~path:(Proto.claim_path path);
  Alcotest.(check bool) "reclaim" true (Lease.acquire ~path:(Proto.claim_path path) ~owner:"me");
  Alcotest.(check string) "live claim is claimed" "claimed" (Grid.state_name (classify ()))

(* [Grid.run] returns the runs its workers loaded: on a complete cache it
   decodes each cell once, and the warm runs equal the cold ones. *)
let test_warm_run_loads_each_cell_once () =
  let cfg = smoke_cfg () and dir = fresh_dir () and variants = [ E.Base; E.Full ] in
  let cold = Grid.run ~dir cfg ~variants in
  let before = ckpt_loads () in
  let warm = Grid.run ~dir cfg ~variants in
  Alcotest.(check int) "one load per cell" (List.length cold) (ckpt_loads () - before);
  Alcotest.(check (list (float 0.))) "warm runs are the cold runs"
    (List.map (fun r -> r.E.clean_var_acc) cold)
    (List.map (fun r -> r.E.clean_var_acc) warm)

(* Real binary: SIGKILL, corrupt, resume, byte-identical merge -------------- *)

let grid_args dir = [ "--cache-dir"; dir; "--scale"; "smoke"; "-d"; "GPOVY"; "--variants"; "table1" ]

let devnull_worker dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = Array.of_list (exe :: "grid" :: "worker" :: grid_args dir) in
  let pid = Unix.create_process exe argv Unix.stdin null null in
  Unix.close null;
  pid

let must_merge dir =
  let r = run_cli ([ "grid"; "merge" ] @ grid_args dir) in
  Alcotest.(check int) "merge exits 0" 0 r.code;
  r.stdout

(* One complete 1-shard reference run, shared by the fault tests below;
   its merge output is the byte-identity oracle. *)
let reference =
  lazy
    (let dir = fresh_dir () in
     let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ grid_args dir) in
     Alcotest.(check int) "reference run exits 0" 0 r.code;
     (dir, must_merge dir))

let test_sigkill_resume_bit_identical () =
  let _, expected = Lazy.force reference in
  let rng = Rng.create ~seed:20260808 in
  (* SIGKILL a lone worker at randomized points mid-grid (a smoke cell
     takes a few hundred ms, so these delays land mid-cell), then
     resume with 2 shards: the merged table must be byte-identical. *)
  for trial = 1 to 2 do
    let dir = fresh_dir () in
    let victim = devnull_worker dir in
    Unix.sleepf (0.05 +. Rng.uniform rng ~lo:0. ~hi:0.6);
    Unix.kill victim Sys.sigkill;
    ignore (Unix.waitpid [] victim);
    let r = run_cli ([ "grid"; "run"; "--shards"; "2" ] @ grid_args dir) in
    Alcotest.(check int) (Printf.sprintf "trial %d: resume exits 0" trial) 0 r.code;
    Alcotest.(check string)
      (Printf.sprintf "trial %d: merge byte-identical after SIGKILL+resume" trial)
      expected (must_merge dir)
  done

let cell_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun e -> Filename.check_suffix e ".ckpt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_corrupt_cells_recomputed () =
  let _, expected = Lazy.force reference in
  (* fresh complete grid, then corrupt one cell and truncate another *)
  let dir = fresh_dir () in
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ grid_args dir) in
  Alcotest.(check int) "setup run exits 0" 0 r.code;
  (match cell_files dir with
  | a :: b :: _ ->
      write_file a "garbage where a grid-cell checkpoint should be";
      let img = read_file b in
      write_file b (String.sub img 0 (String.length img / 2))
  | _ -> Alcotest.fail "expected at least two cached cells");
  let st = run_cli ([ "grid"; "status" ] @ grid_args dir) in
  Alcotest.(check bool) "status surfaces the corruption as stale" true
    (contains ~needle:"stale 2" st.stdout);
  let m = run_cli ([ "grid"; "merge" ] @ grid_args dir) in
  Alcotest.(check int) "merge refuses a corrupt grid (exit 3)" 3 m.code;
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ grid_args dir) in
  Alcotest.(check int) "recompute exits 0" 0 r.code;
  Alcotest.(check string) "merge byte-identical after corruption+recompute" expected
    (must_merge dir)

let test_stale_claim_reaped_by_run () =
  let _, expected = Lazy.force reference in
  let dir = fresh_dir () in
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ grid_args dir) in
  Alcotest.(check int) "setup run exits 0" 0 r.code;
  (* lose one cell and leave a dead worker's claim on it *)
  (match cell_files dir with
  | a :: _ ->
      Sys.remove a;
      plant_claim ~path:(a ^ ".claim") ~pid:(dead_pid ()) ~owner:"ghost"
        ~since:(Unix.gettimeofday ())
  | [] -> Alcotest.fail "expected cached cells");
  let st = run_cli ([ "grid"; "status" ] @ grid_args dir) in
  Alcotest.(check bool) "status surfaces the dead claim as stale" true
    (contains ~needle:"stale 1" st.stdout);
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ grid_args dir) in
  Alcotest.(check int) "reap+recompute exits 0" 0 r.code;
  Alcotest.(check string) "merge byte-identical after reap" expected (must_merge dir)

(* The telemetry of a real 1-shard `grid run`: a cold run emits one
   [grid.result] per computed cell, and a warm run counts every cell as
   a cache hit and computes none. *)
let test_run_telemetry () =
  let module Json = Obs.Json in
  let dir = fresh_dir () in
  let cells = Filename.concat dir "cells" in
  let run name =
    let out = Filename.concat dir name in
    let r = run_cli ([ "grid"; "run"; "--shards"; "1"; "--metrics-out"; out ] @ grid_args cells) in
    Alcotest.(check int) (name ^ ": run exits 0") 0 r.code;
    List.map Json.parse (In_channel.with_open_bin out In_channel.input_lines)
  in
  let field k e = Json.member k e in
  let events name evs =
    List.length (List.filter (fun e -> field "event" e = Some (Json.String name)) evs)
  in
  let counter name evs =
    List.find_map
      (fun e ->
        if field "event" e = Some (Json.String "metric") && field "name" e = Some (Json.String name)
        then Option.map Json.to_int (field "value" e)
        else None)
      evs
  in
  let n = List.length (E.grid_keys (smoke_cfg ()) ~variants:E.table1_variants) in
  let cold = run "cold.jsonl" in
  Alcotest.(check int) "cold: one grid.result per cell" n (events "grid.result" cold);
  Alcotest.(check (option int)) "cold: every cell computed" (Some n)
    (counter "grid.worker.computed" cold);
  let warm = run "warm.jsonl" in
  Alcotest.(check (option int)) "warm: every cell a cache hit" (Some n)
    (counter "grid.cache_hits" warm);
  Alcotest.(check int) "warm: every cell reported cached" n (events "grid.cell.cached" warm);
  Alcotest.(check (option int)) "warm: no cell computed" (Some 0)
    (counter "grid.worker.computed" warm);
  Alcotest.(check int) "warm: no grid.result" 0 (events "grid.result" warm)

let () =
  Random.self_init ();
  Alcotest.run "grid"
    [
      ( "lease",
        [
          Alcotest.test_case "acquire/read/release roundtrip" `Quick test_lease_roundtrip;
          Alcotest.test_case "corrupt claims reaped, never trusted" `Quick
            test_lease_corrupt_claim_reaped;
          Alcotest.test_case "dead pid is stale" `Quick test_lease_dead_pid_is_stale;
          Alcotest.test_case "ttl marks hung workers" `Quick test_lease_ttl;
        ] );
      ( "proto",
        [
          Alcotest.test_case "computes all, idempotent" `Quick test_proto_computes_all;
          Alcotest.test_case "corrupt cell recomputed" `Quick test_proto_corrupt_cell_recomputed;
          Alcotest.test_case "stale claims reaped" `Quick test_proto_stale_claims_reaped;
          Alcotest.test_case "dead writers' tmp litter reaped" `Quick test_proto_reap_tmp;
          Alcotest.test_case "complete cache loads each cell once" `Quick
            test_proto_complete_cache_loads_once;
          Qgen.test_case ~count:25 ~pp:pp_case "merge invariant to shards/order/duplicates"
            gen_case shard_invariance;
        ] );
      ( "status",
        [
          Alcotest.test_case "interrupted cell writes surface as stale" `Quick
            test_interrupted_cell_write_is_stale;
        ] );
      ( "faults",
        [
          Alcotest.test_case "SIGKILL mid-cell + resume is bit-identical" `Quick
            test_sigkill_resume_bit_identical;
          Alcotest.test_case "corrupt/truncated cells recomputed" `Quick
            test_corrupt_cells_recomputed;
          Alcotest.test_case "stale claim reaped by run" `Quick test_stale_claim_reaped_by_run;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "cold run reports each cell, warm run hits every cell" `Quick
            test_run_telemetry;
          Alcotest.test_case "warm run loads each cell once" `Quick
            test_warm_run_loads_each_cell_once;
        ] );
    ]
