(* CLI contract tests for failure modes that must not train.

   These run the real binary ([../bin/adapt_pnc.exe] relative to the
   test's build directory) and pin the exit codes and messages of the
   --resume / --checkpoint-dir error paths. Both bugs being pinned here
   were silent: --resume with a missing train.ckpt used to fall through
   to a fresh training run (overwriting the directory the user asked to
   resume from), and a checkpoint dir with a missing parent surfaced as
   an uncaught Sys_error backtrace. *)

let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/adapt_pnc.exe"

type outcome = { code : int; stdout : string; stderr : string }

let slurp path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli (args : string list) : outcome =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
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
  let r = { code; stdout = slurp out; stderr = slurp err } in
  Sys.remove out;
  Sys.remove err;
  r

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adapt_pnc_cli_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

(* --resume with an existing checkpoint dir but no train.ckpt must exit
   2 with a pointer at the missing file — never train from scratch. *)
let test_resume_missing_checkpoint () =
  let dir = fresh_dir () in
  let r =
    run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--checkpoint-dir"; dir; "--resume" ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "names the missing checkpoint" true
    (contains ~needle:(Filename.concat dir "train.ckpt") r.stderr);
  Alcotest.(check bool) "says nothing to resume" true (contains ~needle:"nothing to resume" r.stderr);
  Alcotest.(check bool) "did not start training" false (contains ~needle:"training" r.stdout);
  Sys.rmdir dir

(* --resume is meaningless without --checkpoint-dir: exit 2, say so. *)
let test_resume_requires_dir () =
  let r = run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--resume" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "explains the pairing" true
    (contains ~needle:"--resume requires --checkpoint-dir" r.stderr)

(* A checkpoint dir whose parent does not exist must fail with a usable
   message, not an uncaught Sys_error backtrace. *)
let test_mkdir_missing_parent () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "no_such_parent_%d/ckpt" (Random.bits ()))
  in
  let r =
    run_cli [ "train"; "-d"; "PowerCons"; "--scale"; "smoke"; "--checkpoint-dir"; missing ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool)
    "clean diagnostic" true
    (contains ~needle:"cannot create checkpoint directory" r.stderr);
  Alcotest.(check bool) "no uncaught exception" false (contains ~needle:"Fatal error" r.stderr)

(* grid subcommands: exit-code contract against the real binary. The
   crash/corruption fault battery lives in test_grid.ml; here we pin
   the user-error paths and the status arithmetic. *)

let missing_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "no_such_grid_cache_%d" (Random.bits ()))

(* status/merge must not invent an empty grid when the cache dir does
   not exist: exit 2 and name the directory. *)
let test_grid_status_missing_dir () =
  let dir = missing_dir () in
  let r = run_cli [ "grid"; "status"; "--cache-dir"; dir; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "names the directory" true (contains ~needle:dir r.stderr)

let test_grid_merge_missing_dir () =
  let dir = missing_dir () in
  let r = run_cli [ "grid"; "merge"; "--cache-dir"; dir; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "names the directory" true (contains ~needle:dir r.stderr)

let test_grid_run_bad_shards () =
  let dir = fresh_dir () in
  let r = run_cli [ "grid"; "run"; "--cache-dir"; dir; "--shards"; "0"; "--scale"; "smoke" ] in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "explains the bound" true (contains ~needle:"--shards" r.stderr);
  Sys.rmdir dir

let test_grid_bad_variant_set () =
  let dir = fresh_dir () in
  let r =
    run_cli [ "grid"; "run"; "--cache-dir"; dir; "--scale"; "smoke"; "--variants"; "table9" ]
  in
  Alcotest.(check int) "exit code" 2 r.code;
  Alcotest.(check bool) "lists the valid sets" true (contains ~needle:"all|table1|fig7" r.stderr);
  Sys.rmdir dir

(* A half-done grid must report the exact done/pending split, in both
   the table and the JSONL renderings, and merge must refuse it with
   exit 3 listing the missing cells. *)
let test_grid_status_half_done () =
  let dir = fresh_dir () in
  let args = [ "--cache-dir"; dir; "--scale"; "smoke"; "-d"; "GPOVY"; "--variants"; "table1" ] in
  let r = run_cli ([ "grid"; "run"; "--shards"; "1" ] @ args) in
  Alcotest.(check int) "grid run exits 0" 0 r.code;
  (* drop two of the three cells *)
  let cells =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".ckpt")
    |> List.sort compare
  in
  Alcotest.(check int) "table1 x GPOVY is three cells" 3 (List.length cells);
  List.iteri (fun i e -> if i < 2 then Sys.remove (Filename.concat dir e)) cells;
  let st = run_cli ([ "grid"; "status" ] @ args) in
  Alcotest.(check int) "status exits 0" 0 st.code;
  Alcotest.(check bool) "reports done 1 / pending 2" true
    (contains ~needle:"done 1, claimed 0, stale 0, pending 2" st.stdout);
  let js = run_cli ([ "grid"; "status"; "--json" ] @ args) in
  Alcotest.(check int) "status --json exits 0" 0 js.code;
  Alcotest.(check bool) "summary line agrees" true
    (contains ~needle:{|"total":3,"done":1,"claimed":0,"stale":0,"pending":2|} js.stdout);
  let m = run_cli ([ "grid"; "merge" ] @ args) in
  Alcotest.(check int) "merge on a half-done grid exits 3" 3 m.code;
  Alcotest.(check bool) "lists missing cells" true (contains ~needle:"2 cells missing" m.stderr)

(* serve: a drained daemon exits 0 even when its stdout reader is gone.
   The daemon ignores SIGPIPE, so its last banner write fails with EPIPE
   after the drain; that must not become an uncaught Sys_error (exit
   125). *)
let test_serve_closed_stdout () =
  let ckpt = Filename.temp_file "cli_serve" ".ckpt" in
  let model =
    Pnc_core.Model.Circuit
      (Pnc_core.Network.create ~hidden:3 (Pnc_util.Rng.create ~seed:1) Pnc_core.Network.Adapt
         ~inputs:1 ~classes:3)
  in
  Pnc_core.Persist.save_model ~path:ckpt model;
  let err = Filename.temp_file "cli_err" ".txt" in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args = [ "serve"; "--load"; ckpt; "--port"; "0"; "--reload-every-ms"; "0" ] in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr fd_err in
  Unix.close wr;
  Unix.close fd_err;
  let ic = Unix.in_channel_of_descr rd in
  (* "serving <model> (...) on http://127.0.0.1:<port>" *)
  let banner = try input_line ic with End_of_file -> "" in
  let port =
    match String.rindex_opt banner ':' with
    | Some i -> int_of_string_opt (String.sub banner (i + 1) (String.length banner - i - 1))
    | None -> None
  in
  (match port with
  | None ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "no startup banner (got %S): %s" banner (slurp err)
  | Some port ->
      (* A health answer means the accept loop runs, so the signal
         handlers are installed. *)
      let c = Pnc_serve.Serve.Client.connect ~port () in
      (match Pnc_serve.Serve.Client.health c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "health: %s" msg);
      Pnc_serve.Serve.Client.close c);
  close_in ic;
  Unix.kill pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "daemon did not exit within 20 s of SIGTERM"
    | _, status -> status
  in
  let status = wait () in
  let stderr = slurp err in
  Sys.remove err;
  Sys.remove ckpt;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "exit %d; stderr: %s" c stderr
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "killed by signal %d" s

let () =
  Random.self_init ();
  Alcotest.run "cli"
    [
      ( "train-errors",
        [
          Alcotest.test_case "--resume w/o train.ckpt exits 2" `Quick test_resume_missing_checkpoint;
          Alcotest.test_case "--resume w/o --checkpoint-dir exits 2" `Quick test_resume_requires_dir;
          Alcotest.test_case "mkdir missing parent is clean" `Quick test_mkdir_missing_parent;
        ] );
      ( "grid",
        [
          Alcotest.test_case "status w/o cache dir exits 2" `Quick test_grid_status_missing_dir;
          Alcotest.test_case "merge w/o cache dir exits 2" `Quick test_grid_merge_missing_dir;
          Alcotest.test_case "--shards 0 exits 2" `Quick test_grid_run_bad_shards;
          Alcotest.test_case "bad --variants exits 2" `Quick test_grid_bad_variant_set;
          Alcotest.test_case "half-done grid: status counts, merge exits 3" `Quick
            test_grid_status_half_done;
        ] );
      ( "serve",
        [ Alcotest.test_case "closed stdout: drained daemon exits 0" `Quick test_serve_closed_stdout ]
      );
    ]
