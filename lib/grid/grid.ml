module Config = Pnc_exp.Config
module E = Pnc_exp.Experiments
module Obs = Pnc_obs.Obs
module Json = Pnc_obs.Obs.Json
module Lease = Pnc_ckpt.Lease
module Table = Pnc_util.Table

(* Telemetry: claim-contention and fault-recovery counters (see
   docs/OBSERVABILITY.md). Bumped whether or not a sink is installed;
   the events around them are gated on [Obs.enabled]. *)
let computed_counter = Obs.Counter.make "grid.worker.computed"
let cache_hits_counter = Obs.Counter.make "grid.cache_hits"
let claim_conflicts_counter = Obs.Counter.make "grid.claim_conflicts"
let claims_reaped_counter = Obs.Counter.make "grid.claims_reaped"
let tmp_reaped_counter = Obs.Counter.make "grid.tmp_reaped"

module Proto = struct
  type 'a cell = {
    cell_id : string;
    path : string;
    load : unit -> 'a option;
    compute : unit -> unit;
  }

  let claim_path path = path ^ ".claim"

  (* [path ^ ".tmp.<pid>"] staging files (Ckpt.atomic_write) whose
     writer is dead are litter from an interrupted publish. Only the
     claim holder calls this, and live pids are left alone, so a
     healthy writer can never lose its staging bytes. *)
  let reap_tmp ~path =
    let dir = Filename.dirname path in
    let prefix = Filename.basename path ^ ".tmp." in
    let reaped = ref 0 in
    Array.iter
      (fun entry ->
        if String.length entry > String.length prefix
           && String.sub entry 0 (String.length prefix) = prefix
        then
          let suffix =
            String.sub entry (String.length prefix) (String.length entry - String.length prefix)
          in
          let dead =
            match int_of_string_opt suffix with
            | Some pid -> not (Lease.pid_alive pid)
            | None -> true (* unparsable writer: nothing to wait for *)
          in
          if dead then begin
            (try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ());
            incr reaped;
            Obs.Counter.incr tmp_reaped_counter
          end)
      (try Sys.readdir dir with Sys_error _ -> [||]);
    !reaped

  (* One pass over the cell list; returns (all_valid, advanced).
     [seen.(i)] holds cell [i]'s value once it loaded: a published cell
     stays published, so every later check by this worker skips it
     instead of reloading it. A cell this worker computed is loaded
     back from its file by the next check like any other. [checked.(i)]
     records that cell [i] has been checked at all: a cell valid at its
     first check is a cache hit. *)
  let pass ?lease_ttl ~progress ~owner ~computed ~seen ~checked cells =
    let advanced = ref false in
    let valid i c =
      if Option.is_none seen.(i) then begin
        seen.(i) <- c.load ();
        if Option.is_some seen.(i) && not checked.(i) then begin
          Obs.Counter.incr cache_hits_counter;
          if Obs.enabled () then
            Obs.emit "grid.cell.cached"
              [ ("cell", Obs.Str c.cell_id); ("path", Obs.Str c.path); ("owner", Obs.Str owner) ]
        end;
        checked.(i) <- true
      end;
      Option.is_some seen.(i)
    in
    Array.iteri
      (fun i c ->
        if not (valid i c) then begin
          let claim = claim_path c.path in
          match Lease.try_acquire ?ttl:lease_ttl ~owner claim with
          | (`Acquired | `Reaped_and_acquired) as got ->
              if got = `Reaped_and_acquired then begin
                Obs.Counter.incr claims_reaped_counter;
                if Obs.enabled () then
                  Obs.emit "grid.claim.reaped" [ ("cell", Obs.Str c.cell_id); ("owner", Obs.Str owner) ]
              end;
              Fun.protect
                ~finally:(fun () -> Lease.release ~path:claim)
                (fun () ->
                  (* Recheck under the claim: a sibling may have
                     published between our validity probe and the
                     acquisition. *)
                  if not (valid i c) then begin
                    ignore (reap_tmp ~path:c.path);
                    progress (Printf.sprintf "[%s] computing %s" owner c.cell_id);
                    let attrs =
                      if Obs.enabled () then
                        [ ("cell", Obs.Str c.cell_id); ("owner", Obs.Str owner) ]
                      else []
                    in
                    Obs.Span.with_ ~attrs "grid.worker.cell" c.compute;
                    incr computed;
                    Obs.Counter.incr computed_counter
                  end);
              advanced := true
          | `Held l ->
              Obs.Counter.incr claim_conflicts_counter;
              if Obs.enabled () then
                Obs.emit "grid.claim.conflict"
                  [
                    ("cell", Obs.Str c.cell_id);
                    ("owner", Obs.Str owner);
                    ("holder", Obs.Str l.Lease.owner);
                    ("holder_pid", Obs.Int l.Lease.pid);
                  ]
        end)
      cells;
    let rec all_valid i = i = Array.length cells || (valid i cells.(i) && all_valid (i + 1)) in
    (all_valid 0, !advanced)

  let work ?lease_ttl ?(poll_s = 0.25) ?(progress = fun _ -> ()) ~owner cells =
    let computed = ref 0 in
    let attrs =
      if Obs.enabled () then
        [ ("owner", Obs.Str owner); ("cells", Obs.Int (List.length cells)) ]
      else []
    in
    let cells = Array.of_list cells in
    let seen = Array.make (Array.length cells) None in
    let checked = Array.make (Array.length cells) false in
    Obs.Span.with_ ~attrs "grid.worker" (fun () ->
        let rec loop () =
          let all_valid, advanced =
            pass ?lease_ttl ~progress ~owner ~computed ~seen ~checked cells
          in
          if not all_valid then begin
            (* Everything left is claimed by live siblings: poll until
               they publish — or die, at which point their claims go
               stale and the next pass reaps them. *)
            if not advanced then Unix.sleepf poll_s;
            loop ()
          end
        in
        loop ());
    (!computed, Array.to_list (Array.map Option.get seen))
end

(* The experiment-grid instance ------------------------------------------- *)

let cell_label ~dataset ~variant ~seed =
  Printf.sprintf "%s/%s/seed%d" dataset (E.variant_tag variant) seed

(* The one place a cell is trained and published: every computed cell
   emits [grid.result], whoever computes it. *)
let cells_of_config ?pool ~dir cfg ~variants =
  List.map
    (fun (dataset, variant, seed) ->
      let path = E.cell_path ~dir cfg ~dataset ~variant ~seed in
      {
        Proto.cell_id = cell_label ~dataset ~variant ~seed;
        path;
        load = (fun () -> E.load_cell ~path cfg ~dataset ~variant ~seed);
        compute =
          (fun () ->
            let r = E.train_run ?pool cfg ~dataset ~variant ~seed in
            E.save_cell ~path cfg r;
            if Obs.enabled () then
              Obs.emit "grid.result"
                [
                  ("dataset", Obs.Str dataset);
                  ("variant", Obs.Str (E.variant_name variant));
                  ("seed", Obs.Int seed);
                  ("clean_acc", Obs.Float r.E.clean_acc);
                  ("clean_var_acc", Obs.Float r.E.clean_var_acc);
                  ("aug_var_acc", Obs.Float r.E.aug_var_acc);
                  ("pert_var_acc", Obs.Float r.E.pert_var_acc);
                  ("corr_var_acc", Obs.Float r.E.corr_var_acc);
                  ("train_seconds", Obs.Float r.E.train_seconds);
                  ("epochs", Obs.Int r.E.epochs);
                ]);
      })
    (E.grid_keys cfg ~variants)

let variants_of_string = function
  | "all" -> E.all_variants
  | "table1" -> E.table1_variants
  | "fig7" -> E.fig7_variants
  | s -> invalid_arg ("unknown variant set: " ^ s ^ " (expected all|table1|fig7)")

(* Status ------------------------------------------------------------------ *)

type state = Done | Claimed | Stale | Pending

let state_name = function
  | Done -> "done"
  | Claimed -> "claimed"
  | Stale -> "stale"
  | Pending -> "pending"

type cell_status = {
  dataset : string;
  variant : E.variant;
  seed : int;
  state : state;
  train_seconds : float option;
}

type status = {
  total : int;
  done_ : int;
  claimed : int;
  stale : int;
  pending : int;
  mean_cell_s : float option;
  eta_s : float option;
  cells : cell_status list;
}

let has_tmp_litter path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  Array.exists
    (fun entry ->
      String.length entry > String.length prefix
      && String.sub entry 0 (String.length prefix) = prefix)
    (try Sys.readdir dir with Sys_error _ -> [||])

let classify_cell ?lease_ttl ~dir cfg ~dataset ~variant ~seed =
  let path = E.cell_path ~dir cfg ~dataset ~variant ~seed in
  match E.load_cell ~path cfg ~dataset ~variant ~seed with
  | Some r -> (Done, Some r.E.train_seconds)
  | None -> (
      let claim = Proto.claim_path path in
      match Lease.read ~path:claim with
      | Some l when not (Lease.stale ?ttl:lease_ttl l) -> (Claimed, None)
      | Some _ -> (Stale, None) (* dead or hung worker's claim *)
      | None ->
          if Sys.file_exists claim then (Stale, None) (* corrupt claim *)
          else if Sys.file_exists path then (Stale, None) (* corrupt/truncated cell *)
          else if has_tmp_litter path then (Stale, None) (* interrupted publish *)
          else (Pending, None))

let classify ?lease_ttl ~dir cfg ~dataset ~variant ~seed =
  fst (classify_cell ?lease_ttl ~dir cfg ~dataset ~variant ~seed)

let status ?lease_ttl ~dir cfg ~variants =
  let cells =
    List.map
      (fun (dataset, variant, seed) ->
        let state, train_seconds = classify_cell ?lease_ttl ~dir cfg ~dataset ~variant ~seed in
        { dataset; variant; seed; state; train_seconds })
      (E.grid_keys cfg ~variants)
  in
  let count st = List.length (List.filter (fun c -> c.state = st) cells) in
  let done_ = count Done in
  let times = List.filter_map (fun c -> c.train_seconds) cells in
  let mean_cell_s =
    if times = [] then None
    else Some (List.fold_left ( +. ) 0. times /. float_of_int (List.length times))
  in
  let total = List.length cells in
  let eta_s = Option.map (fun m -> m *. float_of_int (total - done_)) mean_cell_s in
  {
    total;
    done_;
    claimed = count Claimed;
    stale = count Stale;
    pending = count Pending;
    mean_cell_s;
    eta_s;
    cells;
  }

let cell_id c = cell_label ~dataset:c.dataset ~variant:c.variant ~seed:c.seed

let status_json_lines st =
  List.map
    (fun c ->
      let base =
        [
          ("event", Json.String "grid.cell.status");
          ("dataset", Json.String c.dataset);
          ("variant", Json.String (E.variant_tag c.variant));
          ("seed", Json.Num (float_of_int c.seed));
          ("state", Json.String (state_name c.state));
        ]
      in
      let timing =
        match c.train_seconds with Some s -> [ ("train_seconds", Json.Num s) ] | None -> []
      in
      Json.render (Json.Obj (base @ timing)))
    st.cells
  @ [
      Json.render
        (Json.Obj
           ([
              ("event", Json.String "grid.status");
              ("total", Json.Num (float_of_int st.total));
              ("done", Json.Num (float_of_int st.done_));
              ("claimed", Json.Num (float_of_int st.claimed));
              ("stale", Json.Num (float_of_int st.stale));
              ("pending", Json.Num (float_of_int st.pending));
            ]
           @ (match st.mean_cell_s with
             | Some m -> [ ("mean_cell_seconds", Json.Num m) ]
             | None -> [])
           @ match st.eta_s with Some e -> [ ("eta_seconds", Json.Num e) ] | None -> []));
    ]

let print_status st =
  Printf.printf "grid: %d cells — done %d, claimed %d, stale %d, pending %d\n" st.total st.done_
    st.claimed st.stale st.pending;
  (match (st.mean_cell_s, st.eta_s) with
  | Some m, Some eta when st.done_ < st.total ->
      Printf.printf "mean cell: %s; remaining work: ~%s sequential (divide by your shard count)\n"
        (Pnc_util.Timer.fmt_seconds m)
        (Pnc_util.Timer.fmt_seconds eta)
  | Some m, _ -> Printf.printf "mean cell: %s; grid complete\n" (Pnc_util.Timer.fmt_seconds m)
  | None, _ -> ());
  let interesting = List.filter (fun c -> c.state <> Done && c.state <> Pending) st.cells in
  if interesting <> [] then begin
    let t = Table.create ~header:[ "Cell"; "State" ] in
    List.iter (fun c -> Table.add_row t [ cell_id c; state_name c.state ]) interesting;
    Table.print t
  end

(* Orchestration ------------------------------------------------------------ *)

let spawn_workers ~shards ~argv =
  let pids =
    List.init shards (fun i ->
        let worker_id = i + 1 in
        let args = argv ~worker_id in
        (worker_id, Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr))
  in
  List.map
    (fun (worker_id, pid) ->
      let _, st = Unix.waitpid [] pid in
      (worker_id, st))
    pids

(* Merge -------------------------------------------------------------------- *)

let merge ~dir cfg ~variants =
  let missing = ref [] in
  let runs =
    List.filter_map
      (fun (dataset, variant, seed) ->
        let path = E.cell_path ~dir cfg ~dataset ~variant ~seed in
        match E.load_cell ~path cfg ~dataset ~variant ~seed with
        | Some r -> Some r
        | None ->
            missing := cell_label ~dataset ~variant ~seed :: !missing;
            None)
      (E.grid_keys cfg ~variants)
  in
  if !missing = [] then Ok runs else Error (List.rev !missing)

let print_merged cfg ~variants runs =
  let has v = List.mem v variants in
  if has E.Reference && has E.Base && has E.Full then E.print_table1 (E.table1_of_grid cfg runs);
  if has E.Base then E.print_fig5 (E.fig5_of_grid cfg runs);
  if List.for_all has E.fig7_variants then E.print_fig7 (E.fig7_of_grid cfg runs);
  if has E.Base && has E.Full then E.print_table3 (E.table3_of_grid cfg runs)

(* Driver ------------------------------------------------------------------- *)

let run ?pool ?lease_ttl ?progress ~dir cfg ~variants =
  E.mkdir_p dir;
  let cells = cells_of_config ?pool ~dir cfg ~variants in
  snd (Proto.work ?lease_ttl ?progress ~owner:"worker-0" cells)
