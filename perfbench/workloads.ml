(* The benchmark's three workloads. Each drives the library through public
   calls only and renders the library's own report ([Experiment.print_*])
   and [Summary] JSON, whose digest is the pass's checked output.

   The first untraced pass of a run ([~library:true]) calls the library's
   experiment entry points whole. Later untraced passes call the same
   trials one by one with a host speed probe ([Calib.tick]) after each; the
   committed digests show both paths render the same report. The traced
   pass replays each trial call by call ([Scenario.create], install,
   [Scenario.run_for] in slices, readout) with spans around every call and a
   metrics capture around every trial; its digest must equal the untraced
   one, which shows the per-layer numbers come from the same program. *)

module E = Satin.Experiment
module Scenario = Satin.Scenario
module Summary = Satin.Summary
module Json = Satin_obs.Json
module Store = Satin_store.Store
module Sim_time = Satin_engine.Sim_time
module Prng = Satin_engine.Prng
module Runner = Satin_runner.Runner
module Unixbench = Satin_workload.Unixbench
module Satin_def = Satin_introspect.Satin
module Round = Satin_introspect.Round
module Evader = Satin_attack.Evader
module Kprober = Satin_attack.Kprober
module Cache_prober = Satin_attack.Cache_prober
module Cache_policy = Satin_cache.Policy

type size = Full | Tiny

(* What one pass produced. [layer] carries per-layer values only the
   workload can see (store counters, phase times, prober alarms). *)
type pass = {
  digest : string;
  sim_s : float; (* simulated seconds advanced over all scenarios *)
  model : Json.t list; (* simulated result vs the paper, ungated *)
  layer : (string * float) list;
}

type t = {
  name : string;
  trials : size -> int; (* trial bodies one pass runs *)
  scenarios : size -> int; (* scenarios one pass boots *)
  fixtures : work_dir:string -> size -> unit;
      (* set-up work done once, before the first pass *)
  run :
    pool:Runner.t ->
    work_dir:string ->
    size ->
    seed:int ->
    traced:bool ->
    library:bool ->
    pass;
}

exception Mismatch of string

let span = Tracer.span
let sec = Sim_time.to_sec_f

let render print summary r =
  span "report.render" (fun () ->
      Format.asprintf "%a" print r ^ "\n" ^ Json.to_string (summary r))

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Model error entries: the paper's value next to the simulated one. These
   few points are all the model is checked against; nothing beyond them is
   validated, and none of them gates the benchmark. *)
let model_point ?(source = "paper") ~quantity ~measured reference =
  Json.Obj
    [
      ("quantity", Json.String quantity);
      ("measured", Json.float measured);
      ("reference", Json.float reference);
      ("source", Json.String source);
      ("error", Json.float (measured -. reference));
      ("validated", Json.Bool false);
    ]

(* Every trial of a traced pass is one root span under one capture. *)
let traced_trial f = Tracer.trial (fun () -> Tracer.capture f)

(* ---------------------------------------------------------------- *)
(* fig7_unixbench: Figure 7's overhead grid                          *)
(* ---------------------------------------------------------------- *)

module Fig7 = struct
  (* Two simulated seconds per scenario: SATIN's first wake-up falls in
     (0, 2 tp) = (0, 2 s), so every SATIN-on scenario completes at least one
     round (with 1 s, about half the seeds ran none). A pass then takes
     about 8 s on a 2-core host, of which the 48 boots are about 3 s. *)
  let window_s = 2
  let slices = 4
  let programs = Array.of_list Unixbench.programs

  (* Tiny: the first program's four cells only. *)
  let trials = function Full -> 4 * Array.length programs | Tiny -> 4

  (* Experiment.fig7's SATIN: one round per second over the 19 areas. *)
  let overhead_config = { Satin_def.default_config with t_goal = Sim_time.s 19 }

  let replica ~seed ~trial_index =
    let program = programs.(trial_index / 4) in
    let copies = if trial_index / 2 mod 2 = 0 then 1 else 6 in
    let s = span "scenario.create" (fun () -> Scenario.create ~seed ()) in
    if trial_index mod 2 = 1 then
      ignore
        (span "satin.install" (fun () ->
             Scenario.install_satin s ~config:overhead_config ()));
    let inst =
      span "unixbench.launch" (fun () ->
          Unixbench.launch s.Scenario.kernel program ~copies ())
    in
    let slice = Sim_time.ms (1000 * window_s / slices) in
    for _ = 1 to slices do
      span "sim.run_for" (fun () -> Scenario.run_for s slice)
    done;
    span "score" (fun () ->
        let score = Unixbench.score inst ~at:(Scenario.now s) in
        Unixbench.stop inst;
        score)

  (* Experiment.run_fig7's row assembly over the scores of the first
     [Array.length scores / 4] programs. *)
  let assemble scores =
    let degradation ~off ~on =
      if off <= 0.0 then 0.0 else 100.0 *. (off -. on) /. off
    in
    let rows =
      List.init
        (Array.length scores / 4)
        (fun pi ->
          let b = 4 * pi in
          {
            E.f7_program = programs.(pi).Unixbench.prog_name;
            f7_deg_1task = degradation ~off:scores.(b) ~on:scores.(b + 1);
            f7_deg_6task = degradation ~off:scores.(b + 2) ~on:scores.(b + 3);
          })
    in
    let avg f =
      List.fold_left (fun acc r -> acc +. f r) 0.0 rows
      /. float_of_int (List.length rows)
    in
    {
      E.f7_rows = rows;
      f7_avg_1task = avg (fun r -> r.E.f7_deg_1task);
      f7_avg_6task = avg (fun r -> r.E.f7_deg_6task);
    }

  let run ~pool ~work_dir:_ size ~seed ~traced ~library =
    let n = trials size in
    let r =
      if traced then
        assemble
          (Array.init n (fun i ->
               traced_trial (fun () -> replica ~seed ~trial_index:i)))
      else
        match size with
        | Full when library -> E.run_fig7 ~pool ~seed ~window_s ()
        | Full | Tiny ->
            assemble
              (Array.init n (fun i ->
                   let score = E.fig7_trial ~seed ~window_s ~trial_index:i in
                   Calib.tick ();
                   score))
    in
    {
      digest = digest [ render E.print_fig7 Summary.fig7 r ];
      sim_s = float_of_int (n * window_s);
      model =
        [
          model_point ~quantity:"fig7 average degradation, 1-task (%)"
            ~measured:r.E.f7_avg_1task 0.711;
          model_point ~quantity:"fig7 average degradation, 6-task (%)"
            ~measured:r.E.f7_avg_6task 0.848;
        ];
      layer = [];
    }

  let workload =
    {
      name = "fig7_unixbench";
      trials;
      scenarios = trials;
      fixtures = (fun ~work_dir:_ _ -> ());
      run;
    }
end

(* ---------------------------------------------------------------- *)
(* cache_side_channel: the cache_fidelity grid                       *)
(* ---------------------------------------------------------------- *)

module Cache_grid = struct
  let window_s = 1
  let trials_per_cell = 1

  (* Tiny: the two Prime+Probe / Tree-PLRU cells, AutoLock off and on. *)
  let cells = function
    | Full -> Array.of_list E.cache_cells
    | Tiny ->
        Array.of_list
          (List.filter
             (fun c ->
               c.E.cc_fidelity = Cache_prober.Prime_probe
               && c.E.cc_policy = Cache_policy.Tree_plru)
             E.cache_cells)

  let trials size = trials_per_cell * Array.length (cells size)

  (* Experiment.run_cache_fidelity's row assembly. *)
  let assemble cells results =
    List.mapi
      (fun ci cell ->
        let slice = Array.sub results (ci * trials_per_cell) trials_per_cell in
        let sum f = Array.fold_left (fun a t -> a + f t) 0 slice in
        {
          E.cr_fidelity = cell.E.cc_fidelity;
          cr_policy = cell.E.cc_policy;
          cr_autolock = cell.E.cc_autolock;
          cr_trials = trials_per_cell;
          cr_scans = sum (fun t -> t.E.ctr_scans);
          cr_detected = sum (fun t -> t.E.ctr_detected);
          cr_alarms = sum (fun t -> t.E.ctr_alarms);
          cr_false_alarms = sum (fun t -> t.E.ctr_false_alarms);
        })
      (Array.to_list cells)

  let run ~pool ~work_dir:_ size ~seed ~traced ~library =
    let cells = cells size in
    let n = trials size in
    let per_trial trial =
      let results =
        Array.init n (fun i ->
            trial (fun () ->
                E.cache_fidelity_trial ~seed ~trials:trials_per_cell ~window_s
                  ~cells ~trial_index:i))
      in
      (* A zero-trial run yields the library's seed-independent hit-rate
         validation table, which no trial computes. *)
      let validation =
        (E.run_cache_fidelity ~pool ~seed ~trials:0 ~window_s ()).E.cf_validation
      in
      {
        E.cf_rows = assemble cells results;
        cf_validation = validation;
        cf_trials = trials_per_cell;
        cf_window_s = window_s;
      }
    in
    let r =
      if traced then
        per_trial (fun f -> traced_trial (fun () -> span "cache_fidelity_trial" f))
      else
        match size with
        | Full when library ->
            E.run_cache_fidelity ~pool ~seed ~trials:trials_per_cell ~window_s ()
        | Full | Tiny ->
            per_trial (fun f ->
                let t = f () in
                Calib.tick ();
                t)
    in
    let autolock_pp =
      List.find_opt
        (fun row ->
          row.E.cr_fidelity = Cache_prober.Prime_probe
          && row.E.cr_policy = Cache_policy.Tree_plru && row.E.cr_autolock)
        r.E.cf_rows
    in
    let alarms = List.fold_left (fun a row -> a + row.E.cr_alarms) 0 r.E.cf_rows in
    {
      digest = digest [ render E.print_cache_fidelity Summary.cache_fidelity r ];
      sim_s = float_of_int (n * window_s);
      model =
        (match autolock_pp with
        | Some row when row.E.cr_scans > 0 ->
            [
              model_point ~source:"EXPERIMENTS.md"
                ~quantity:"AutoLock Prime+Probe (tree-plru) detection (%)"
                ~measured:
                  (100.0 *. float_of_int row.E.cr_detected
                  /. float_of_int row.E.cr_scans)
                2.0;
            ]
        | _ -> []);
      layer = [ ("cache_prober.alarms", float_of_int alarms) ];
    }

  let workload =
    {
      name = "cache_side_channel";
      trials;
      scenarios = trials;
      fixtures = (fun ~work_dir:_ _ -> ());
      run;
    }
end

(* ---------------------------------------------------------------- *)
(* evader_race_store: E10 cold through a store, then replayed warm    *)
(* ---------------------------------------------------------------- *)

module E10 = struct
  let target_rounds = function Full -> 19 | Tiny -> 3

  (* The campaigns of one pass: one, seeded from the workload seed. *)
  let seeds seed = [ Prng.derive seed 0 ]

  (* Per campaign: the store-less replica, the cold library run and the
     warm replay; the first two boot a scenario each. *)
  let trials _ = 3
  let scenarios _ = 2
  let probe_period_us = 500 (* Experiment.run_e10's default *)

  (* Experiment.run_e10's campaign, call by call. Returns the result and
     the simulated seconds it advanced. *)
  let replica ~seed ~target_rounds =
    let scenario = span "scenario.create" (fun () -> Scenario.create ~seed ()) in
    let satin = span "satin.install" (fun () -> Scenario.install_satin scenario ()) in
    let evader =
      span "evader.deploy" (fun () ->
          let ev =
            Evader.deploy scenario.Scenario.kernel
              {
                Evader.default_config with
                prober =
                  { Kprober.default_config with period = Sim_time.us probe_period_us };
              }
          in
          Evader.start ev;
          ev)
    in
    let step = Sim_time.s 10 in
    let cap = 40 * target_rounds / 19 * 19 in
    while
      Satin_def.rounds_count satin < target_rounds
      && sec (Scenario.now scenario) < float_of_int cap
    do
      span "sim.run_for" (fun () -> Scenario.run_for scenario step);
      Calib.tick ()
    done;
    Satin_def.stop satin;
    Evader.stop evader;
    let sim_s = sec (Scenario.now scenario) in
    let result =
      span "readout" @@ fun () ->
      let rounds =
        List.filteri (fun i _ -> i < target_rounds) (Satin_def.rounds satin)
      in
      let area14 = List.filter (fun r -> r.Round.area_index = 14) rounds in
      let area14_detected = List.filter Round.detected area14 in
      let gaps =
        let rec pair = function
          | a :: (b :: _ as rest) -> (b -. a) :: pair rest
          | [ _ ] | [] -> []
        in
        pair (List.map (fun r -> sec r.Round.started) area14)
      in
      let gap_mean =
        match gaps with
        | [] -> 0.0
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
      in
      let last () = List.nth rounds (List.length rounds - 1) in
      let pass_time =
        match rounds with
        | [] | [ _ ] -> 0.0
        | first :: _ ->
            sec (Sim_time.diff (last ()).Round.started first.Round.started)
            /. float_of_int (List.length rounds - 1)
            *. 19.0
      in
      (* Each round matches the first unconsumed probe alarm in
         [start, start + 50 ms]. *)
      let detections = Array.of_list (Kprober.detections (Evader.prober evader)) in
      let consumed = Array.make (Array.length detections) false in
      let reported =
        List.filter
          (fun r ->
            let s = sec r.Round.started in
            let found = ref false in
            Array.iteri
              (fun i (d : Kprober.detection) ->
                if (not !found) && not consumed.(i) then begin
                  let dt = sec d.Kprober.det_time in
                  if dt >= s && dt <= s +. 0.05 then begin
                    consumed.(i) <- true;
                    found := true
                  end
                end)
              detections;
            !found)
          rounds
      in
      let horizon =
        match rounds with [] -> 0.0 | _ -> sec (last ()).Round.started +. 0.05
      in
      let false_positives = ref 0 in
      Array.iteri
        (fun i (d : Kprober.detection) ->
          if (not consumed.(i)) && sec d.Kprober.det_time <= horizon then
            incr false_positives)
        detections;
      {
        E.e10_rounds = List.length rounds;
        e10_full_passes = Satin_def.full_passes satin;
        e10_area14_checks = List.length area14;
        e10_area14_detections = List.length area14_detected;
        e10_area14_gap_mean_s = gap_mean;
        e10_full_pass_time_s = pass_time;
        e10_prober_reported = List.length reported;
        e10_false_negatives = List.length rounds - List.length reported;
        e10_false_positives = !false_positives;
        e10_evasions_attempted = List.length area14;
        e10_evasions_succeeded = List.length area14 - List.length area14_detected;
      }
    in
    (result, sim_s)

  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

  let store_count = ref 0

  (* A store directory no earlier pass (or process) has used. *)
  let fresh_store_dir work_dir =
    incr store_count;
    let dir =
      Filename.concat work_dir
        (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_count)
    in
    rm_rf dir;
    dir

  let with_store work_dir f =
    let dir = fresh_store_dir work_dir in
    let st = Store.open_ dir in
    Store.install st;
    Fun.protect
      ~finally:(fun () ->
        Store.uninstall ();
        Store.close st;
        rm_rf dir)
      (fun () -> f st)

  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)

  let run ~pool:_ ~work_dir size ~seed ~traced ~library:_ =
    let seeds = seeds seed in
    let rounds = target_rounds size in
    let library s = E.run_e10 ~seed:s ~target_rounds:rounds () in
    let report r = render E.print_e10 Summary.e10 r in
    let replicas, storeless_s =
      timed (fun () ->
          List.map
            (fun s ->
              let call () = replica ~seed:s ~target_rounds:rounds in
              if traced then traced_trial call else call ())
            seeds)
    in
    with_store work_dir @@ fun st ->
    let cold, cold_s =
      timed (fun () ->
          List.map
            (fun s -> Tracer.trial (fun () -> span "store.cold" (fun () -> library s)))
            seeds)
    in
    Calib.tick ();
    let after_cold = Store.counters st in
    let warm, replay_s =
      timed (fun () ->
          List.map
            (fun s ->
              Tracer.trial (fun () -> span "store.replay" (fun () -> library s)))
            seeds)
    in
    Calib.tick ();
    let after_warm = Store.counters st in
    let reports l = List.map report l in
    let cold_reports = reports cold in
    if reports (List.map fst replicas) <> cold_reports then
      raise (Mismatch "E10 call-by-call replica differs from Experiment.run_e10");
    if reports warm <> cold_reports then
      raise (Mismatch "E10 warm replay differs from the cold pass");
    let hits = after_warm.Store.hits - after_cold.Store.hits in
    let misses = after_warm.Store.misses - after_cold.Store.misses in
    let evasions =
      List.fold_left (fun a r -> a + r.E.e10_evasions_succeeded) 0 cold
    in
    {
      digest = digest cold_reports;
      sim_s = 2.0 *. List.fold_left (fun a (_, s) -> a +. s) 0.0 replicas;
      model =
        [
          model_point ~quantity:"E10 evasions succeeded"
            ~measured:(float_of_int evasions) 0.0;
        ];
      layer =
        [
          ("e10.storeless_s", storeless_s);
          ("store.cold_s", cold_s);
          ("store.replay_s", replay_s);
          ("store.writes", float_of_int after_cold.Store.writes);
          ("store.capsule_writes", float_of_int after_cold.Store.capsule_writes);
          ( "store.replay_hit_ratio",
            if hits + misses = 0 then 0.0
            else float_of_int hits /. float_of_int (hits + misses) );
        ];
    }

  let workload =
    {
      name = "evader_race_store";
      trials;
      scenarios;
      (* Set-up opens (and drops) one store, so store-open cost shows in
         setup_s as well as in every pass. *)
      fixtures = (fun ~work_dir _ -> with_store work_dir ignore);
      run;
    }
end

let all = [ Fig7.workload; Cache_grid.workload; E10.workload ]
let find name = List.find_opt (fun w -> w.name = name) all
