module Scenario = Satin.Scenario
open Satin_engine
module Platform = Satin_hw.Platform
module Cpu = Satin_hw.Cpu
module World = Satin_hw.World
module Cache_prober = Satin_attack.Cache_prober

let quiet_config =
  { Cache_prober.default_config with noise_rate_hz = 0.0 }

let run s d = Scenario.run_for s d

let test_cluster_mapping () =
  let platform = Platform.juno_r1 ~seed:3 () in
  Alcotest.(check int) "core 0" 0 (Cache_prober.cluster_of_core platform ~core:0);
  Alcotest.(check int) "core 3" 0 (Cache_prober.cluster_of_core platform ~core:3);
  Alcotest.(check int) "core 4" 1 (Cache_prober.cluster_of_core platform ~core:4);
  Alcotest.(check int) "core 5" 1 (Cache_prober.cluster_of_core platform ~core:5)

(* Regression: the mapping must come from the computed topology, not the
   Juno's hardcoded 4+4 split. On a 2xA53 + 4xA57 board, core 2 is in
   cluster 1 (the old [core <= 3 -> 0] rule said 0), and a homogeneous
   board is one cluster. *)
let test_cluster_mapping_non_juno () =
  let open Satin_hw.Cycle_model in
  let asym =
    Platform.create ~seed:3 ~core_types:[| A53; A53; A57; A57; A57; A57 |] ()
  in
  Alcotest.(check int) "asym core 1" 0 (Cache_prober.cluster_of_core asym ~core:1);
  Alcotest.(check int) "asym core 2" 1 (Cache_prober.cluster_of_core asym ~core:2);
  Alcotest.(check int) "asym core 5" 1 (Cache_prober.cluster_of_core asym ~core:5);
  Alcotest.(check int) "asym clusters" 2
    (Array.length (Cache_prober.clusters_of_platform asym));
  let homo = Platform.create ~seed:3 ~core_types:[| A57; A57; A57 |] () in
  Alcotest.(check int) "homogeneous is one cluster" 1
    (Array.length (Cache_prober.clusters_of_platform homo));
  Alcotest.(check int) "homogeneous core 2" 0
    (Cache_prober.cluster_of_core homo ~core:2)

let test_quiet_no_alarms () =
  let s = Scenario.create ~seed:85 () in
  let p = Cache_prober.deploy s.Scenario.kernel quiet_config in
  run s (Sim_time.s 1);
  Alcotest.(check int) "no detections" 0 (List.length (Cache_prober.detections p));
  Alcotest.(check bool) "cluster 0 clean" false (Cache_prober.suspected p ~cluster:0);
  Cache_prober.retire p

let test_detects_scan_in_cluster () =
  let s = Scenario.create ~seed:86 () in
  let p = Cache_prober.deploy s.Scenario.kernel quiet_config in
  run s (Sim_time.ms 5);
  (* A 5 ms secure residency on core 2 (A53 cluster). *)
  let cpu = Platform.core s.Scenario.platform 2 in
  Cpu.set_world cpu World.Secure;
  let entry = Scenario.now s in
  run s (Sim_time.ms 5);
  Cpu.set_world cpu World.Normal;
  (match Cache_prober.detections p with
  | d :: _ ->
      Alcotest.(check int) "right cluster" 0 d.Cache_prober.det_cluster;
      Alcotest.(check bool) "not noise" false d.Cache_prober.det_noise;
      let delay = Sim_time.to_sec_f (Sim_time.diff d.Cache_prober.det_time entry) in
      (* eviction lag (100 us) + at most one probe period (200 us) + jitter *)
      if delay < 1.0e-4 || delay > 6.0e-4 then
        Alcotest.failf "cache-channel delay out of model: %g" delay
  | [] -> Alcotest.fail "no detection");
  Alcotest.(check bool) "other cluster untouched" false
    (Cache_prober.suspected p ~cluster:1);
  (* After the scan, re-primed sets probe clean again. *)
  run s (Sim_time.ms 2);
  Alcotest.(check bool) "cleared" false (Cache_prober.suspected p ~cluster:0);
  Cache_prober.retire p

let test_detects_finished_scan_retrospectively () =
  let s = Scenario.create ~seed:87 () in
  (* Probe slowly so the scan fits entirely between two probes. *)
  let p =
    Cache_prober.deploy s.Scenario.kernel
      { quiet_config with period = Sim_time.ms 20 }
  in
  run s (Sim_time.ms 25);
  let cpu = Platform.core s.Scenario.platform 5 in
  Cpu.set_world cpu World.Secure;
  run s (Sim_time.ms 5);
  Cpu.set_world cpu World.Normal;
  run s (Sim_time.ms 25);
  (match Cache_prober.detections p with
  | d :: _ ->
      Alcotest.(check int) "A57 cluster" 1 d.Cache_prober.det_cluster
  | [] -> Alcotest.fail "finished scan missed");
  Cache_prober.retire p

let test_short_residency_below_lag_invisible () =
  let s = Scenario.create ~seed:88 () in
  let p = Cache_prober.deploy s.Scenario.kernel quiet_config in
  run s (Sim_time.ms 5);
  let cpu = Platform.core s.Scenario.platform 1 in
  Cpu.set_world cpu World.Secure;
  run s (Sim_time.us 50) (* below the 100 us eviction lag *);
  Cpu.set_world cpu World.Normal;
  run s (Sim_time.ms 5);
  Alcotest.(check int) "sub-lag residency invisible" 0
    (List.length (Cache_prober.detections p));
  Cache_prober.retire p

let test_noise_produces_false_alarms () =
  let s = Scenario.create ~seed:89 () in
  let p =
    Cache_prober.deploy s.Scenario.kernel
      { Cache_prober.default_config with noise_rate_hz = 5.0 }
  in
  run s (Sim_time.s 2);
  Alcotest.(check bool) "noise fired" true (Cache_prober.false_alarms p > 0);
  List.iter
    (fun d ->
      Alcotest.(check bool) "all alarms are noise here" true
        d.Satin_attack.Cache_prober.det_noise)
    (Cache_prober.detections p);
  Cache_prober.retire p

(* A modeled prober times the platform's cache model; on a scenario built
   without [~cache] there is none, and [deploy] must say how to get one. *)
let test_modeled_mode_needs_cache () =
  List.iter
    (fun fidelity ->
      let s = Scenario.create ~seed:88 () in
      match
        Cache_prober.deploy s.Scenario.kernel
          { quiet_config with Cache_prober.fidelity }
      with
      | _ ->
          Alcotest.failf "%s deployed without a cache"
            (Cache_prober.fidelity_to_string fidelity)
      | exception Invalid_argument msg ->
          let hint = "Scenario.create ~cache" in
          let n = String.length hint in
          let rec mentions i =
            i + n <= String.length msg
            && (String.sub msg i n = hint || mentions (i + 1))
          in
          if not (mentions 0) then
            Alcotest.failf "message does not point at %s: %s" hint msg)
    [ Cache_prober.Prime_probe; Cache_prober.Evict_reload ]

let test_e14_end_to_end () =
  let r = Satin.Experiment.run_e14 ~seed:5 ~passes:1 () in
  Alcotest.(check bool) "rounds ran" true (r.Satin.Experiment.e14_rounds >= 15);
  Alcotest.(check bool) "area 14 checked" true (r.Satin.Experiment.e14_area14_checks >= 1);
  Alcotest.(check int) "all detected despite the faster channel"
    r.Satin.Experiment.e14_area14_checks
    r.Satin.Experiment.e14_area14_detections;
  if not (Stats.is_empty r.Satin.Experiment.e14_reaction) then begin
    let mean = Stats.mean r.Satin.Experiment.e14_reaction in
    (* ~ eviction lag + probe period + Tns_recover: faster than KProber's
       ~8.2e-3 but still slower than the scan front. *)
    if mean < 5.0e-3 || mean > 7.5e-3 then
      Alcotest.failf "cache-channel reaction out of model: %g" mean
  end

let suite =
  [
    Alcotest.test_case "cluster mapping" `Quick test_cluster_mapping;
    Alcotest.test_case "cluster mapping non-4+4" `Quick
      test_cluster_mapping_non_juno;
    Alcotest.test_case "quiet no alarms" `Quick test_quiet_no_alarms;
    Alcotest.test_case "detects scan in cluster" `Quick test_detects_scan_in_cluster;
    Alcotest.test_case "retrospective detection" `Quick
      test_detects_finished_scan_retrospectively;
    Alcotest.test_case "sub-lag residency invisible" `Quick
      test_short_residency_below_lag_invisible;
    Alcotest.test_case "noise false alarms" `Quick test_noise_produces_false_alarms;
    Alcotest.test_case "modeled mode needs a cache" `Quick
      test_modeled_mode_needs_cache;
    Alcotest.test_case "E14 end to end" `Slow test_e14_end_to_end;
  ]
