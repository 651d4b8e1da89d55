(* Who gets a cache model: only scenarios that ask for one. Fig. 7 and the
   E10 race never read cache state, so they must simulate none — no
   footprint touches, no scan fills, no cache.* series — while the
   modeled cache_fidelity cells still drive real fills. *)

module Scenario = Satin.Scenario
module E = Satin.Experiment
open Satin_engine
module Metrics = Satin_obs.Metrics
module Obs = Satin_obs.Obs
module Satin_def = Satin_introspect.Satin
module Kprober = Satin_attack.Kprober
module Evader = Satin_attack.Evader
module Cache_prober = Satin_attack.Cache_prober

let series_with_prefix prefix m =
  let acc = ref [] in
  Metrics.iter_sorted m (fun name _ _ ->
      if String.starts_with ~prefix name then acc := name :: !acc);
  List.sort_uniq compare !acc

let counter m name = Option.value ~default:0 (Metrics.counter_value m name)

let check_cache_free what m =
  Alcotest.(check (list string)) (what ^ ": no cache.* series") []
    (series_with_prefix "cache." m);
  (* Guard against a vacuous pass: the scheduler did run. *)
  Alcotest.(check bool) (what ^ ": scheduler dispatched") true
    (counter m "sched.dispatches" > 0)

let test_default_has_no_cache () =
  let s = Scenario.create () in
  Alcotest.(check bool) "Scenario.create () has no cache" true
    (s.Scenario.platform.Satin_hw.Platform.cache = None);
  let s = Scenario.create ~cache:Satin_cache.Cache.default_config () in
  Alcotest.(check bool) "~cache requests one" true
    (s.Scenario.platform.Satin_hw.Platform.cache <> None)

let test_fig7_trial_simulates_no_cache () =
  (* trial_index 1: SATIN on, one copy; 2 s runs at least one round. *)
  let m, _ =
    Obs.with_capture (fun () -> E.fig7_trial ~seed:42 ~window_s:2 ~trial_index:1)
  in
  check_cache_free "fig7" m

let test_e10_scenario_simulates_no_cache () =
  let m, () =
    Obs.with_capture (fun () ->
        let s = Scenario.create ~seed:72 () in
        let satin =
          Scenario.install_satin s
            ~config:
              { Satin_def.default_config with Satin_def.t_goal = Sim_time.s 19 }
            ()
        in
        let ev = Evader.deploy s.Scenario.kernel Evader.default_config in
        Evader.start ev;
        Scenario.run_for s (Sim_time.s 5);
        Satin_def.stop satin;
        Evader.stop ev)
  in
  check_cache_free "E10" m;
  Alcotest.(check bool) "E10: SATIN scanned" true (counter m "checker.scans" > 0)

let test_prime_probe_cell_fills_cache () =
  let cell =
    {
      E.cc_fidelity = Cache_prober.Prime_probe;
      cc_policy = Satin_cache.Policy.Tree_plru;
      cc_autolock = false;
    }
  in
  let m, _ =
    Obs.with_capture (fun () ->
        E.cache_fidelity_trial ~seed:42 ~trials:1 ~window_s:1 ~cells:[| cell |]
          ~trial_index:0)
  in
  Alcotest.(check bool) "cache.l1.* recorded" true
    (counter m "cache.l1.hits" + counter m "cache.l1.misses" > 0)

let suite =
  [
    Alcotest.test_case "default scenario has no cache" `Quick
      test_default_has_no_cache;
    Alcotest.test_case "fig7 trial simulates no cache" `Quick
      test_fig7_trial_simulates_no_cache;
    Alcotest.test_case "E10 scenario simulates no cache" `Quick
      test_e10_scenario_simulates_no_cache;
    Alcotest.test_case "prime+probe cell fills the cache" `Quick
      test_prime_probe_cell_fills_cache;
  ]
