module Runner = Satin_runner.Runner
module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module E = Experiment
module S = Summary

type output = {
  views : (string * (Format.formatter -> unit)) list;
  summary : Json.t;
}

type t = {
  name : string;
  doc : string;
  also : (string * string) list;
  seeded : bool;
  in_all : bool;
  run : pool:Runner.t -> seed:int -> quick:bool -> output;
}

(* [run] computes the result once; every view and the summary read it. *)
let make ~seeded ?(in_all = true) ?(also = []) name doc run print summary =
  {
    name;
    doc;
    also = List.map (fun (n, d, _) -> (n, d)) also;
    seeded;
    in_all;
    run =
      (fun ~pool ~seed ~quick ->
        let r = run ~pool ~seed ~quick in
        let view print fmt = print fmt r in
        {
          views =
            (name, view print) :: List.map (fun (n, _, p) -> (n, view p)) also;
          summary = summary r;
        });
  }

(* A seeded entry's profile is the argument its runner takes: [full] is
   the paper-scale campaign (each [run_*] default), [quick] the CI-speed
   one. *)
let seeded ?in_all ?also name doc ~full ~quick run =
  make ~seeded:true ?in_all ?also name doc (fun ~pool ~seed ~quick:q ->
      run ~pool ~seed (if q then quick else full))

let closed name doc run =
  make ~seeded:false name doc (fun ~pool:_ ~seed:_ ~quick:_ -> run ())

let entries =
  [
    seeded "e1" "World-switch latency (Sec IV-B1)" ~full:() ~quick:()
      (fun ~pool ~seed () -> E.run_e1 ~pool ~seed ())
      E.print_e1 S.e1;
    seeded "table1" "Table I: per-byte introspection cost" ~full:() ~quick:()
      (fun ~pool ~seed () -> E.run_table1 ~pool ~seed ())
      E.print_table1 S.table1;
    seeded "uprober" "User-level prober responsiveness (Sec III-B1)" ~full:20
      ~quick:6
      (fun ~pool ~seed trials -> E.run_uprober ~pool ~seed ~trials ())
      E.print_uprober S.uprober;
    seeded "e3" "Attacker recovery time (Sec IV-B2)" ~full:50 ~quick:10
      (fun ~pool ~seed runs -> E.run_e3 ~pool ~seed ~runs ())
      E.print_e3 S.e3;
    seeded "table2" "Table II: probing threshold vs period"
      ~also:[ ("fig4", "Figure 4: probing threshold stability", E.print_fig4) ]
      ~full:50 ~quick:15
      (fun ~pool ~seed rounds -> E.run_table2 ~pool ~seed ~rounds ())
      E.print_table2 S.table2;
    seeded "e6" "Single-core vs all-core probing" ~full:50 ~quick:15
      (fun ~pool ~seed rounds -> E.run_e6 ~pool ~seed ~rounds ())
      E.print_e6 S.e6;
    closed "race" "Sec IV-C race-condition analysis" E.run_e7 E.print_e7 S.e7;
    closed "timeline" "Figure 3: two-world race timeline"
      (fun () -> Race.paper_worst_case)
      E.print_timeline S.timeline;
    seeded "evasion" "E8: TZ-Evader vs PKM-style introspection" ~full:400
      ~quick:120
      (fun ~pool ~seed duration_s -> E.run_e8 ~pool ~seed ~duration_s ())
      E.print_e8 S.e8;
    closed "areas" "E9: kernel area partition" E.run_e9 E.print_e9 S.e9;
    seeded "satin-detect" "E10: SATIN detecting TZ-Evader (Sec VI-B1)"
      ~full:190 ~quick:57
      (fun ~pool:_ ~seed target_rounds -> E.run_e10 ~seed ~target_rounds ())
      E.print_e10 S.e10;
    seeded "fig7" "Figure 7: SATIN overhead on UnixBench" ~full:30 ~quick:8
      (fun ~pool ~seed window_s -> E.run_fig7 ~pool ~seed ~window_s ())
      E.print_fig7 S.fig7;
    seeded "ablation" "SATIN randomization ablation" ~full:3 ~quick:1
      (fun ~pool ~seed passes -> E.run_ablation ~pool ~seed ~passes ())
      E.print_ablation S.ablation;
    seeded "dkom" "E13: cross-view detection of DKOM process hiding" ~full:30
      ~quick:10
      (fun ~pool:_ ~seed checks -> E.run_e13 ~seed ~checks ())
      E.print_e13 S.e13;
    seeded "cache-channel" "E14: SATIN vs the cache-occupancy side channel"
      ~full:3 ~quick:1
      (fun ~pool:_ ~seed passes -> E.run_e14 ~seed ~passes ())
      E.print_e14 S.e14;
    seeded "cache-fidelity"
      "Side-channel fidelity grid: prober mode x replacement policy x AutoLock"
      ~full:(2, 10) ~quick:(1, 6)
      (fun ~pool ~seed (trials, window_s) ->
        E.run_cache_fidelity ~pool ~seed ~trials ~window_s ())
      E.print_cache_fidelity S.cache_fidelity;
    seeded "sweep" "Tgoal coverage/overhead sweep"
      ~full:(4, [ 0.5; 1.0; 2.0; 4.0 ])
      ~quick:(2, [ 1.0; 4.0 ])
      (fun ~pool ~seed (trials, tps_s) ->
        E.run_tgoal_sweep ~pool ~seed ~trials ~tps_s ())
      E.print_tgoal_sweep S.sweep;
    seeded "inject" "Fault injection: SATIN detection rate per fault plan"
      ~full:(4, 30) ~quick:(2, 25)
      (fun ~pool ~seed (trials, window_s) ->
        E.run_inject ~pool ~seed ~trials ~window_s ())
      E.print_inject S.inject;
    seeded "degrade" "Graceful degradation vs secure-timer drop severity"
      ~full:(4, 30) ~quick:(2, 25)
      (fun ~pool ~seed (trials, window_s) ->
        E.run_degrade ~pool ~seed ~trials ~window_s ())
      E.print_degrade S.degrade;
    seeded ~in_all:false "fleet"
      "Fleet: per-device detection & overhead sweep" ~full:(240, 20)
      ~quick:(16, 10)
      (fun ~pool ~seed (devices, window_s) ->
        E.run_fleet ~pool ~seed ~devices ~window_s ())
      E.print_fleet S.fleet;
  ]

let views e = e.name :: List.map fst e.also
let names = List.concat_map views entries

let run ?(pool = Runner.sequential) ?(seed = 42) ?(quick = false) name =
  match List.find_opt (fun e -> List.mem name (views e)) entries with
  | Some e -> e.run ~pool ~seed ~quick
  | None -> invalid_arg ("Registry.run: unknown experiment " ^ name)

let run_view ?pool ?seed ?quick fmt name =
  let out = run ?pool ?seed ?quick name in
  List.assoc name out.views fmt;
  out.summary

(* Wall-clock goes to the segregated real-time registry only — never into
   the report or the deterministic --metrics export — so pooled and
   sequential runs stay byte-identical. *)
let run_all ?(pool = Runner.sequential) ?(seed = 42) ?(quick = false) fmt =
  List.iter
    (fun e ->
      if e.in_all then begin
        let t0 = Unix.gettimeofday () in
        let out = e.run ~pool ~seed ~quick in
        Obs.observe_wall "experiment.wall_s"
          ~labels:[ ("experiment", e.name) ]
          (Unix.gettimeofday () -. t0);
        List.iter (fun (_, print) -> print fmt) out.views
      end)
    entries
