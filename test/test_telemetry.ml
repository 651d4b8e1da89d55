(* Campaign telemetry: capsule persistence through Memo, aggregation into
   byte-stable reports, OpenMetrics export, and the regression gate. *)

module Key = Satin_store.Key
module Store = Satin_store.Store
module Memo = Satin_store.Memo
module Telemetry = Satin_store.Telemetry
module Runner = Satin_runner.Runner
module Obs = Satin_obs.Obs
module Json = Satin_obs.Json
module Metrics = Satin_obs.Metrics
module Capsule = Satin_obs.Capsule
module Stats = Satin_engine.Stats

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "satin_telemetry_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (match Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) with
    | 0 -> ()
    | _ -> ());
    dir

let with_store dir f =
  let s = Store.open_ dir in
  Store.install s;
  Fun.protect ~finally:Store.uninstall (fun () -> f s)

(* A synthetic trial that fills all three series kinds. Memo wraps each
   trial in [Obs.with_capture], so these hooks land in the capsule even
   with no sink installed. *)
let trial i =
  Obs.incr ~by:(i + 1) "t.work";
  Obs.incr ~labels:[ ("core", string_of_int (i mod 2)) ] "t.core_hits";
  Obs.set_gauge "t.depth" (float_of_int i);
  Obs.observe "t.lat" (float_of_int i +. 0.5);
  Obs.observe "t.lat" (float_of_int i +. 1.5);
  i * 2

let run_campaign pool dir =
  with_store dir (fun s ->
      let r =
        Memo.map pool ~experiment:"tele" ~seed:42
          ~config:[ ("n", "8") ]
          8 trial
      in
      (r, Store.counters s))

let report_strings dir =
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Telemetry.print_table fmt r;
      Format.pp_print_flush fmt ();
      (Buffer.contents buf, Json.to_string (Telemetry.to_json r))

let test_memo_persists_and_replays_capsules () =
  let dir = tmp_dir () in
  let cold, c1 = run_campaign Runner.sequential dir in
  Alcotest.(check int) "cold: capsule per trial" 8 c1.Store.capsule_writes;
  Alcotest.(check int) "cold: no capsule hits" 0 c1.Store.capsule_hits;
  let warm, c2 = run_campaign Runner.sequential dir in
  Alcotest.(check int) "warm: every capsule consulted" 8
    c2.Store.capsule_hits;
  Alcotest.(check int) "warm: none missing" 0 c2.Store.capsule_misses;
  Alcotest.(check int) "warm: nothing rewritten" 0 c2.Store.capsule_writes;
  Alcotest.(check bool) "results identical" true (cold = warm)

let test_report_byte_stable_across_jobs_and_warmth () =
  let dir1 = tmp_dir () and dir4 = tmp_dir () in
  ignore (run_campaign Runner.sequential dir1);
  ignore (run_campaign (Runner.create ~clamp:false ~jobs:4 ()) dir4);
  let t1, j1 = report_strings dir1 in
  let t4, j4 = report_strings dir4 in
  Alcotest.(check string) "table: jobs 1 = jobs 4" t1 t4;
  Alcotest.(check string) "json: jobs 1 = jobs 4" j1 j4;
  (* a warm re-run adds no capsules and must not perturb the report *)
  ignore (run_campaign Runner.sequential dir1);
  let t1', j1' = report_strings dir1 in
  Alcotest.(check string) "table: cold = warm" t1 t1';
  Alcotest.(check string) "json: cold = warm" j1 j1'

let test_collect_aggregates_exactly () =
  let dir = tmp_dir () in
  ignore (run_campaign Runner.sequential dir);
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      Alcotest.(check int) "all trials absorbed" 8 r.Telemetry.trials;
      Alcotest.(check int) "none skipped" 0 r.Telemetry.skipped;
      match r.Telemetry.experiments with
      | [ ("tele", agg) ] -> (
          Alcotest.(check int) "experiment trials" 8 agg.Telemetry.exp_trials;
          (* counters sum exactly: 1+2+...+8 *)
          (match List.assoc_opt ("t.work", []) agg.Telemetry.series with
          | Some (Telemetry.Total (total, dist)) ->
              Alcotest.(check int) "exact counter total" 36 total;
              Alcotest.(check int) "per-trial distribution" 8
                (Telemetry.Histogram.count dist)
          | _ -> Alcotest.fail "t.work missing or wrong kind");
          (* labelled counter series stay distinct *)
          (match
             List.assoc_opt ("t.core_hits", [ ("core", "0") ])
               agg.Telemetry.series
           with
          | Some (Telemetry.Total (total, _)) ->
              Alcotest.(check int) "core=0 hits" 4 total
          | _ -> Alcotest.fail "labelled series missing");
          (* histograms merge the full sample population *)
          match List.assoc_opt ("t.lat", []) agg.Telemetry.series with
          | Some (Telemetry.Merged h) ->
              Alcotest.(check int) "16 latency samples" 16
                (Telemetry.Histogram.count h);
              Alcotest.(check (float 0.0)) "exact min" 0.5
                (Telemetry.Histogram.min h);
              Alcotest.(check (float 0.0)) "exact max" 8.5
                (Telemetry.Histogram.max h)
          | _ -> Alcotest.fail "t.lat missing or wrong kind")
      | l ->
          Alcotest.failf "expected one experiment, got %d" (List.length l))

let test_openmetrics_shape () =
  let dir = tmp_dir () in
  ignore (run_campaign Runner.sequential dir);
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let om = Telemetry.to_openmetrics r in
      let ends_with suffix =
        let ls = String.length suffix and l = String.length om in
        l >= ls && String.sub om (l - ls) ls = suffix
      in
      Alcotest.(check bool) "terminated by # EOF" true (ends_with "# EOF\n");
      let contains needle =
        let lh = String.length om and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub om i ln = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "counter family mangled + _total" true
        (contains "satin_t_work_total{");
      Alcotest.(check bool) "summary quantiles present" true
        (contains "quantile=\"0.99\"");
      Alcotest.(check bool) "type metadata present" true (contains "# TYPE ")

(* ---- gate ---- *)

let doc fields =
  Json.Obj
    (("identity", Json.Obj [ ("config_hash", Json.String "abc") ]) :: fields)

let gate ?threshold ~baseline ~current () =
  match Telemetry.gate ?threshold ~baseline ~current () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_gate_directions_and_threshold () =
  let base =
    doc
      [
        ("p50", Json.Float 1.0);
        ("events_per_s", Json.Float 100.0);
        ("label", Json.String "not numeric");
      ]
  in
  let same = gate ~baseline:base ~current:base () in
  Alcotest.(check int) "both tracked paths compared" 2 same.Telemetry.compared;
  Alcotest.(check int) "self-compare passes" 0
    (List.length same.Telemetry.regressions);
  (* both directions regress when moving the wrong way *)
  let worse =
    doc [ ("p50", Json.Float 1.2); ("events_per_s", Json.Float 80.0) ]
  in
  let r = gate ~baseline:base ~current:worse () in
  Alcotest.(check int) "both regressions caught" 2
    (List.length r.Telemetry.regressions);
  (* improvements in either direction never fail *)
  let better =
    doc [ ("p50", Json.Float 0.5); ("events_per_s", Json.Float 200.0) ]
  in
  Alcotest.(check int) "improvements pass" 0
    (List.length (gate ~baseline:base ~current:better ()).Telemetry.regressions);
  (* the threshold is relative: +5% passes at 0.10, fails at 0.01 *)
  let slight =
    doc [ ("p50", Json.Float 1.05); ("events_per_s", Json.Float 100.0) ]
  in
  Alcotest.(check int) "within default threshold" 0
    (List.length (gate ~baseline:base ~current:slight ()).Telemetry.regressions);
  Alcotest.(check int) "beyond tight threshold" 1
    (List.length
       (gate ~threshold:0.01 ~baseline:base ~current:slight ())
         .Telemetry.regressions);
  (* vanished paths are reported as missing, not as regressions *)
  let partial = doc [ ("p50", Json.Float 1.0) ] in
  let m = gate ~baseline:base ~current:partial () in
  Alcotest.(check (list string)) "missing path listed" [ "events_per_s" ]
    m.Telemetry.missing;
  Alcotest.(check int) "no false regression" 0
    (List.length m.Telemetry.regressions)

let test_gate_refuses_config_mismatch () =
  let a = doc [ ("p50", Json.Float 1.0) ] in
  let b =
    Json.Obj
      [
        ("identity", Json.Obj [ ("config_hash", Json.String "zzz") ]);
        ("p50", Json.Float 1.0);
      ]
  in
  match Telemetry.gate ~baseline:a ~current:b () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched config_hash accepted"

let test_gate_ignores_fingerprints () =
  (* Fingerprints change every build; the gate must neither compare them
     nor fail when they differ. *)
  let mk fp =
    Json.Obj
      [
        ( "identity",
          Json.Obj
            [
              ("fingerprint", Json.String fp);
              ("config_hash", Json.String "abc");
            ] );
        ("p50", Json.Float 1.0);
      ]
  in
  let r = gate ~baseline:(mk (String.make 32 'a')) ~current:(mk (String.make 32 'b')) () in
  Alcotest.(check int) "clean pass across builds" 0
    (List.length r.Telemetry.regressions);
  Alcotest.(check (list string)) "no missing paths" [] r.Telemetry.missing

let test_gate_fails_on_injected_regression () =
  (* The acceptance scenario: aggregate a real campaign store, export it,
     inject a synthetic slowdown into every p50/p90/p99, and require the
     gate to fail. *)
  let dir = tmp_dir () in
  ignore (run_campaign Runner.sequential dir);
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let baseline = Telemetry.to_json r in
      let rec inflate = function
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   match (k, v) with
                   | ("p50" | "p90" | "p99"), Json.Float x ->
                       (k, Json.Float (x *. 10.0))
                   | ("p50" | "p90" | "p99"), Json.Int n ->
                       (k, Json.Int (n * 10))
                   | _ -> (k, inflate v))
                 fields)
        | Json.List l -> Json.List (List.map inflate l)
        | v -> v
      in
      let current = inflate baseline in
      Alcotest.(check bool) "perturbation changed the document" true
        (current <> baseline);
      (match Telemetry.gate ~baseline ~current () with
      | Error e -> Alcotest.fail e
      | Ok g ->
          Alcotest.(check bool) "regressions detected" true
            (g.Telemetry.regressions <> []));
      (* and the unperturbed export gates cleanly against itself *)
      match Telemetry.gate ~baseline ~current:baseline () with
      | Error e -> Alcotest.fail e
      | Ok g ->
          Alcotest.(check int) "self-gate passes" 0
            (List.length g.Telemetry.regressions)

(* ---- corruption ---- *)

let find_capsule_files dir =
  let rec walk acc p =
    if Sys.is_directory p then
      Array.fold_left (fun acc f -> walk acc (Filename.concat p f)) acc
        (Sys.readdir p)
    else if Filename.check_suffix p ".cap" then p :: acc
    else acc
  in
  walk [] (Filename.concat dir "capsules")

let test_corrupt_capsule_quarantined () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  let key = Key.make ~experiment:"c" ~seed:1 ~trial_index:0 () in
  Store.add_capsule s ~key ~experiment:"c" "{\"payload\":true}";
  (match find_capsule_files dir with
  | [ path ] ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len |> Bytes.of_string in
      close_in ic;
      let pos = len - 1 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc
  | files ->
      Alcotest.failf "expected exactly one capsule file, found %d"
        (List.length files));
  Alcotest.(check (option string)) "corrupt capsule not served" None
    (Store.find_capsule s ~key);
  Alcotest.(check int) "counted as corrupt" 1 (Store.counters s).Store.corrupt;
  Alcotest.(check int) "no live capsule files" 0
    (List.length (find_capsule_files dir));
  let quarantined =
    Array.to_list (Sys.readdir (Filename.concat dir "quarantine"))
  in
  Alcotest.(check bool) "quarantine holds a .cap" true
    (List.exists (fun f -> Filename.check_suffix f ".cap") quarantined)

let test_collect_skips_corrupt_capsules () =
  let dir = tmp_dir () in
  ignore (run_campaign Runner.sequential dir);
  (* flip a bit in one capsule; collect must absorb the other seven *)
  (match find_capsule_files dir with
  | path :: _ ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len |> Bytes.of_string in
      close_in ic;
      Bytes.set bytes (len - 1)
        (Char.chr (Char.code (Bytes.get bytes (len - 1)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc
  | [] -> Alcotest.fail "no capsule files written");
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check int) "seven survivors" 7 r.Telemetry.trials

(* A store-backed fan-out under an observability state: the state's
   trial-level counters are exactly the sum of the sealed capsules', at
   any width — each capsule's samples reach the state once. *)
let test_sink_equals_capsule_sum () =
  let trial_series =
    [
      ("t.work", []);
      ("t.core_hits", [ ("core", "0") ]);
      ("t.core_hits", [ ("core", "1") ]);
    ]
  in
  let check_width jobs =
    let dir = tmp_dir () in
    let obs = Obs.create () in
    Obs.install obs;
    Fun.protect ~finally:Obs.uninstall (fun () ->
        ignore (run_campaign (Runner.create ~clamp:false ~jobs ()) dir));
    let capsule_sum (name, labels) =
      Store.fold_capsules (Store.open_ dir) ~init:0
        ~f:(fun acc ~key:_ ~experiment:_ payload ->
          match Capsule.of_string payload with
          | Error e -> Alcotest.fail e
          | Ok c ->
              List.fold_left
                (fun acc (n, l, v) ->
                  match v with
                  | Capsule.Counter k when n = name && l = labels -> acc + k
                  | _ -> acc)
                acc c.Capsule.series)
    in
    List.iter
      (fun ((name, labels) as series) ->
        Alcotest.(check (option int))
          (Printf.sprintf "jobs %d: %s = capsule sum" jobs name)
          (Some (capsule_sum series))
          (Metrics.counter_value (Obs.metrics obs) ~labels name))
      trial_series;
    match
      Metrics.histogram_stats (Obs.wall_metrics obs) "runner.jobs_effective"
    with
    | Some st ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "jobs %d: dispatch width" jobs)
          (float_of_int jobs) (Stats.max st)
    | None -> Alcotest.fail "runner.jobs_effective not recorded"
  in
  check_width 1;
  check_width 4

let test_collect_empty_store_errors () =
  let dir = tmp_dir () in
  let s = Store.open_ dir in
  match Telemetry.collect s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty store produced a report"

let suite =
  [
    Alcotest.test_case "memo persists + replays capsules" `Quick
      test_memo_persists_and_replays_capsules;
    Alcotest.test_case "report byte-stable (jobs, warmth)" `Quick
      test_report_byte_stable_across_jobs_and_warmth;
    Alcotest.test_case "collect aggregates exactly" `Quick
      test_collect_aggregates_exactly;
    Alcotest.test_case "openmetrics shape" `Quick test_openmetrics_shape;
    Alcotest.test_case "gate directions + threshold" `Quick
      test_gate_directions_and_threshold;
    Alcotest.test_case "gate refuses config mismatch" `Quick
      test_gate_refuses_config_mismatch;
    Alcotest.test_case "gate ignores fingerprints" `Quick
      test_gate_ignores_fingerprints;
    Alcotest.test_case "gate fails on injected regression" `Quick
      test_gate_fails_on_injected_regression;
    Alcotest.test_case "corrupt capsule quarantined" `Quick
      test_corrupt_capsule_quarantined;
    Alcotest.test_case "collect skips corrupt capsules" `Quick
      test_collect_skips_corrupt_capsules;
    Alcotest.test_case "collect on empty store errors" `Quick
      test_collect_empty_store_errors;
    Alcotest.test_case "sink totals = capsule sum (jobs 1, 4)" `Quick
      test_sink_equals_capsule_sum;
  ]
