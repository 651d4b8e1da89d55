(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--expect-digest HEX] [--work-dir DIR]

   Set-up is timed in fresh child processes (process start to the first
   trial body). Then passes of the workload run back to back on one Runner
   domain until S seconds have passed (at least one pass); wall time is the
   median pass after the first, scaled to a reference host speed by the
   probes of calib.ml that run between trials. Every pass's output digest must equal the
   first pass's, the committed reference digests of seeds 42 and 7 are
   re-checked, and any
   exception or mismatch counts the pass's trials as failed. With --trace 1
   one more pass runs traced (spans plus metric capture) and the per-layer
   metrics are printed instead of the end-to-end ones. The last stdout line
   is the JSON result; the exit code is 0 only when every check passed. *)

module W = Workloads
module Json = Satin_obs.Json
module Runner = Satin_runner.Runner
module Stats = Satin_engine.Stats

let end_to_end =
  [
    ("wall_s", "s");
    ("sim_s_per_host_s", "s/s");
    ("setup_s", "s");
    ("minor_mw", "Mwords");
    ("peak_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("scenario.count", "count");
    ("scenario.create_s", "s");
    ("satin.install_s", "s");
    ("satin.rounds", "count");
    ("checker.scans", "count");
    ("checker.scan_mb", "MiB");
    ("scan.blocks_rehashed", "count");
    ("scan.blocks_cached", "count");
    ("scan.rehash_ratio", "ratio");
    ("engine.events", "count");
    ("engine.batch_mean", "events");
    ("engine.cascades", "count");
    ("sim.run_s", "s");
    ("sim.host_ns_per_event", "ns");
    ("sim.minor_words_per_event", "words");
    ("sched.dispatches", "count");
    ("sched.preemptions", "count");
    ("cache.l1_accesses", "count");
    ("cache.l1_miss_ratio", "ratio");
    ("cache.l2_misses", "count");
    ("cache.back_invalidations", "count");
    ("monitor.world_switches", "count");
    ("kprober.suspects", "count");
    ("evader.hides", "count");
    ("cache_prober.alarms", "count");
    ("store.writes", "count");
    ("store.capsule_writes", "count");
    ("store.cold_s", "s");
    ("store.replay_s", "s");
    ("store.replay_hit_ratio", "ratio");
    ("obs.capture_overhead_s", "s");
    ("runner.trials", "count");
    ("runner.trial_p50_s", "s");
    ("runner.trial_max_s", "s");
    ("report.render_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mw", "Mwords");
    ("trace.overhead_s", "s");
  ]

(* Child processes timed for setup_s; the median is reported. *)
let setup_probes = 9

type opts = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  size : W.size;
  expect : string option;
  work_dir : string;
  setup_probe : bool;
}

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let size_name = function W.Full -> "full" | W.Tiny -> "tiny"

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and size = ref W.Full and expect = ref None in
  let work_dir = ref "_perfbench" and setup_probe = ref false in
  let int_of name v =
    match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %S" name v
  in
  let rec go = function
    | [] -> ()
    | "--setup-probe" :: rest ->
        setup_probe := true;
        go rest
    | "--workload" :: v :: rest ->
        (match W.find v with
        | Some w -> workload := Some w
        | None ->
            die "unknown workload %S (known: %s)" v
              (String.concat ", " (List.map (fun w -> w.W.name) W.all)));
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int_of "--seconds" v in
        if s < 1 then die "--seconds must be at least 1";
        seconds := Some (float_of_int s);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> die "--trace takes 0 or 1");
        go rest
    | "--size" :: v :: rest ->
        (match v with
        | "full" -> size := W.Full
        | "tiny" -> size := W.Tiny
        | _ -> die "--size takes full or tiny");
        go rest
    | "--expect-digest" :: v :: rest ->
        expect := Some v;
        go rest
    | "--work-dir" :: v :: rest ->
        work_dir := v;
        go rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list argv));
  let need name = function Some v -> v | None -> die "missing %s" name in
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = (if !setup_probe then 1.0 else need "--seconds" !seconds);
    trace = (if !setup_probe then false else need "--trace" !trace);
    size = !size;
    expect = !expect;
    work_dir = !work_dir;
    setup_probe = !setup_probe;
  }

(* Everything a run does before its first trial body: the executable
   fingerprint digest (the identity stamped on every result), the work
   directory, and the workload's fixtures. Module initialisation has already
   happened by the time this runs. *)
let setup o =
  let fingerprint = Satin_store.Fingerprint.hex () in
  Satin_store.Store.mkdir_p o.work_dir;
  o.workload.W.fixtures ~work_dir:o.work_dir o.size;
  fingerprint

let time_setup o =
  let args =
    [|
      Sys.executable_name;
      "--setup-probe";
      "--workload";
      o.workload.W.name;
      "--seed";
      string_of_int o.seed;
      "--size";
      size_name o.size;
      "--work-dir";
      o.work_dir;
    |]
  in
  List.init setup_probes (fun _ ->
      let t0 = Unix.gettimeofday () in
      let pid =
        Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr
          Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      (Unix.gettimeofday () -. t0, status = Unix.WEXITED 0))

let median l =
  let s = Stats.create () in
  List.iter (Stats.add s) l;
  if Stats.is_empty s then nan else Stats.median s

(* One timed pass. [Gc.quick_stat] sums the allocation of every domain, so
   the counts stay whole if a pass ever runs wider than one domain. *)
type timed = {
  wall : float;
  cpu : float; (* user + system seconds of this process, probes included *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  probes : float list; (* host speed probe times, oldest first *)
  outcome : (W.pass, string) result;
}

let timed_pass f =
  let g0 = Gc.quick_stat () in
  let c0 = Unix.times () in
  ignore (Calib.take ());
  let t0 = Unix.gettimeofday () in
  let outcome =
    match f () with
    | p -> Ok p
    | exception W.Mismatch m -> Error m
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Unix.gettimeofday () in
  let c1 = Unix.times () in
  let g1 = Gc.quick_stat () in
  let inner, probe_s = Calib.take () in
  (* Every pass ends with a probe, so even a pass without ticks has one. *)
  Calib.tick ();
  let last, _ = Calib.take () in
  {
    wall = t1 -. t0 -. probe_s;
    cpu =
      c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime
      -. c0.Unix.tms_stime;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
    probes = inner @ last;
    outcome;
  }

let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail fmt =
  Printf.ksprintf (fun m ->
      failures := m :: !failures;
      prerr_endline ("perfbench: FAIL " ^ m))
    fmt

(* Count a pass's trials and check its digest against [expected]. *)
let account ~trials:n ~label ~expected t =
  attempted := !attempted + n;
  match t.outcome with
  | Error m ->
      failed := !failed + n;
      fail "%s raised: %s" label m
  | Ok p -> (
      match expected with
      | Some d when d <> p.W.digest ->
          failed := !failed + n;
          fail "%s digest %s, expected %s" label p.W.digest d
      | _ -> ())

let digest_of t = match t.outcome with Ok p -> Some p.W.digest | Error _ -> None

let run o =
  let w = o.workload in
  let probes = time_setup o in
  let fingerprint = setup o in
  if not (List.for_all snd probes) then begin
    incr attempted;
    incr failed;
    fail "a set-up probe process failed"
  end;
  let setup_s = median (List.map fst probes) in
  let pool = Runner.create ~jobs:1 () in
  let jobs_effective = Runner.effective_jobs pool in
  let pass ?(size = o.size) ?(library = false) ~seed ~traced () =
    w.W.run ~pool ~work_dir:o.work_dir size ~seed ~traced ~library
  in
  let reference size seed =
    Reference.find ~workload:w.W.name ~size:(size_name size) ~seed
  in
  let own_expected =
    match o.expect with
    | Some d -> Some d
    | None ->
        if List.mem o.seed Reference.seeds then reference o.size o.seed else None
  in
  let account_own = account ~trials:(w.W.trials o.size) in
  if o.expect = None && List.mem o.seed Reference.seeds && own_expected = None
  then fail "no committed reference digest for seed %d" o.seed;
  Calib.init ();
  Gc.full_major ();
  (* Measured passes: back to back until the time is spent. *)
  let t_start = Unix.gettimeofday () in
  let rec loop acc =
    if acc <> [] && Unix.gettimeofday () -. t_start >= o.seconds then List.rev acc
    else begin
      let t = timed_pass (pass ~library:(acc = []) ~seed:o.seed ~traced:false) in
      (* Without a committed digest, later passes must repeat the first. *)
      let expected =
        match (own_expected, List.rev acc) with
        | Some d, _ -> Some d
        | None, first :: _ -> digest_of first
        | None, [] -> None
      in
      account_own ~label:(Printf.sprintf "pass %d" (List.length acc + 1)) ~expected t;
      loop (t :: acc)
    end
  in
  let passes = loop [] in
  let first = List.hd passes in
  let untraced_digest = digest_of first in
  let ok_passes = List.filter_map (fun t -> Result.to_option t.outcome) passes in
  (* The first pass also grows the heap and pays first-touch page faults:
     it is the warm-up, and wall time is the median of the passes after it,
     each scaled to the reference host speed by the median of the probe
     times seen during it. Allocation and heap counts come from the first
     pass, where they repeat exactly. *)
  let timed_passes = match passes with _ :: (_ :: _ as rest) -> rest | l -> l in
  let raw_wall_s = median (List.map (fun t -> t.wall) timed_passes) in
  let wall_s =
    median
      (List.map (fun t -> t.wall *. Calib.reference_s /. median t.probes) timed_passes)
  in
  let host_speed = wall_s /. raw_wall_s in
  (* The traced pass: spans and metric capture on. *)
  let traced =
    if not o.trace then None
    else begin
      Tracer.reset ();
      Tracer.enabled := true;
      let t = timed_pass (pass ~seed:o.seed ~traced:true) in
      Tracer.enabled := false;
      account_own ~label:"traced pass"
        ~expected:(match untraced_digest with None -> own_expected | d -> d)
        t;
      Some t
    end
  in
  (* The tiny-size reference digests of seeds 42 and 7, whatever this run
     measured: a change to any simulated output shows on every run, not only
     on runs that happen to use a reference seed. *)
  let reference_digests =
    List.map
      (fun seed ->
        let d =
          if o.size = W.Tiny && seed = o.seed then untraced_digest
          else begin
            let expected = reference W.Tiny seed in
            if expected = None then
              fail "no committed reference digest for seed %d" seed;
            let t = timed_pass (pass ~size:W.Tiny ~seed ~traced:false) in
            account ~trials:(w.W.trials W.Tiny)
              ~label:(Printf.sprintf "tiny reference seed %d" seed)
              ~expected t;
            digest_of t
          end
        in
        (seed, d))
      Reference.seeds
  in
  let sim_s = match ok_passes with p :: _ -> p.W.sim_s | [] -> 0.0 in
  let e2e =
    [
      ("wall_s", wall_s);
      ("sim_s_per_host_s", sim_s /. wall_s);
      ("setup_s", setup_s);
      ("minor_mw", first.minor_words /. 1e6);
      ("peak_heap_mb", float_of_int first.top_heap_words *. 8.0 /. 1048576.0);
    ]
  in
  let layer_of_passes name =
    median
      (List.filter_map
         (fun t ->
           match t.outcome with
           | Ok p -> List.assoc_opt name p.W.layer
           | Error _ -> None)
         timed_passes)
  in
  let per_layer_values =
    match traced with
    | None -> []
    | Some t ->
        let layer name =
          match t.outcome with
          | Ok p -> Option.value ~default:0.0 (List.assoc_opt name p.W.layer)
          | Error _ -> 0.0
        in
        let c name = float_of_int (Tracer.counter name) in
        let ratio a b = if b = 0.0 then 0.0 else a /. b in
        let events = c "engine.events_fired" in
        let batches, batch_events = Tracer.histogram "engine.batch_size" in
        let _, cascades = Tracer.histogram "engine.cascades" in
        let _, scan_bytes = Tracer.histogram "checker.scan_bytes" in
        (* The simulation loop: run_for slices, or the whole trial where a
           workload calls its trial body as one unit. *)
        let sim_names = [ "sim.run_for"; "cache_fidelity_trial" ] in
        let sim_run_s = List.fold_left (fun a n -> a +. Tracer.total n) 0.0 sim_names in
        let sim_words =
          List.fold_left (fun a n -> a +. Tracer.total_minor_words n) 0.0 sim_names
        in
        let rehashed = c "scan.blocks_rehashed" and cached = c "scan.blocks_cached" in
        let l1 = c "cache.l1.hits" +. c "cache.l1.misses" in
        let trial_times = List.map Tracer.duration (Tracer.named "trial") in
        let storeless = layer_of_passes "e10.storeless_s" in
        let cold = layer_of_passes "store.cold_s" in
        [
          ("scenario.count", float_of_int (w.W.scenarios o.size));
          ("scenario.create_s", Tracer.total "scenario.create");
          ("satin.install_s", Tracer.total "satin.install");
          ("satin.rounds", c "satin.rounds");
          ("checker.scans", c "checker.scans");
          ("checker.scan_mb", scan_bytes /. 1048576.0);
          ("scan.blocks_rehashed", rehashed);
          ("scan.blocks_cached", cached);
          ("scan.rehash_ratio", ratio rehashed (rehashed +. cached));
          ("engine.events", events);
          ("engine.batch_mean", ratio batch_events (float_of_int batches));
          ("engine.cascades", cascades);
          ("sim.run_s", sim_run_s);
          ("sim.host_ns_per_event", ratio (sim_run_s *. 1e9) events);
          ("sim.minor_words_per_event", ratio sim_words events);
          ("sched.dispatches", c "sched.dispatches");
          ("sched.preemptions", c "sched.preemptions");
          ("cache.l1_accesses", l1);
          ("cache.l1_miss_ratio", ratio (c "cache.l1.misses") l1);
          ("cache.l2_misses", c "cache.l2.misses");
          ("cache.back_invalidations", c "cache.back_invalidations");
          ("monitor.world_switches", c "monitor.world_switches");
          ("kprober.suspects", c "kprober.suspects");
          ("evader.hides", c "evader.hides");
          ("cache_prober.alarms", layer "cache_prober.alarms");
          ("store.writes", layer "store.writes");
          ("store.capsule_writes", layer "store.capsule_writes");
          ("store.cold_s", Tracer.total "store.cold");
          ("store.replay_s", Tracer.total "store.replay");
          ("store.replay_hit_ratio", layer "store.replay_hit_ratio");
          ( "obs.capture_overhead_s",
            if Float.is_nan cold then 0.0 else cold -. storeless );
          ("runner.trials", float_of_int (w.W.trials o.size));
          ("runner.trial_p50_s", median trial_times);
          ("runner.trial_max_s", List.fold_left Float.max 0.0 trial_times);
          ("report.render_s", Tracer.total "report.render");
          ("gc.minor_collections", float_of_int first.minor_collections);
          ("gc.major_collections", float_of_int first.major_collections);
          ("gc.promoted_mw", first.promoted_words /. 1e6);
          ("trace.overhead_s", t.wall -. raw_wall_s);
        ]
  in
  if jobs_effective <> 1 then fail "jobs_effective is %d, not 1" jobs_effective;
  let shown, units =
    if o.trace then (per_layer_values, per_layer) else (e2e, end_to_end)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:nan (List.assoc_opt name shown) in
        (name, unit, v))
      units
  in
  let failed_frac =
    if !attempted = 0 then 1.0 else float_of_int !failed /. float_of_int !attempted
  in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "perfbench %s seed=%d size=%s trace=%d passes=%d jobs_effective=%d \
     host_cores=%d fingerprint=%s\n"
    w.W.name o.seed (size_name o.size)
    (if o.trace then 1 else 0)
    (List.length passes) jobs_effective host_cores fingerprint;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-28s %.6g %s\n" name v unit)
    metrics;
  Printf.printf "  %-28s %.6g fraction (%d of %d trials)\n" "failed_frac"
    failed_frac !failed !attempted;
  Printf.printf "  %-28s %.6g s (wall_s = this x host speed %.4g)\n"
    "unscaled wall_s" raw_wall_s host_speed;
  let model = match ok_passes with p :: _ -> p.W.model | [] -> [] in
  List.iter
    (fun m ->
      let field k =
        match Json.member k m with
        | Some (Json.String s) -> s
        | Some v -> Json.to_string v
        | None -> "?"
      in
      Printf.printf "  model error (ungated; unvalidated beyond this point): %s %s vs %s %s\n"
        (field "quantity") (field "measured") (field "source") (field "reference"))
    model;
  let show = Option.value ~default:"-" in
  Printf.printf "  digest seed %d %s: %s\n" o.seed (size_name o.size)
    (show untraced_digest);
  List.iter
    (fun (seed, d) -> Printf.printf "  digest seed %d tiny: %s\n" seed (show d))
    reference_digests;
  let result_json =
    Json.Obj
      [
        ("workload", Json.String w.W.name);
        ("seed", Json.Int o.seed);
        ("size", Json.String (size_name o.size));
        ("trace", Json.Bool o.trace);
        ("fingerprint", Json.String fingerprint);
        ("jobs_effective", Json.Int jobs_effective);
        ("host_cores", Json.Int host_cores);
        ("passes", Json.List (List.map (fun t -> Json.float t.wall) passes));
        ("passes_cpu_s", Json.List (List.map (fun t -> Json.float t.cpu) passes));
        ("raw_wall_s", Json.float raw_wall_s);
        ("host_speed", Json.float host_speed);
        ( "pass_layers",
          Json.List
            (List.map
               (fun t ->
                 match t.outcome with
                 | Ok p -> Json.Obj (List.map (fun (n, v) -> (n, Json.float v)) p.W.layer)
                 | Error _ -> Json.Null)
               passes) );
        ( "probes_s",
          Json.List (List.map (fun t -> Json.List (List.map Json.float t.probes)) passes) );
        ("setup_probes_s", Json.List (List.map (fun (s, _) -> Json.float s) probes));
        ("end_to_end", Json.Obj (List.map (fun (n, v) -> (n, Json.float v)) e2e));
        ("per_layer", Json.Obj (List.map (fun (n, v) -> (n, Json.float v)) per_layer_values));
        ("failed_frac", Json.float failed_frac);
        ("model_error", Json.List model);
        ( "digest",
          match untraced_digest with Some d -> Json.String d | None -> Json.Null );
        ( "tiny_reference_digests",
          Json.Obj
            (List.map
               (fun (s, d) ->
                 (string_of_int s, match d with Some d -> Json.String d | None -> Json.Null))
               reference_digests) );
        ("spans", Json.Obj (if o.trace then Tracer.summary () else []));
        ("failures", Json.List (List.rev_map (fun m -> Json.String m) !failures));
      ]
  in
  let stem =
    Filename.concat o.work_dir
      (Printf.sprintf "%s-seed%d-%s-trace%d" w.W.name o.seed (size_name o.size)
         (if o.trace then 1 else 0))
  in
  let write path j =
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string j);
        output_char oc '\n')
  in
  write (stem ^ ".result.json") result_json;
  if o.trace then write (stem ^ ".trace.json") (Tracer.chrome_json ());
  let correct = !failed = 0 && !failures = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)

let () =
  let o = parse Sys.argv in
  if o.setup_probe then begin
    ignore (setup o);
    exit 0
  end;
  run o
