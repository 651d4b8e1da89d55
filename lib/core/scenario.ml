module Engine = Satin_engine.Engine
module Sim_time = Satin_engine.Sim_time
module Platform = Satin_hw.Platform
module Obs = Satin_obs.Obs

type t = {
  platform : Platform.t;
  kernel : Satin_kernel.Kernel.t;
  tsp : Satin_tz.Tsp.t;
  secure_memory : Satin_tz.Secure_memory.t;
  checker : Satin_introspect.Checker.t;
  sanitizer : Satin_inject.Sanitizer.t option;
}

(* The secure carve-out sits well above the ~13.4 MiB end of the kernel
   image within the 32 MiB simulated DRAM. *)
let secure_base = 24 * 1024 * 1024
let secure_size = 1024 * 1024

let create ?(seed = 42) ?cycle ?cache ?layout
    ?(algo = Satin_introspect.Hash.Djb2)
    ?(style = Satin_introspect.Checker.Direct_hash) () =
  let platform = Platform.juno_r1 ~seed ?cycle ?cache () in
  (* The engine observer and the core tracks belong to the calling
     domain's observability state, if it has one. *)
  if Obs.active () then begin
    Obs.attach_engine platform.Platform.engine;
    Array.iter
      (fun cpu ->
        Obs.name_track (Satin_hw.Cpu.id cpu)
          (Printf.sprintf "core %d (%s)" (Satin_hw.Cpu.id cpu)
             (Satin_hw.Cycle_model.core_type_to_string
                (Satin_hw.Cpu.core_type cpu))))
      platform.Platform.cores
  end;
  let kernel = Satin_kernel.Kernel.boot ?layout platform in
  let tsp = Satin_tz.Tsp.install platform in
  let secure_memory =
    Satin_tz.Secure_memory.create ~memory:platform.Platform.memory
      ~base:secure_base ~size:secure_size
  in
  let checker =
    Satin_introspect.Checker.create ?cache:platform.Platform.cache
      ~memory:platform.Platform.memory ~cycle:platform.Platform.cycle
      ~prng:(Platform.split_prng platform) ~algo ~style ()
  in
  (* Under --check, every scenario carries its own sanitizer instance
     (domain-confined; aggregates are global atomics), chained after any
     observer the obs layer installed above. *)
  let sanitizer =
    if Satin_inject.Sanitizer.check_mode () then
      Some
        (Satin_inject.Sanitizer.attach
           ~name:(Printf.sprintf "scenario seed=%d" seed)
           ~sched:kernel.Satin_kernel.Kernel.sched platform.Platform.engine)
    else None
  in
  { platform; kernel; tsp; secure_memory; checker; sanitizer }

let engine t = t.platform.Platform.engine
let now t = Engine.now (engine t)
let run_until t time =
  Engine.run_until (engine t) time;
  (* One full sweep per run call: short scenarios never reach the sampled
     cadence, and corruption introduced after the last sampled event must
     still be caught (the sweep is a pure read at a deterministic instant,
     so results stay byte-identical at any jobs width). *)
  match t.sanitizer with
  | Some s -> ignore (Satin_inject.Sanitizer.check_now s)
  | None -> ()

let run_for t d = run_until t (Sim_time.add (now t) d)

let install_satin t ?(config = Satin_introspect.Satin.default_config) () =
  let satin =
    Satin_introspect.Satin.install ~tsp:t.tsp ~kernel:t.kernel ~checker:t.checker
      ~secure_memory:t.secure_memory config
  in
  Satin_introspect.Satin.start satin;
  satin

let install_baseline t config =
  let b =
    Satin_introspect.Baseline.install ~tsp:t.tsp ~kernel:t.kernel
      ~checker:t.checker config
  in
  Satin_introspect.Baseline.start b;
  b
