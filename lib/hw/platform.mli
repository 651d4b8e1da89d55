(** Machine assembly.

    A platform bundles the simulation engine, the deterministic PRNG, the
    timing model, physical memory, the CPU cores, the interrupt controller,
    per-core secure and non-secure timers, and the EL3 monitor. {!juno_r1}
    builds the paper's evaluation board: four Cortex-A53 cores (ids 0–3) and
    two Cortex-A57 cores (ids 4–5). *)

type t = {
  engine : Satin_engine.Engine.t;
  prng : Satin_engine.Prng.t;
  cycle : Cycle_model.t;
  memory : Memory.t;
  cores : Cpu.t array;
  gic : Gic.t;
  secure_timers : Timer.t array;
      (** Per-core [CNTPS] secure physical timer, wired to
          {!secure_timer_irq}. *)
  tick_timers : Timer.t array;
      (** Per-core [CNTP] non-secure timer, wired to {!tick_irq}; the rich
          OS programs these for its scheduling clock. *)
  monitor : Monitor.t;
  clusters : int array array;
      (** cluster index -> member core ids: maximal runs of consecutive
          same-type cores (the Juno's per-cluster shared L2 layout) *)
  cache : Satin_cache.Cache.t option;
      (** the modeled L1/L2 hierarchy over {!clusters}, iff requested *)
}

val secure_timer_irq : Gic.irq
(** PPI 29, Group 0 (secure). *)

val tick_irq : Gic.irq
(** PPI 30, Group 1 (non-secure). *)

val create :
  ?seed:int ->
  ?cycle:Cycle_model.t ->
  ?mem_size:int ->
  ?cache:Satin_cache.Cache.config ->
  core_types:Cycle_model.core_type array ->
  unit ->
  t
(** Default memory size is 32 MiB — comfortably above the 11.4 MiB kernel
    image plus secure carve-out. Default seed is 42. Omit [?cache] and
    there is no cache model; pass a geometry (e.g.
    {!Satin_cache.Cache.default_config}) to get one. The cache's randomness
    (drawn only under the [Rand] policy) comes from a stream derived purely
    from the seed, never from the platform PRNG. *)

val juno_r1 :
  ?seed:int -> ?cycle:Cycle_model.t -> ?cache:Satin_cache.Cache.config ->
  unit -> t

val ncores : t -> int
val core : t -> int -> Cpu.t
val split_prng : t -> Satin_engine.Prng.t
(** A PRNG stream independent of the platform's own. *)

val clusters_of_core_types : Cycle_model.core_type array -> int array array
(** Maximal runs of consecutive equal core types, as core-id arrays. *)

val clusters : t -> int array array

val cluster_of_core : t -> core:int -> int
(** The cluster whose L2 [core] shares — derived from the computed
    topology, valid on any core mix (not just the Juno's 4+4). *)

val cores_of_type : t -> Cycle_model.core_type -> Cpu.t list
