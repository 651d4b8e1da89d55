(** Cache-aware trial fan-out: {!Satin_runner.Runner.map_cached} wired to
    the ambient {!Store}.

    [map pool ~experiment ~seed ?config ?trial_config n f] is
    observationally [Runner.map pool n f] — same results, same submission
    order, same lowest-index failure — but when a store is installed
    ({!Store.install}), each trial [i] is first looked up under
    [Key.make ~experiment ~seed ~trial_index:i ~config:(config @
    trial_config i)]; only the misses are dispatched to the Domain pool,
    and each miss is persisted the moment its trial body returns (on
    whichever domain ran it), so an interrupted campaign resumes from the
    completed trials. Results are byte-identical at any pool width, warm
    or cold: hits deserialize to exactly the bytes the trial body produced
    (binary-pinned by the key's fingerprint), and misses run the unchanged
    body.

    When the run keeps a trace, every lookup emits a span on the
    dedicated store track ([store.hit]/[store.miss], with the experiment,
    trial index, and key as args) — the cache's contribution to a trial
    is visible in the Perfetto export next to the simulation lanes.

    {2 Metric capsules}

    With a store installed, every computed trial body runs inside
    {!Satin_obs.Obs.with_capture}: its metrics registry is sealed into a
    {!Satin_obs.Capsule.t} (stamped with the experiment, seed, trial
    index, binary fingerprint, and the full config — ambient context under
    its ["ctx:"] namespace) and persisted beside the result via
    {!Store.add_capsule}, on whichever domain ran the trial. Warm hits
    replay the persisted capsule instead of recomputing anything. The
    [telemetry] subcommand aggregates these capsules; the live
    {!Satin_obs.Progress} reporter, when installed, is fed every sealed or
    replayed capsule (and captures even without a store, so heartbeats can
    quote p50s on store-less runs). *)

module Runner = Satin_runner.Runner

val store_track : int
(** Trace track carrying the per-trial cache spans. *)

val map :
  Runner.t ->
  experiment:string ->
  seed:int ->
  ?config:Key.config ->
  ?trial_config:(int -> Key.config) ->
  int ->
  (int -> 'a) ->
  'a array
(** [config] holds parameters shared by the whole fan-out, [trial_config]
    the per-trial ones (probing period, fault plan, ...). With no ambient
    store this is exactly [Runner.map]. *)

(** {2 Sharding}

    With {!set_shard} [(Some (i, n))] and an ambient store, [map]
    partitions each fan-out across [n] cooperating processes: trial [t]
    is {e owned} by shard [(t + Hashtbl.hash (experiment, seed)) mod n]
    (the hash rotation spreads single-trial fan-outs across the fleet).
    A shard claims and computes its owned misses through the pool, then
    waits for the remaining trials to be published by their owners —
    polling the store and stealing any trial whose lease ({!Store.try_claim})
    is stale, or that was never claimed within one lease TTL of the wait
    starting. Every shard therefore returns the {e full} result array,
    byte-identical to an unsharded run: trials are pure in their key, so
    even a duplicated computation (two workers racing a stale lease)
    rewrites identical bytes. *)

val set_shard : (int * int) option -> unit
(** [set_shard (Some (i, n))] makes subsequent [map] calls run as shard
    [i] of [n]; [None] (the default) and [n = 1] restore the unsharded
    path. Raises [Invalid_argument] unless [0 <= i < n]. Ignored while no
    store is installed. *)

val shard : unit -> (int * int) option

val set_lease_ttl : float -> unit
(** Seconds a trial claim protects its owner before peers may steal it
    (default 60). Also the grace a waiting shard extends to owners that
    have not yet claimed a trial at all. Raises [Invalid_argument] on a
    non-positive value. *)

val lease_ttl : unit -> float
