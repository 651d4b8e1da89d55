(** Observability facade: the state the instrumentation hooks talk to.

    The simulation layers (engine, monitor, scheduler, defenses, attacks)
    are instrumented with calls into this module. Each domain records into
    its own state — a metrics registry, a trace buffer when a trace was
    asked for, and a horizon — held in a [Domain.DLS] slot rather than
    threaded through every constructor: simulated components are built
    deep inside experiment runners. With no state set on any domain — the
    default — every hook costs one atomic load and returns, so experiments
    pay nothing for the instrumentation. Timestamps are always supplied by
    the caller from its engine clock, so one state serves any number of
    scenarios.

    States nest. {!with_capture} runs a body under a fresh child state and
    folds the child into its parent afterwards; [Runner.map] gives each
    trial its own child and folds them back in trial order after the
    batch. Either way the parent ends up holding exactly what recording
    straight into it on one domain would have produced, so the
    [--trace]/[--metrics] exports are the same at any [--jobs] width. *)

type t

val create : ?trace:bool -> unit -> t
(** A fresh state. [~trace:false] keeps no trace buffer: span hooks still
    move the horizon but record nothing, and {!trace_json} is empty.
    Default [true]. *)

val metrics : t -> Metrics.t

val wall_metrics : t -> Metrics.t
(** The real-time registry: host wall-clock measurements
    ([runner.batch_wall_s], [runner.domain_trials], [experiment.wall_s])
    land here, segregated from {!metrics} so the deterministic registry —
    and therefore the [--metrics] export — stays byte-stable run to run
    (DESIGN §7). *)

val install : t -> unit
(** Make [t] the calling domain's state. Replaces any previous one. *)

val uninstall : unit -> unit
(** Clear the calling domain's state. *)

val current : unit -> t option
(** The calling domain's state. *)

val active : unit -> bool
(** Whether the calling domain has a state: the guard for instrumentation
    sites that do work (building samples or span arguments) before calling
    a hook. *)

(** {1 Child states} *)

val fork : t -> t
(** A fresh, empty child of [parent]: it keeps a trace buffer only if
    [parent] does. *)

val with_state : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] as the calling domain's state; the previous state is
    restored even on raise. *)

val merge : into:t -> t -> unit
(** Fold a child into [into] as if the child's samples and events had
    been recorded there directly, after [into]'s own (see
    {!Metrics.merge} and {!Tracing.append}); the horizon is the later of
    the two. *)

val with_capture : (unit -> 'a) -> Metrics.t * 'a
(** Run [f] under a fresh child of the calling domain's state (a root
    state without a trace buffer if there is none) and return the child's
    registry with [f]'s result. The child is then merged into the parent,
    if there is one — even when [f] raises. Store-backed campaigns seal
    the returned registry into a trial's capsule. *)

(** {1 Hook entry points (no-ops when the calling domain has no state)} *)

val incr : ?labels:Metrics.labels -> ?by:int -> string -> unit
val set_gauge : ?labels:Metrics.labels -> string -> float -> unit
val observe : ?labels:Metrics.labels -> string -> float -> unit
val observe_time : ?labels:Metrics.labels -> string -> Satin_engine.Sim_time.t -> unit

val observe_wall : ?labels:Metrics.labels -> string -> float -> unit
(** Record a host wall-clock measurement into {!wall_metrics}. Use this —
    never {!observe} — for [Unix.gettimeofday] deltas and anything else
    nondeterministic, so the deterministic registry stays byte-stable. *)

val span_begin :
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val span_end : time:Satin_engine.Sim_time.t -> track:int -> unit

val instant :
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val name_track : int -> string -> unit

val attach_engine : Satin_engine.Engine.t -> unit
(** Register the engine-level observers: every fired event bumps the
    ["engine.events_fired"] counter and updates the ["engine.queue_depth"]
    gauge, and every dispatched batch records its event count and wheel
    cascades into the ["engine.batch_size"] and ["engine.cascades"]
    histograms of the calling domain's state. All four are deterministic
    series (batch boundaries are a function of the schedule alone), so
    they flow into capsules and [telemetry report], never into
    wall-metrics. A no-op (and no observer
    is installed) when the domain has no state, so an un-instrumented run
    keeps the engine's bare step loop. *)

(** {1 Exports} *)

val set_identity : Json.t option -> unit
(** Install the build/config identity object (see [Summary.identity])
    embedded into {!metrics_json} and {!wall_metrics_json} so exported
    snapshots carry the producing binary's fingerprint and config hash —
    telemetry consumers use it to refuse apples-to-oranges comparisons.
    [None] (the default) omits the field. *)

val identity : unit -> Json.t option

val horizon : t -> Satin_engine.Sim_time.t
(** Latest simulated instant any hook reported — the stamp of the metrics
    snapshot. *)

val trace_json : t -> Json.t
(** Chrome trace-event document (see {!Tracing.to_chrome_json}). *)

val metrics_json : t -> Json.t
(** [{"schema": ..., "snapshots": [s]}] — one snapshot, stamped at
    {!horizon}. Deterministic registry only: wall-clock measurements never
    appear here, keeping the export byte-stable. *)

val wall_metrics_json : t -> Json.t
(** The real-time registry as a separate document
    ([{"schema": "satin-wall-metrics/v1", ...}]). Nondeterministic by
    nature; never mixed into {!metrics_json}. *)

val write_trace : t -> string -> unit
(** Write {!trace_json} to a file. *)

val write_jsonl : t -> string -> unit
(** Write the structured-event JSONL stream to a file. *)

val write_metrics : t -> string -> unit
(** Write {!metrics_json} to a file. *)
