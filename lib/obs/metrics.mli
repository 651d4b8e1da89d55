(** Metrics registry: counters, gauges, and exact-quantile histograms.

    A series is identified by a metric name plus a canonicalized label set
    (sorted by key, so label order never splits a series). Histograms store
    every sample in a {!Satin_engine.Stats.t}, giving the exact quantiles
    the paper's latency tables report rather than bucketed approximations.
    A snapshot is stamped with the simulated instant it was taken at. *)

type t

type labels = (string * string) list
(** Label pairs. Keys must be unique: registering a series whose labels
    repeat a key raises [Invalid_argument] (a silent last-wins would merge
    series that the caller believed distinct). Order is irrelevant. *)

val create : unit -> t

(** {1 Series handles}

    [counter]/[gauge]/[histogram] return the live storage cell for a
    series, creating it on first use. Handles make hot-path instrumentation
    a single mutation with no hash lookup. Re-registering an existing name
    + label set with a different kind raises [Invalid_argument]. *)

type gauge
(** A gauge cell. It remembers whether it was ever written, so {!merge}
    can tell a value from the 0.0 a registered-but-idle gauge starts at. *)

val counter : t -> ?labels:labels -> string -> int ref
val gauge : t -> ?labels:labels -> string -> gauge
val histogram : t -> ?labels:labels -> string -> Satin_engine.Stats.t

val set_gauge : gauge -> float -> unit

(** {1 One-shot operations} *)

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
val set : t -> ?labels:labels -> string -> float -> unit
val observe : t -> ?labels:labels -> string -> float -> unit

val observe_time : t -> ?labels:labels -> string -> Satin_engine.Sim_time.t -> unit
(** Records a duration sample converted to seconds. *)

val merge : into:t -> t -> unit
(** [merge ~into child] folds [child] into [into] exactly as if the
    child's samples had been recorded into [into] after its own: counters
    add, histogram samples append in order, and a gauge takes the child's
    value only if the child wrote it. Series missing from [into] are
    created (copies: [child] is left as it was). Raises
    [Invalid_argument] if one series has different kinds in the two. *)

val series_count : t -> int

val counter_value : t -> ?labels:labels -> string -> int option
val gauge_value : t -> ?labels:labels -> string -> float option
val histogram_stats : t -> ?labels:labels -> string -> Satin_engine.Stats.t option

type view =
  [ `Counter of int | `Gauge of float | `Histogram of Satin_engine.Stats.t ]

val iter_sorted : t -> (string -> labels -> view -> unit) -> unit
(** Visit every series in canonical order (name, then labels) with its
    current value — the extraction point for metric capsules, which must
    serialize equal registries byte-identically. *)

val snapshot : t -> at:Satin_engine.Sim_time.t -> Json.t
(** The full registry state as JSON, stamped with [at] (seconds of
    simulated time). Series are sorted by name then labels, so equal
    registry states render byte-identically. Histogram entries carry count,
    total, mean, min, max and the p50/p90/p99 exact quantiles. *)
