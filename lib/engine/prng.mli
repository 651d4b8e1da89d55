(** Deterministic pseudo-random number generation.

    Every stochastic choice in the simulator flows from a [Prng.t] so that
    experiments are reproducible bit-for-bit from a seed. The generator is
    splitmix64 (Steele, Lea & Flood 2014): tiny state, excellent statistical
    quality for simulation purposes, and cheap splitting into independent
    streams so that concurrent simulated components do not perturb each
    other's sequences when the event interleaving changes.

    The state is held unboxed, so {!bits}, {!int} and {!fill_le} allocate
    nothing per draw (a tier-1 test pins this, and golden values pin the
    stream itself). {!next_int64} and the float deviates return boxed
    values to callers in other modules. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Distinct seeds give independent
    streams for all practical purposes. *)

val derive : int -> int -> int
(** [derive seed index] is a well-mixed seed for the [index]-th independent
    trial of an experiment seeded with [seed] — the seed-derivation scheme
    of the parallel runner. Pure: no generator state is involved, so a trial
    can be replayed in isolation on any domain. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    parent's subsequent output. Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val next_int64 : t -> int64
(** Uniform over all 2{^64} values. *)

val fill_le : t -> Bytes.t -> off:int -> len:int -> unit
(** [fill_le t buf ~off ~len] writes successive {!next_int64} outputs into
    [buf.[off .. off+len-1]], each as 8 little-endian bytes. A final partial
    word takes one more draw and keeps its first [len mod 8] little-endian
    bytes, so the result equals appending [ceil (len / 8)] draws to a
    buffer and truncating it to [len] bytes. Raises [Invalid_argument] if
    the range exceeds [buf]. *)

val bits : t -> int
(** 62 uniform non-negative bits as a native int. *)

val float01 : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t a b] is uniform in [\[a, b)]. Requires [a <= b]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Uses rejection sampling, so it is exactly uniform. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via the Box–Muller transform. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. Requires [mean > 0]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a [gaussian ~mu ~sigma] deviate; used for heavy-ish tailed
    latency jitter. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto deviate [>= scale]; models rare large cross-core delays. *)

val triangular : t -> low:float -> mode:float -> high:float -> float
(** Triangular deviate on [\[low, high\]] peaking at [mode]; a good fit for
    min/avg/max triples reported by the paper. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sim_duration : t -> mean_s:float -> jitter:float -> Sim_time.t
(** [sim_duration t ~mean_s ~jitter] is a positive duration lognormally
    distributed around [mean_s] seconds with multiplicative spread
    [jitter] (e.g. [0.05] for ±5%-ish). *)
