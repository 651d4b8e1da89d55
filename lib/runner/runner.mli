(** Deterministic Domain-based work pool for trial fan-outs.

    Every table and figure of the evaluation is an embarrassingly-parallel
    fan-out of independently-seeded trials. [map] executes the trial bodies
    on up to [jobs] domains and returns the results {e in submission order},
    so a report assembled from the results is byte-identical whatever the
    number of domains or the scheduling of trials onto them.

    The determinism contract rests on the trial bodies, not on the pool:
    a trial must derive everything stochastic from its own seed (build its
    own [Scenario]/[Prng] from {!Satin_engine.Prng.derive}) and must not
    read or write mutable state shared with any other trial. The pool
    enforces what it can mechanically: results land in a per-index slot,
    exceptions are re-raised in submission order, and nested use (calling
    [map] from inside a trial) is rejected.

    When the caller has a {!Satin_obs.Obs} state ([--trace]/[--metrics]),
    every trial records into its own child state on the domain that runs
    it, and the children are merged into the caller's state in index order
    after the batch — the exports equal a sequential run's at any width.
    Pool-level metrics ([runner.batches], [runner.trials],
    [runner.queue_depth]) and wall-clock readings ([runner.batch_wall_s],
    [runner.domain_trials{domain=i}], which counts work-stealing outcomes)
    are recorded by the submitting domain only. *)

type t

val create : ?clamp:bool -> ?jobs:int -> unit -> t
(** [create ~jobs ()] is a pool running trial batches on up to [jobs]
    domains (including the caller's). Default 1 — today's sequential
    behavior. Raises [Invalid_argument] if [jobs < 1]. No domains are
    spawned until {!map} runs a batch needing them.

    By default the dispatch width is clamped to
    [Domain.recommended_domain_count ()] — oversubscribing a host with
    more domains than cores ran experiments at 0.22–0.74x of sequential
    (GC synchronization with nothing to overlap); a warning is printed on
    stderr when the clamp engages. [~clamp:false] disables the clamp (the
    pool's own tests use it to exercise the multi-domain machinery on
    small hosts). The requested width stays visible via {!jobs}; the
    dispatch width via {!effective_jobs}. *)

val sequential : t
(** [create ~jobs:1 ()]. *)

val jobs : t -> int
(** The requested width. *)

val effective_jobs : t -> int
(** The width batches actually dispatch at: [jobs] clamped to the host's
    recommended domain count (unless created with [~clamp:false]). *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] evaluates [f 0 .. f (n-1)] and returns the results in
    index order. With [jobs > 1] trials run work-stealing on
    [min jobs n] domains; result order is index order regardless.

    If one or more trials raise, the remaining trials still run to
    completion and the exception of the {e lowest-indexed} failed trial is
    re-raised (with its backtrace) in the caller — so which error surfaces
    does not depend on domain scheduling.

    Raises [Invalid_argument] when called from inside a running trial
    (nested fan-outs would deadlock the fixed-size pool and break the
    submission-order guarantee), or when [n < 0]. *)

val map_cached :
  t ->
  int ->
  lookup:(int -> 'a option) ->
  ?on_computed:(int -> 'a -> unit) ->
  (int -> 'a) ->
  'a array
(** [map_cached pool n ~lookup ~on_computed f] is {!map} with an external
    result cache threaded through: every index is first offered to
    [lookup] (run sequentially on the submitting domain, in index order),
    and only the unresolved indices are dispatched to the pool as a [map]
    batch. [on_computed i v] runs right after trial [i]'s body returns, on
    the domain that ran it and under the trial's observability state — the
    persistence hook, called per-trial so an
    interrupted batch keeps its completed work. Results are returned in
    submission order; error propagation for the dispatched subset follows
    {!map} (lowest submitted index wins). Resolved trials count under the
    [runner.trials_resolved] metric and are never dispatched, so a fully
    resolved batch spawns no domains. *)

val map_list : t -> 'a list -> ('a -> 'b) -> 'b list
(** [map_list pool items f] is {!map} over a list, preserving order. *)

val last_batch_wall_s : t -> float
(** Wall-clock seconds of the pool's most recent completed batch (0. before
    any batch ran). Real time, not simulated time. *)
