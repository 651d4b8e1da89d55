(** Content-addressed, on-disk trial-result store.

    Layout under the store directory:

    {v
    objects/ab/cd/<32-hex-key>.rec   records, two-level fan-out
    capsules/ab/cd/<32-hex-key>.cap  metric capsules (sidecar, JSON payload)
    quarantine/<32-hex-key>.rec      records that failed verification
    quarantine/<32-hex-key>.cap      capsules that failed verification
    claims/<32-hex-key>.lease        trial claims ("pid host expiry")
    index.log                        append-only journal of adds/evictions
    .lock                            fcntl-lock anchor for cross-process CS
    v}

    Records are {!Codec} [satin-store/v1] bytes, written atomically
    (temp file + rename), one file per {!Key}. The index journal is the
    insertion-order ground truth: each add appends a [+] line, each
    eviction a [-] line, each quarantine a [!] line, so a store killed
    mid-campaign replays to exactly the records that finished — the basis
    of resume-after-interrupt. Entries whose files have vanished are
    dropped on replay.

    {!find} verifies every record before serving it; a record failing
    magic/version/length/checksum is moved to [quarantine/] (never served,
    never silently deleted) and the lookup reports a miss, so one flipped
    bit costs one recomputation. {!add} enforces the size bound by evicting
    the oldest records first (the newest record is always retained, so the
    bound is best-effort when a single record exceeds it).

    {2 Multi-writer guarantees}

    Any number of processes may hold handles on one store directory
    concurrently. The journal is written through an [O_APPEND] descriptor,
    one complete line per [write(2)], so concurrent appends interleave
    whole lines, never torn ones; mutating critical sections (add + GC,
    claim handoffs) additionally run under an fcntl record lock on
    [.lock], which the kernel releases if the holder dies. Each handle
    tracks how far into the journal it has read and adopts newly appended
    lines on {!add}, on {!sync}, and on any {!find}/{!contains} that
    misses its in-memory table — so a record published by one process is
    served as a hit by every other. All of this degrades to exactly the
    old single-process behaviour when only one handle exists.

    All operations are serialized on an internal mutex: worker domains may
    {!add} concurrently while the submitting domain looks up. Counters for
    hits/misses/writes/evictions/corruptions are kept locally (for
    {!summary_line}) and mirrored to {!Satin_obs.Obs} as [store.*] metrics
    when the calling domain has an observability state.

    One store can be made ambient with {!install}: experiments are
    assembled deep inside runners, and "the store of the current run" is
    process-wide by nature. *)

type t

val open_ : ?max_bytes:int -> string -> t
(** Open (creating directories as needed) the store rooted at the given
    directory and replay its index. [max_bytes] bounds the total size of
    live records (default 512 MiB). Raises [Sys_error]/[Unix.Unix_error]
    if the directory cannot be created. *)

val close : t -> unit
(** Fsync the journal and release the handle's descriptors. Idempotent.
    Operations on a closed handle raise [Unix.Unix_error (EBADF, _, _)]. *)

val sync : t -> unit
(** Adopt journal lines appended by other processes since this handle last
    looked. {!find} and {!contains} do this automatically when a key is
    absent from the in-memory table; [sync] forces it (e.g. before
    {!live_records}). *)

val dir : t -> string

val find : t -> key:string -> 'a option
(** Serve the record stored under [key], verifying it first. [None] on
    absence or on a quarantined record. The caller asserts the result type,
    which holds whenever [key] came from {!Key.make} (the fingerprint pins
    the binary). *)

val contains : t -> key:string -> bool
(** Whether [key] currently resolves to a live record, refreshing from the
    journal if needed — without reading the record or touching the
    hit/miss counters. This is the polling primitive for waiting on a
    trial another process is computing. *)

val add : t -> key:string -> experiment:string -> 'a -> unit
(** Persist one trial result (atomic write + index append), then enforce
    the size bound. Overwrites any existing record under [key] (necessarily
    with identical content). Safe to call from worker domains. *)

(** {1 Trial claims}

    A claim is an advisory lease on one pending trial, backed by
    [claims/<key>.lease] holding ["pid host expiry"]. Sharded workers
    claim a trial before computing it so peers can distinguish "in
    progress" from "orphaned by a crash": a lease is stale once its expiry
    passes, or earlier when it names a provably-dead pid on the local
    host. Claim handoffs run under the store-wide file lock, so exactly
    one contender wins a steal. Claims are {e advisory}: a lost or
    duplicated claim costs at most one redundant recomputation of a pure
    trial (whose [add] rewrites identical bytes), never a wrong result. *)

type lease = { lease_pid : int; lease_host : string; lease_expiry : float }

val try_claim : t -> key:string -> ttl_s:float -> bool
(** Attempt to claim [key] for [ttl_s] seconds. [true] when this process
    now holds the lease: the key was unclaimed, the existing lease was
    stale (counted as a steal), or we already held it (the expiry is
    refreshed). [false] while another live process holds it. Raises
    [Invalid_argument] on a malformed key or non-positive TTL. *)

val release_claim : t -> key:string -> unit
(** Drop any lease on [key]. Callable by non-owners (used to clear a
    stale lease after its trial's result turned up in the store). *)

val claim_lease : t -> key:string -> lease option
(** The current lease on [key], if any — parsed but not liveness-checked;
    combine with {!lease_live}. *)

val lease_live : lease -> bool
(** Whether the lease still protects its trial: unexpired, and not
    provably dead (a same-host pid that no longer exists). *)

(** {1 Metric capsules}

    Capsules are a sidecar area under [capsules/], keyed exactly like
    records but holding raw JSON payloads in the {!Codec.encode_raw}
    envelope — readable by any build, which is the point: telemetry
    aggregates capsules across campaign runs and binaries. A capsule rides
    on its record's lifetime (evicting a record deletes its capsule) but is
    neither journaled nor counted against [max_bytes]: capsules are small
    and always regenerable by re-running the trial. Corrupt capsules are
    quarantined to [quarantine/<key>.cap] and read as misses. *)

val add_capsule : t -> key:string -> experiment:string -> string -> unit
(** Persist one capsule payload (atomic write). Safe to call from worker
    domains. Raises [Invalid_argument] on a malformed key. *)

val find_capsule : t -> key:string -> string option
(** The verified capsule payload stored under [key], or [None] on absence
    or quarantine. *)

val fold_capsules :
  t -> init:'acc -> f:('acc -> key:string -> experiment:string -> string -> 'acc) -> 'acc
(** Fold over every verified capsule in the store, in sorted key order —
    deterministic regardless of filesystem enumeration order, so reports
    built from a walk are byte-stable. Corrupt capsules encountered on the
    way are quarantined and skipped. Holds the store mutex for the whole
    walk: do not call {!add}/{!find} from [f]. *)

type counters = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  corrupt : int;  (** corrupt records {e and} corrupt capsules *)
  capsule_hits : int;
  capsule_misses : int;
  capsule_writes : int;
  claims : int;  (** leases granted to this process (incl. refreshes) *)
  claim_steals : int;  (** granted over a stale lease *)
}

val counters : t -> counters
(** Snapshot of this handle's lifetime counters. *)

val live_records : t -> int
val live_bytes : t -> int

val invariant_violations : t -> string list
(** Internal-consistency audit of this handle's in-memory view: total
    bytes must equal the sum of live record sizes, and every live key must
    have exactly one valid entry in the eviction order queue. Empty when
    healthy; used by tests and the sanitizer. *)

val summary_line : t -> string
(** One-line human summary ([store: H hits, M misses, ... (DIR); capsules:
    ...]) printed by the CLI and bench to stderr — stderr so stdout reports
    stay byte-identical between warm and cold runs. Capsule counters are
    appended after the directory so existing [store:]-prefix parsers keep
    working; claim counters, when nonzero, are appended after those. *)

val mkdir_p : string -> unit
(** [mkdir] with parents, create-first: [EEXIST] is success at every level
    (safe under concurrent workers racing to create the same fan-out
    dirs), missing parents are created bottom-up, and a [Filename.dirname]
    fixpoint that cannot be created raises instead of recursing forever.
    Exposed for tests. *)

(** {1 The ambient store} *)

val install : t -> unit
val uninstall : unit -> unit
val current : unit -> t option
