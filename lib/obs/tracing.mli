(** Span tracing with Chrome trace-event export.

    Spans are begin/end pairs attributed to a {e track} — one lane per
    simulated core, so an exported E10 campaign renders as the paper's
    Figure 3 per-core timeline. Exports target the Chrome trace-event JSON
    format, directly loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing]; a JSONL sink emits the same events one structured
    object per line for log-style consumers.

    Spans on one track must nest properly (the begun-last span ends first),
    which the instrumentation sites guarantee by construction: an area
    check lives strictly inside its world-switch span.

    A buffer belongs to one domain: under [--jobs N] every trial records
    into its own buffer, and {!append} splices the buffers back in trial
    order (see [Obs]). *)

type phase = Begin | End | Instant

type event = {
  ph : phase;
  time : Satin_engine.Sim_time.t;
  track : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

type t

val create : unit -> t

val begin_span :
  t ->
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val end_span : t -> time:Satin_engine.Sim_time.t -> track:int -> unit
(** Ends the most recently begun span on [track]. *)

val instant :
  t ->
  time:Satin_engine.Sim_time.t ->
  track:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  unit

val set_track_name : t -> int -> string -> unit
(** Label a track in the exported view (e.g. ["core 4 (A57)"]). *)

val append : into:t -> t -> unit
(** [append ~into child] records [child]'s events after [into]'s, as if
    they had been recorded into [into] directly; track names carry over.
    [child]'s spans must all be closed. *)

val length : t -> int
val events : t -> event list

val to_chrome_json : ?process_name:string -> t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ns"}] with metadata events
    naming the process (default ["satin"]) and every named track.
    Timestamps are microseconds of simulated time (the format's unit). *)

val jsonl_lines : t -> string list
(** One compact JSON object per event, in recording order. *)
