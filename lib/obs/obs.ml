module Sim_time = Satin_engine.Sim_time
module Engine = Satin_engine.Engine
module Stats = Satin_engine.Stats

type t = {
  metrics : Metrics.t;
  wall_metrics : Metrics.t;
  (* Real-time (host wall-clock) measurements live in their own registry so
     the deterministic one stays byte-stable across runs — DESIGN §7's
     [--metrics] contract. *)
  tracing : Tracing.t option; (* only when a trace was asked for *)
  mutable horizon : Sim_time.t;
}

let create ?(trace = true) () =
  {
    metrics = Metrics.create ();
    wall_metrics = Metrics.create ();
    tracing = (if trace then Some (Tracing.create ()) else None);
    horizon = Sim_time.zero;
  }

let metrics t = t.metrics
let wall_metrics t = t.wall_metrics

let touch s time = if time > s.horizon then s.horizon <- time

(* ---- the per-domain state ----

   Every domain records into its own state (a DLS slot), so worker domains
   never share a registry or a trace buffer. [live] counts the slots that
   hold a state, on any domain: while it is zero a hook costs one atomic
   load, keeping instrumentation free when nothing records. *)

let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let live = Atomic.make 0

let set_slot s =
  let r = Domain.DLS.get slot in
  (match (!r, s) with
  | None, Some _ -> Atomic.incr live
  | Some _, None -> Atomic.decr live
  | _ -> ());
  r := s

let current () = if Atomic.get live = 0 then None else !(Domain.DLS.get slot)
let active () = Option.is_some (current ())

let install t = set_slot (Some t)
let uninstall () = set_slot None

let with_state t f =
  let saved = !(Domain.DLS.get slot) in
  set_slot (Some t);
  Fun.protect ~finally:(fun () -> set_slot saved) f

let fork parent = create ~trace:(Option.is_some parent.tracing) ()

let merge ~into child =
  Metrics.merge ~into:into.metrics child.metrics;
  Metrics.merge ~into:into.wall_metrics child.wall_metrics;
  (match (into.tracing, child.tracing) with
  | Some p, Some c -> Tracing.append ~into:p c
  | _ -> ());
  touch into child.horizon

let with_capture f =
  let parent = current () in
  let child =
    match parent with Some p -> fork p | None -> create ~trace:false ()
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun p -> merge ~into:p child) parent)
    (fun () ->
      let r = with_state child f in
      (child.metrics, r))

(* ---- hook entry points ---- *)

let incr ?labels ?by name =
  match current () with
  | None -> ()
  | Some s -> Metrics.incr s.metrics ?labels ?by name

let set_gauge ?labels name v =
  match current () with
  | None -> ()
  | Some s -> Metrics.set s.metrics ?labels name v

let observe ?labels name v =
  match current () with
  | None -> ()
  | Some s -> Metrics.observe s.metrics ?labels name v

let observe_time ?labels name d =
  match current () with
  | None -> ()
  | Some s -> Metrics.observe_time s.metrics ?labels name d

let observe_wall ?labels name v =
  (* Capsules seal only [metrics], so wall-clock samples never persist. *)
  match current () with
  | None -> ()
  | Some s -> Metrics.observe s.wall_metrics ?labels name v

(* Span hooks move the horizon whether or not a trace is kept, so the
   [--metrics] stamp does not depend on [--trace]. *)
let span_begin ~time ~track ?cat ?args name =
  match current () with
  | None -> ()
  | Some s -> (
      touch s time;
      match s.tracing with
      | None -> ()
      | Some tr -> Tracing.begin_span tr ~time ~track ?cat ?args name)

let span_end ~time ~track =
  match current () with
  | None -> ()
  | Some s -> (
      touch s time;
      match s.tracing with
      | None -> ()
      | Some tr -> Tracing.end_span tr ~time ~track)

let instant ~time ~track ?cat ?args name =
  match current () with
  | None -> ()
  | Some s -> (
      touch s time;
      match s.tracing with
      | None -> ()
      | Some tr -> Tracing.instant tr ~time ~track ?cat ?args name)

let name_track track name =
  match current () with
  | Some { tracing = Some tr; _ } -> Tracing.set_track_name tr track name
  | _ -> ()

let attach_engine engine =
  match current () with
  | None -> ()
  | Some s ->
      let m = s.metrics in
      let fired = Metrics.counter m "engine.events_fired"
      and depth = Metrics.gauge m "engine.queue_depth"
      and sizes = Metrics.histogram m "engine.batch_size"
      and cascades = Metrics.histogram m "engine.cascades" in
      (* Batched dispatch shape: events per same-instant batch and wheel
         cascades charged to it. Deterministic series (batch boundaries are
         a function of the schedule alone), so they belong in [metrics],
         not [wall_metrics]. Runs once per batch, between dispatches. *)
      Engine.set_batch_observer engine
        (Some
           (fun ~size ~cascades:c ->
             Stats.add sizes (float_of_int size);
             Stats.add cascades (float_of_int c)));
      (* Cells are resolved once here, so the per-event observer stays a
         few raw mutations. *)
      Engine.set_observer engine
        (Some
           (fun ~time ~pending ->
             fired := !fired + 1;
             Metrics.set_gauge depth (float_of_int pending);
             touch s time))

(* ---- exports ---- *)

let identity_ref : Json.t option ref = ref None

let set_identity id = identity_ref := id
let identity () = !identity_ref

let with_identity fields =
  match !identity_ref with
  | None -> fields
  | Some id -> List.hd fields :: ("identity", id) :: List.tl fields

let horizon t = t.horizon

(* A state kept without a trace exports an empty one. *)
let trace_buffer t =
  match t.tracing with Some tr -> tr | None -> Tracing.create ()

let trace_json t = Tracing.to_chrome_json (trace_buffer t)

let metrics_json t =
  Json.Obj
    (with_identity
       [
         ("schema", Json.String "satin-metrics/v1");
         ("snapshots", Json.List [ Metrics.snapshot t.metrics ~at:(horizon t) ]);
       ])

let wall_metrics_json t =
  Json.Obj
    (with_identity
       [
         ("schema", Json.String "satin-wall-metrics/v1");
         ("snapshot", Metrics.snapshot t.wall_metrics ~at:(horizon t));
       ])

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace t path = write_file path (Json.to_string (trace_json t) ^ "\n")

let write_jsonl t path =
  write_file path
    (String.concat "\n" (Tracing.jsonl_lines (trace_buffer t)) ^ "\n")

let write_metrics t path = write_file path (Json.to_string (metrics_json t) ^ "\n")
