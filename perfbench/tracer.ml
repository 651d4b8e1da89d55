(* Host-side span recorder for the traced run.

   Spans wrap only the benchmark's own calls into the library's layers
   (scenario boot, SATIN install, [Scenario.run_for] slices, store passes,
   report rendering); nothing inside [lib/] is instrumented. Spans are kept
   in memory and exported as a Chrome trace when the run ends. While the
   recorder is disabled every entry point is a single branch, so untraced
   passes run the same code at no measurable cost. *)

module Json = Satin_obs.Json
module Obs = Satin_obs.Obs
module Metrics = Satin_obs.Metrics
module Stats = Satin_engine.Stats

type span = {
  id : int;
  name : string;
  trial : int; (* shared by every span of one trial; -1 outside a trial *)
  parent : int; (* enclosing span's id; -1 at top level *)
  start_s : float;
  mutable stop_s : float;
  mutable minor_words : float; (* allocated while the span was open *)
}

let enabled = ref false
let recorded : span list ref = ref [] (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let next_trial = ref 0
let current_trial = ref (-1)

(* Counters and histograms folded out of every per-trial capture registry,
   summed over label sets. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 64
let histograms : (string, int * float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  next_trial := 0;
  current_trial := -1;
  Hashtbl.reset counters;
  Hashtbl.reset histograms

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id;
        name;
        trial = !current_trial;
        parent;
        start_s = Unix.gettimeofday ();
        stop_s = nan;
        minor_words = Gc.minor_words ();
      }
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_s <- Unix.gettimeofday ();
        s.minor_words <- Gc.minor_words () -. s.minor_words;
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* One trial: a root span whose id every nested span shares. *)
let trial f =
  if not !enabled then f ()
  else begin
    let saved = !current_trial in
    current_trial := !next_trial;
    incr next_trial;
    Fun.protect ~finally:(fun () -> current_trial := saved) (fun () ->
        span "trial" f)
  end

let fold_registry m =
  Metrics.iter_sorted m (fun name _labels view ->
      match view with
      | `Counter c ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
          Hashtbl.replace counters name (prev + c)
      | `Gauge _ -> ()
      | `Histogram st ->
          if not (Stats.is_empty st) then begin
            let n, tot =
              Option.value ~default:(0, 0.0) (Hashtbl.find_opt histograms name)
            in
            Hashtbl.replace histograms name
              (n + Stats.count st, tot +. Stats.total st)
          end)

(* Run [f] under a fresh per-domain capture registry (the library's own
   deterministic metric hooks) and fold what it recorded. *)
let capture f =
  if not !enabled then f ()
  else begin
    let m, r = Obs.with_capture f in
    fold_registry m;
    r
  end

let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)

let histogram name =
  Option.value ~default:(0, 0.0) (Hashtbl.find_opt histograms name)

let spans () = List.rev !recorded
let duration s = s.stop_s -. s.start_s
let named name = List.filter (fun s -> s.name = name) (spans ())
let total name = List.fold_left (fun a s -> a +. duration s) 0.0 (named name)

let total_minor_words name =
  List.fold_left (fun a s -> a +. s.minor_words) 0.0 (named name)

(* A span's self time: its duration minus the part its children cover
   (children are strictly nested on one domain, so they never overlap). *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. duration s))
    !recorded;
  fun s -> duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

(* Per span name: count, total and self seconds, in first-seen order. *)
let summary () =
  let self = self_times () in
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, tot, slf =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. duration s, slf +. self s))
    (spans ());
  List.rev_map
    (fun name ->
      let n, tot, slf = Hashtbl.find acc name in
      ( name,
        Json.Obj
          [
            ("count", Json.Int n);
            ("total_s", Json.float tot);
            ("self_s", Json.float slf);
          ] ))
    !order

let chrome_json () =
  let self = self_times () in
  let origin = match spans () with [] -> 0.0 | s :: _ -> s.start_s in
  let us t = Json.float (1e6 *. t) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("ts", us (s.start_s -. origin));
                   ("dur", us (duration s));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("trial", Json.Int s.trial);
                         ("self_us", us (self s));
                         ("minor_words", Json.float s.minor_words);
                       ] );
                 ])
             (spans ())) );
      ("displayTimeUnit", Json.String "ms");
    ]
