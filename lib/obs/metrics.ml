module Stats = Satin_engine.Stats
module Sim_time = Satin_engine.Sim_time

type labels = (string * string) list

(* [set] tells a gauge that was only registered (its 0.0 is a default)
   from one that was written: {!merge} lets only the latter override. *)
type gauge = { mutable value : float; mutable set : bool }

type series = Counter of int ref | Gauge of gauge | Histogram of Stats.t

type t = { table : (string * labels, series) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let canonical name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg
            (Printf.sprintf "Metrics: duplicate label key %S on metric %S" a name)
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  (name, sorted)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create t ~name ~labels ~make =
  let key = canonical name labels in
  match Hashtbl.find_opt t.table key with
  | Some s -> s
  | None ->
      let s = make () in
      Hashtbl.replace t.table key s;
      s

let counter t ?(labels = []) name =
  match find_or_create t ~name ~labels ~make:(fun () -> Counter (ref 0)) with
  | Counter r -> r
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %S is already a %s" name
           (kind_name other))

let gauge t ?(labels = []) name =
  match
    find_or_create t ~name ~labels ~make:(fun () ->
        Gauge { value = 0.0; set = false })
  with
  | Gauge g -> g
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %S is already a %s" name (kind_name other))

let histogram t ?(labels = []) name =
  match
    find_or_create t ~name ~labels ~make:(fun () -> Histogram (Stats.create ()))
  with
  | Histogram s -> s
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %S is already a %s" name
           (kind_name other))

let incr t ?labels ?(by = 1) name =
  let r = counter t ?labels name in
  r := !r + by

let set_gauge g v =
  g.value <- v;
  g.set <- true

let set t ?labels name v = set_gauge (gauge t ?labels name) v
let observe t ?labels name v = Stats.add (histogram t ?labels name) v
let observe_time t ?labels name d = observe t ?labels name (Sim_time.to_sec_f d)

let series_count t = Hashtbl.length t.table

let lookup t name labels = Hashtbl.find_opt t.table (canonical name labels)

let counter_value t ?(labels = []) name =
  match lookup t name labels with Some (Counter r) -> Some !r | _ -> None

let gauge_value t ?(labels = []) name =
  match lookup t name labels with Some (Gauge g) -> Some g.value | _ -> None

let histogram_stats t ?(labels = []) name =
  match lookup t name labels with Some (Histogram s) -> Some s | _ -> None

type view =
  [ `Counter of int | `Gauge of float | `Histogram of Stats.t ]

let sorted t =
  Hashtbl.fold (fun (name, labels) s acc -> (name, labels, s) :: acc) t.table []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

let iter_sorted t f =
  List.iter
    (fun (name, labels, s) ->
      let view =
        match s with
        | Counter r -> `Counter !r
        | Gauge g -> `Gauge g.value
        | Histogram st -> `Histogram st
      in
      f name labels view)
    (sorted t)

let append_samples ~into st = Array.iter (Stats.add into) (Stats.to_array st)

(* Folding [child] in after the parent's own samples is what recording the
   child's samples straight into the parent would have produced: counters
   add, samples append in order, and a gauge moves only if the child wrote
   it. Cells are copied, never shared, so the child stays readable as it
   was sealed. *)
let merge ~into child =
  Hashtbl.iter
    (fun key s ->
      match (Hashtbl.find_opt into.table key, s) with
      | None, Counter c -> Hashtbl.replace into.table key (Counter (ref !c))
      | None, Gauge g ->
          Hashtbl.replace into.table key (Gauge { value = g.value; set = g.set })
      | None, Histogram st ->
          let h = Stats.create () in
          append_samples ~into:h st;
          Hashtbl.replace into.table key (Histogram h)
      | Some (Counter p), Counter c -> p := !p + !c
      | Some (Gauge p), Gauge g -> if g.set then set_gauge p g.value
      | Some (Histogram p), Histogram st -> append_samples ~into:p st
      | Some other, _ ->
          invalid_arg
            (Printf.sprintf
               "Metrics.merge: %S is a %s in the parent, a %s in the child"
               (fst key) (kind_name other) (kind_name s)))
    child.table

(* ---- snapshots ---- *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let series_json name labels = function
  | Counter r ->
      Json.Obj
        [ ("name", Json.String name); ("labels", labels_json labels);
          ("value", Json.Int !r) ]
  | Gauge g ->
      Json.Obj
        [ ("name", Json.String name); ("labels", labels_json labels);
          ("value", Json.float g.value) ]
  | Histogram s ->
      let quantile q = if Stats.is_empty s then Json.Null else Json.float (Stats.quantile s q) in
      let stat f = if Stats.is_empty s then Json.Null else Json.float (f s) in
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("count", Json.Int (Stats.count s));
          ("total", stat Stats.total);
          ("mean", stat Stats.mean);
          ("min", stat Stats.min);
          ("max", stat Stats.max);
          ("p50", quantile 0.5);
          ("p90", quantile 0.9);
          ("p99", quantile 0.99);
        ]

let snapshot t ~at =
  let entries = sorted t in
  let bucket kind =
    List.filter_map
      (fun (name, labels, s) ->
        if String.equal (kind_name s) kind then Some (series_json name labels s)
        else None)
      entries
  in
  Json.Obj
    [
      ("at", Json.float (Sim_time.to_sec_f at));
      ("counters", Json.List (bucket "counter"));
      ("gauges", Json.List (bucket "gauge"));
      ("histograms", Json.List (bucket "histogram"));
    ]
