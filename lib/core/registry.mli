(** The experiment registry: every artifact of the evaluation, named and
    profiled once, in paper order.

    Each entry carries its CLI name and one-line doc, its full and quick
    profile, and one call that runs it and returns its printed view(s) plus
    its {!Summary} JSON. Everything that enumerates experiments derives from
    {!entries}: {!run_all}, the [satin_cli] subcommands and [campaign], the
    [bench/main.exe] targets and the determinism tests. Adding an
    experiment means writing its [run_*]/[print_*]/[Summary] functions and
    one entry here (DESIGN §4). *)

module Runner = Satin_runner.Runner
module Json = Satin_obs.Json

type output = {
  views : (string * (Format.formatter -> unit)) list;
      (** printed sections keyed by name: the entry's own first, then
          {!t.also} in order *)
  summary : Json.t;
}

type t = {
  name : string;  (** CLI subcommand, bench target and campaign name *)
  doc : string;
  also : (string * string) list;
      (** further views of the same run, each its own subcommand and bench
          target: (name, doc). [table2] prints Figure 4 from its campaign. *)
  seeded : bool;
      (** [false] for the closed-form entries, which ignore pool, seed and
          profile *)
  in_all : bool;
      (** [false] for deployment-scale entries that {!run_all} and the
          default campaign skip; they run only when named *)
  run : pool:Runner.t -> seed:int -> quick:bool -> output;
      (** [quick] selects the quick profile — the one [all --quick] runs *)
}

val entries : t list
(** In paper order — the order {!run_all} prints. *)

val names : string list
(** Every accepted name: each entry's own followed by its {!t.also}, in
    paper order. *)

val run : ?pool:Runner.t -> ?seed:int -> ?quick:bool -> string -> output
(** Run the entry owning view [name]. Defaults: sequential pool, seed 42,
    full profile. Raises [Invalid_argument] if [name] is not in {!names}. *)

val run_view :
  ?pool:Runner.t ->
  ?seed:int ->
  ?quick:bool ->
  Format.formatter ->
  string ->
  Json.t
(** {!run}, print view [name] alone, and return the entry's summary. *)

val run_all :
  ?pool:Runner.t -> ?seed:int -> ?quick:bool -> Format.formatter -> unit
(** Runs every {!t.in_all} entry and prints all its views. [pool]
    parallelizes every trial fan-out; the report is byte-identical whatever
    the pool's width. Each entry's wall-clock is recorded under the
    [experiment.wall_s] metric, labelled with its name. *)
