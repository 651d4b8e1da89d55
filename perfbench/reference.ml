(* Committed digests of each workload's printed report and Summary JSON
   (MD5 of [Experiment.print_*] output, a newline, then the [Summary] JSON)
   at the reference seed 42 and the held-out seed 7. Every run checks both.
   A change that alters any of these bytes is a change to the simulated
   results, not a host-cost optimisation. *)

let seeds = [ 42; 7 ]

(* (workload, size, seed, digest) *)
let table =
  [
    ("fig7_unixbench", "full", 42, "f2a1f31a59fbc0c5c3e7d0dfb8fba4ee");
    ("fig7_unixbench", "full", 7, "52c3d21b4e3579dd114992171dd227d7");
    ("cache_side_channel", "full", 42, "8389c96750d9e62a6d404b5c044218ef");
    ("cache_side_channel", "full", 7, "56c5f0c4ce58510e3d3216b9c139eb89");
    ("evader_race_store", "full", 42, "69a97d44b8c6365af3f184d4b2c741a6");
    ("evader_race_store", "full", 7, "51ca8e53253430cf2d925dc9fb298584");
    ("fig7_unixbench", "tiny", 42, "bb7336ed690458220f9604578b2a35fe");
    ("fig7_unixbench", "tiny", 7, "bb436ca14da214333f417aac4be5888e");
    ("cache_side_channel", "tiny", 42, "216a1edc0bcda948237af1923ffb5b16");
    ("cache_side_channel", "tiny", 7, "fdfc64ff2dc5bcf37a16c3440fdea82f");
    ("evader_race_store", "tiny", 42, "0e897298c5201d0ebd00c3aa91955cb4");
    ("evader_race_store", "tiny", 7, "96da1e56a84342016f8a8063d676ba83");
  ]

let find ~workload ~size ~seed =
  List.find_map
    (fun (w, sz, s, d) ->
      if w = workload && sz = size && s = seed then Some d else None)
    table
