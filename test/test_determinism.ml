(* The parallel runner's contract: a pooled run is a pure wall-clock
   optimization. The full quick-campaign report and the machine-readable
   summaries must be byte-identical at jobs=1 and jobs=4, whatever the
   seed. *)

module R = Satin.Registry
module Runner = Satin_runner.Runner
module Json = Satin_obs.Json

let report ~pool ~seed =
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  R.run_all ~pool ~seed ~quick:true fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* First divergence position, for a failure message that actually helps. *)
let check_identical what seq par =
  if not (String.equal seq par) then begin
    let n = min (String.length seq) (String.length par) in
    let i = ref 0 in
    while !i < n && seq.[!i] = par.[!i] do
      incr i
    done;
    let context s =
      let from = max 0 (!i - 40) in
      String.sub s from (min 80 (String.length s - from))
    in
    Alcotest.failf "%s diverges at byte %d:\n  jobs=1: %S\n  jobs=4: %S" what
      !i (context seq) (context par)
  end

let test_report_identical seed () =
  let seq = report ~pool:Runner.sequential ~seed in
  let par = report ~pool:(Runner.create ~clamp:false ~jobs:4 ()) ~seed in
  check_identical (Printf.sprintf "run_all ~quick report (seed %d)" seed) seq
    par

(* The bench harness's --json path: structured summaries of the pooled
   experiments at their quick profiles, serialized. None of these builders
   includes wall-clock. *)
let summary ~pool ~seed =
  Json.to_string
    (Json.Obj
       (List.map
          (fun name -> (name, (R.run ~pool ~seed ~quick:true name).R.summary))
          [ "e1"; "table2"; "uprober"; "sweep" ]))

let test_json_identical seed () =
  let seq = summary ~pool:Runner.sequential ~seed in
  let par = summary ~pool:(Runner.create ~clamp:false ~jobs:4 ()) ~seed in
  check_identical (Printf.sprintf "--json summary (seed %d)" seed) seq par

let seeds = [ 7; 11; 42 ]

let suite =
  List.concat_map
    (fun seed ->
      [
        Alcotest.test_case
          (Printf.sprintf "run_all report jobs 1 = 4 (seed %d)" seed)
          `Slow (test_report_identical seed);
        Alcotest.test_case
          (Printf.sprintf "json summary jobs 1 = 4 (seed %d)" seed)
          `Slow (test_json_identical seed);
      ])
    seeds
