(* Runs the benchmark executable at the tiny size on every workload named in
   BENCHMARK.json and checks its contract: the last stdout line is a JSON
   result whose metrics are exactly the end-to-end ones (--trace 0) or the
   per-layer ones (--trace 1), each with BENCHMARK.json's unit; a correct
   run exits 0; and a deliberately wrong reference digest makes the run
   report correct=false and exit nonzero. It also checks that the
   interaction map names every per-layer metric exactly once.

   Usage: selftest.exe MAIN_EXE BENCHMARK_JSON INTERACTIONS_JSON *)

module Json = Satin_obs.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun m ->
      if not cond then begin
        incr failures;
        prerr_endline ("selftest: FAIL " ^ m)
      end)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let member_exn key j =
  match Json.member key j with
  | Some v -> v
  | None -> failwith ("missing key " ^ key)

let list_exn j = match Json.to_list_opt j with Some l -> l | None -> failwith "not a list"
let string_exn = function Json.String s -> s | _ -> failwith "not a string"

(* (name, unit) of every metric in one BENCHMARK.json section. *)
let metrics_of spec section =
  List.map
    (fun m -> (string_exn (member_exn "name" m), string_exn (member_exn "unit" m)))
    (list_exn (member_exn section spec))

(* Run the executable; return its exit status and the last stdout line. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" lines
  in
  (status, last)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let check_result ~label ~expect_correct ~expected (status, last) =
  match Json.parse last with
  | Error e -> check false "%s: last line is not JSON (%s): %S" label e last
  | Ok j ->
      let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
      check
        (keys = [ "correct"; "attempted"; "failed"; "metrics" ])
        "%s: result keys are %s" label (String.concat "," keys);
      let correct = Json.member "correct" j = Some (Json.Bool true) in
      check (correct = expect_correct) "%s: correct=%b" label correct;
      check
        ((status = Unix.WEXITED 0) = expect_correct)
        "%s: exit status does not match correct=%b" label expect_correct;
      (match (Json.member "attempted" j, Json.member "failed" j) with
      | Some (Json.Int a), Some (Json.Int f) ->
          check (a >= 1) "%s: attempted=%d" label a;
          check ((f = 0) = expect_correct) "%s: failed=%d" label f
      | _ -> check false "%s: attempted/failed are not integers" label);
      let printed =
        match Json.member "metrics" j with Some (Json.Obj kv) -> kv | _ -> []
      in
      check
        (List.map fst printed = List.map fst expected)
        "%s: metric names %s" label
        (String.concat "," (List.map fst printed));
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name printed with
          | None -> ()
          | Some m ->
              check
                (Json.member "unit" m = Some (Json.String unit))
                "%s: %s unit" label name;
              check
                (match Option.bind (Json.member "value" m) number with
                | Some v -> Float.is_finite v
                | None -> false)
                "%s: %s value is not a finite number" label name)
        expected

let parse_file path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let () =
  let exe, spec, interactions =
    match Sys.argv with
    | [| _; exe; spec; interactions |] -> (exe, parse_file spec, parse_file interactions)
    | _ ->
        prerr_endline "usage: selftest MAIN_EXE BENCHMARK_JSON INTERACTIONS_JSON";
        exit 2
  in
  let e2e = metrics_of spec "end_to_end" and layers = metrics_of spec "per_layer" in
  let mapped =
    List.concat_map
      (fun l -> List.map string_exn (list_exn (member_exn "metrics" l)))
      (list_exn (member_exn "layers" interactions))
  in
  check
    (List.sort compare mapped = List.sort compare (List.map fst layers))
    "interactions.json does not name each per-layer metric exactly once";
  let workloads =
    List.map (fun w -> string_exn (member_exn "name" w)) (list_exn (member_exn "workloads" spec))
  in
  let base w = [ "--workload"; w; "--seed"; "42"; "--seconds"; "1"; "--size"; "tiny" ] in
  List.iter
    (fun w ->
      check_result ~label:(w ^ " --trace 0") ~expect_correct:true ~expected:e2e
        (run exe (base w @ [ "--trace"; "0" ]));
      check_result ~label:(w ^ " --trace 1") ~expect_correct:true ~expected:layers
        (run exe (base w @ [ "--trace"; "1" ])))
    workloads;
  let w = List.hd workloads in
  prerr_endline "selftest: the next run must fail (wrong reference digest)";
  check_result ~label:(w ^ " with a wrong digest") ~expect_correct:false
    ~expected:e2e
    (run exe
       (base w
       @ [ "--trace"; "0"; "--expect-digest"; "00000000000000000000000000000000" ]));
  if !failures > 0 then exit 1;
  print_endline "selftest: ok"
