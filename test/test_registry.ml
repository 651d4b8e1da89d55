(* The experiment registry is the one list every entry point derives
   from. Checked here through the shipped binaries: a campaign and the
   standalone subcommands resolve a name to the same profile (so the same
   store keys and the same report), and bench accepts every name. *)

module R = Satin.Registry
module M = Test_multiproc

let bench =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bench" "main.exe"))

let test_names_unique () =
  let sorted = List.sort_uniq String.compare R.names in
  Alcotest.(check int) "no name registered twice" (List.length R.names)
    (List.length sorted)

(* An unknown target makes bench list every valid one on stderr. *)
let test_bench_accepts_every_name () =
  let dir = M.tmp_dir () in
  Satin_store.Store.mkdir_p dir;
  let out = Filename.concat dir "bench.out"
  and err = Filename.concat dir "bench.err" in
  let argv = [| bench; "--no-store"; "no-such-bench" |] in
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out_fd = fd out and err_fd = fd err in
  let pid = Unix.create_process bench argv Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  ignore (Unix.waitpid [] pid);
  let line = String.trim (M.read_file err) in
  let valid =
    match String.index_opt line ':' with
    | Some i when String.starts_with ~prefix:"unknown bench" line ->
        List.map String.trim
          (String.split_on_char ','
             (String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> Alcotest.failf "no target list in bench stderr: %S" line
  in
  List.iter
    (fun name ->
      if not (List.mem name valid) then
        Alcotest.failf "bench does not accept registry name %S" name)
    R.names

(* "store: H hit(s), M miss(es), ..." on stderr -> M. *)
let store_misses err =
  let line =
    List.find
      (String.starts_with ~prefix:"store: ")
      (String.split_on_char '\n' (M.read_file err))
  in
  Scanf.sscanf line "store: %d hit(s), %d miss(es)" (fun _ m -> m)

(* Each standalone report, under the campaign's section header, must
   rebuild the campaign's stdout byte for byte — served entirely from the
   store the campaign warmed. *)
let test_campaign_matches_standalone () =
  let dir = M.tmp_dir () in
  Satin_store.Store.mkdir_p dir;
  let store = Filename.concat dir "store" in
  let path name = Filename.concat dir name in
  let names = [ "e3"; "sweep" ] in
  M.wait_ok "campaign"
    (M.launch
       [ "campaign"; "-e"; String.concat "," names; "--quick"; "--store"; store ]
       ~out:(path "campaign.out") ~err:(path "campaign.err"));
  let rebuilt =
    List.map
      (fun name ->
        let out = path (name ^ ".out") and err = path (name ^ ".err") in
        M.wait_ok name (M.launch [ name; "--quick"; "--store"; store ] ~out ~err);
        Alcotest.(check int)
          (name ^ " --quick: store misses")
          0 (store_misses err);
        Printf.sprintf "==== campaign: %s seed=42 ====\n%s" name
          (M.read_file out))
      names
  in
  Alcotest.(check string)
    "campaign report = standalone --quick reports"
    (M.read_file (path "campaign.out"))
    (String.concat "" rebuilt)

let suite =
  [
    Alcotest.test_case "registry names unique" `Quick test_names_unique;
    Alcotest.test_case "bench accepts every registry name" `Quick
      test_bench_accepts_every_name;
    Alcotest.test_case "campaign --quick = standalone --quick, warm" `Slow
      test_campaign_matches_standalone;
  ]
