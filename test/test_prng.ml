open Satin_engine

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_independence () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 b) then incr same
  done;
  Alcotest.(check int) "distinct streams" 0 !same

let test_copy_replays () =
  let a = Prng.create 3 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.next_int64 a) (Prng.next_int64 b)

let test_split_diverges () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 b) then incr same
  done;
  Alcotest.(check int) "split independent" 0 !same

let test_float01_range () =
  let p = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.float01 p in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float01 out of range: %f" x
  done

let test_float01_mean () =
  let p = Prng.create 13 in
  let sum = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.float01 p
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "mean off: %f" mean

let test_int_bounds () =
  let p = Prng.create 17 in
  for _ = 1 to 10_000 do
    let x = Prng.int p 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of bound: %d" x
  done;
  (* power of two path *)
  for _ = 1 to 1_000 do
    let x = Prng.int p 8 in
    if x < 0 || x >= 8 then Alcotest.failf "int pow2 out of bound: %d" x
  done

let test_int_uniform () =
  let p = Prng.create 19 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Prng.int p 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.2) > 0.02 then
        Alcotest.failf "bucket %d skewed: %f" i frac)
    counts

let test_gaussian_moments () =
  let p = Prng.create 23 in
  let n = 100_000 in
  let sum = ref 0.0 and ss = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian p ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. x;
    ss := !ss +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!ss /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 3.0) > 0.05 then Alcotest.failf "gaussian mean %f" mean;
  if Float.abs (var -. 4.0) > 0.15 then Alcotest.failf "gaussian var %f" var

let test_exponential_mean () =
  let p = Prng.create 29 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential p ~mean:0.5 in
    if x < 0.0 then Alcotest.fail "exponential negative";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "exp mean %f" mean

let test_triangular_support_and_mean () =
  let p = Prng.create 31 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.triangular p ~low:1.0 ~mode:2.0 ~high:4.0 in
    if x < 1.0 || x > 4.0 then Alcotest.failf "triangular out of support: %f" x;
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  (* mean of triangular = (low + mode + high) / 3 *)
  if Float.abs (mean -. (7.0 /. 3.0)) > 0.02 then Alcotest.failf "tri mean %f" mean

let test_pareto_support () =
  let p = Prng.create 37 in
  for _ = 1 to 10_000 do
    let x = Prng.pareto p ~scale:2.0 ~shape:3.0 in
    if x < 2.0 then Alcotest.failf "pareto below scale: %f" x
  done

let test_shuffle_permutation () =
  let p = Prng.create 41 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_bernoulli_extremes () =
  let p = Prng.create 43 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli p 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli p 1.0)
  done

let test_sim_duration_positive () =
  let p = Prng.create 47 in
  for _ = 1 to 1_000 do
    let d = Prng.sim_duration p ~mean_s:1e-6 ~jitter:0.5 in
    if d <= 0 then Alcotest.fail "sim_duration not positive"
  done

(* Golden values of the seed-42 stream, recorded before the state went
   unboxed: the representation may change, the stream may not (every
   experiment's output is a function of it). *)
let test_golden_stream () =
  let hex64 = Alcotest.testable (fun f v -> Format.fprintf f "0x%016Lx" v) Int64.equal in
  let p = Prng.create 42 in
  List.iter
    (fun v -> Alcotest.check hex64 "next_int64" v (Prng.next_int64 p))
    [
      0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
      0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
      0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L;
      0xda9e8d784db0c8f7L;
    ];
  let p = Prng.create 42 in
  List.iter
    (fun (bound, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "int %d" bound)
        expected
        (List.init 8 (fun _ -> Prng.int p bound)))
    [
      (7, [ 5; 4; 0; 2; 5; 6; 0; 2 ]);
      (8, [ 3; 5; 5; 5; 3; 5; 2; 5 ]);
      (13, [ 5; 2; 3; 3; 8; 4; 4; 2 ]);
    ];
  let p = Prng.create 42 in
  List.iter
    (fun bits ->
      Alcotest.check hex64 "float01" bits (Int64.bits_of_float (Prng.float01 p)))
    [
      0x3fe31367e26140c7L; 0x3fc486da5f92b86cL; 0x3fc54c85f31d00d8L;
      0x3fa896d649de0310L;
    ];
  let p = Prng.create 42 in
  let c = Prng.split p in
  Alcotest.check hex64 "split child" 0x33d3b3229fe0c44dL (Prng.next_int64 c);
  Alcotest.check hex64 "split parent" 0x290db4bf2570ded7L (Prng.next_int64 p);
  let p = Prng.create 42 in
  let buf = Bytes.make 23 '\xff' in
  Prng.fill_le p buf ~off:1 ~len:21;
  let hex =
    String.concat ""
      (List.init 21 (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get buf (i + 1)))))
  in
  Alcotest.(check string) "fill_le 21 bytes"
    "6938060a133f9b98d7de7025bfb40d29d5b2013ae6" hex;
  Alcotest.(check char) "fill_le leaves bytes before" '\xff' (Bytes.get buf 0);
  Alcotest.(check char) "fill_le leaves bytes after" '\xff' (Bytes.get buf 22);
  Alcotest.check hex64 "fill_le draws ceil (len / 8) words" 0x0c4b6b24ef01890eL
    (Prng.next_int64 p)

(* [int], [bits] and [fill_le] keep the state unboxed end to end. *)
let test_draws_allocation_free () =
  let p = Prng.create 3 in
  let n = 10_000 in
  let buf = Bytes.create 4096 in
  let words_per_draw f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let acc = ref 0 in
  let check name f =
    let w = words_per_draw f in
    if w > 0.01 then Alcotest.failf "%s allocates %.3f minor words/draw" name w
  in
  check "int (rejection path)" (fun () ->
      for _ = 1 to n do
        acc := !acc + Prng.int p 13
      done);
  check "int (power of two)" (fun () ->
      for _ = 1 to n do
        acc := !acc + Prng.int p 8
      done);
  check "bits" (fun () ->
      for _ = 1 to n do
        acc := !acc lxor Prng.bits p
      done);
  (* n draws: n / 512 fills of 4096 bytes = 512 words each *)
  check "fill_le" (fun () ->
      for _ = 1 to n / 512 do
        Prng.fill_le p buf ~off:0 ~len:4096
      done);
  ignore (Sys.opaque_identity !acc)

let test_fill_le_bounds () =
  let p = Prng.create 1 in
  let buf = Bytes.create 16 in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Prng.fill_le: range out of bounds") (fun () ->
      Prng.fill_le p buf ~off:9 ~len:8);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Prng.fill_le: range out of bounds") (fun () ->
      Prng.fill_le p buf ~off:0 ~len:(-1))

let prop_pick_member =
  QCheck.Test.make ~name:"pick returns a member"
    QCheck.(array_of_size Gen.(1 -- 20) small_int)
    (fun a ->
      let p = Prng.create 53 in
      Array.mem (Prng.pick p a) a)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed independence" `Quick test_seed_independence;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "float01 range" `Quick test_float01_range;
    Alcotest.test_case "float01 mean" `Slow test_float01_mean;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Slow test_int_uniform;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "triangular support+mean" `Slow test_triangular_support_and_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "sim_duration positive" `Quick test_sim_duration_positive;
    Alcotest.test_case "golden stream (seed 42)" `Quick test_golden_stream;
    Alcotest.test_case "int/bits/fill_le allocation-free" `Quick
      test_draws_allocation_free;
    Alcotest.test_case "fill_le bounds" `Quick test_fill_le_bounds;
    QCheck_alcotest.to_alcotest prop_pick_member;
  ]
