open Satin_kernel
open Satin_hw

let layout = Layout.paper_layout ()

let test_paper_dimensions () =
  Alcotest.(check int) "total" 11_916_240 (Layout.total_size layout);
  let sizes = Layout.canonical_area_sizes layout in
  Alcotest.(check int) "19 areas" 19 (List.length sizes);
  Alcotest.(check int) "sum" 11_916_240 (List.fold_left ( + ) 0 sizes);
  Alcotest.(check int) "largest" 876_616 (List.fold_left max 0 sizes);
  Alcotest.(check int) "smallest" 431_360 (List.fold_left min max_int sizes)

let test_symbols_tile_image () =
  let syms = Layout.symbols layout in
  let rec walk addr = function
    | [] -> Alcotest.(check int) "ends at image end" (Layout.base layout + Layout.total_size layout) addr
    | s :: rest ->
        Alcotest.(check int) (Printf.sprintf "gap-free at %s" s.Layout.sym_name)
          addr s.Layout.sym_addr;
        if s.Layout.sym_size <= 0 then Alcotest.fail "non-positive symbol";
        walk (s.Layout.sym_addr + s.Layout.sym_size) rest
  in
  walk (Layout.base layout) syms

let test_symbol_names_unique () =
  let syms = Layout.symbols layout in
  let names = List.map (fun s -> s.Layout.sym_name) syms in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "unique names" (List.length names) (List.length sorted)

let test_special_symbols () =
  let tbl = Layout.syscall_table layout in
  Alcotest.(check string) "syscall table" "sys_call_table" tbl.Layout.sym_name;
  Alcotest.(check int) "400 entries x 8" 3200 tbl.Layout.sym_size;
  Alcotest.(check int) "in area 14" 14 (Layout.area_index_of_addr layout tbl.Layout.sym_addr);
  let vec = Layout.vector_table layout in
  Alcotest.(check string) "vectors" "vectors" vec.Layout.sym_name;
  Alcotest.(check int) "2 KiB" 2048 vec.Layout.sym_size;
  Alcotest.(check int) "at image start" (Layout.base layout) vec.Layout.sym_addr;
  Alcotest.(check int) "in area 0" 0 (Layout.area_index_of_addr layout vec.Layout.sym_addr)

let test_area_index_boundaries () =
  let base = Layout.base layout in
  Alcotest.(check int) "first byte" 0 (Layout.area_index_of_addr layout base);
  Alcotest.(check int) "last byte" 18
    (Layout.area_index_of_addr layout (base + Layout.total_size layout - 1));
  let first_size = List.hd (Layout.canonical_area_sizes layout) in
  Alcotest.(check int) "area boundary" 1
    (Layout.area_index_of_addr layout (base + first_size));
  (try
     ignore (Layout.area_index_of_addr layout (base - 1));
     Alcotest.fail "below image accepted"
   with Invalid_argument _ -> ())

let test_find_symbol () =
  let s = Layout.find_symbol layout "sys_call_table" in
  Alcotest.(check bool) "found" true (s.Layout.sym_size = 3200);
  try
    ignore (Layout.find_symbol layout "no_such_symbol");
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_install_content () =
  let memory = Memory.create ~size:(32 * 1024 * 1024) in
  let region = Layout.install layout memory ~seed:0xBEEF in
  Alcotest.(check string) "region name" "kernel_image" region.Memory.name;
  Alcotest.(check int) "region size" (Layout.total_size layout) region.Memory.size;
  (* Content is deterministic in the seed... *)
  let m2 = Memory.create ~size:(32 * 1024 * 1024) in
  ignore (Layout.install layout m2 ~seed:0xBEEF);
  let a = Memory.read_bytes memory ~world:World.Secure ~addr:(Layout.base layout) ~len:4096 in
  let b = Memory.read_bytes m2 ~world:World.Secure ~addr:(Layout.base layout) ~len:4096 in
  Alcotest.(check bool) "deterministic" true (Bytes.equal a b);
  (* ...and not all zero. *)
  Alcotest.(check bool) "non-trivial" false
    (Bytes.for_all (fun c -> c = '\000') a);
  (* Syscall table entries look like kernel pointers. *)
  let tbl = Syscall_table.create memory layout in
  let e0 = Syscall_table.read_entry tbl ~world:World.Secure 0 in
  Alcotest.(check int64) "entry 0" 0xffff000008080000L e0;
  let e178 = Syscall_table.read_entry tbl ~world:World.Secure Layout.gettid_nr in
  Alcotest.(check int64) "gettid entry"
    (Int64.add 0xffff000008080000L (Int64.of_int (178 * 0x400)))
    e178

(* Reference build of the image: LE draws appended to a buffer, truncated
   to the image size and written with one [write_string]; then the syscall
   table. [Layout.install] must match it byte for byte and stamp for
   stamp. *)
let install_reference l memory ~seed =
  let size = Layout.total_size l in
  ignore
    (Memory.add_region memory ~name:"kernel_image" ~base:(Layout.base l) ~size
       ~security:Memory.Non_secure_region);
  let prng = Satin_engine.Prng.create seed in
  let buf = Buffer.create size in
  while Buffer.length buf < size do
    Buffer.add_int64_le buf (Satin_engine.Prng.next_int64 prng)
  done;
  Memory.write_string memory ~world:World.Secure ~addr:(Layout.base l)
    (String.sub (Buffer.contents buf) 0 size);
  let table = Layout.syscall_table l in
  let tbl = Buffer.create table.Layout.sym_size in
  for n = 0 to (table.Layout.sym_size / 8) - 1 do
    Buffer.add_int64_le tbl
      (Int64.add 0xffff000008080000L (Int64.of_int (n * 0x400)))
  done;
  Memory.write_string memory ~world:World.Secure
    ~addr:table.Layout.sym_addr (Buffer.contents tbl)

let check_install_matches_reference name l ~mem_size =
  let seed = 0xBEEF in
  let fresh = Memory.create ~size:mem_size and reference = Memory.create ~size:mem_size in
  ignore (Layout.install l fresh ~seed);
  install_reference l reference ~seed;
  let all m = Memory.read_bytes m ~world:World.Secure ~addr:0 ~len:mem_size in
  Alcotest.(check bool) (name ^ ": same bytes") true
    (Bytes.equal (all fresh) (all reference));
  Alcotest.(check int) (name ^ ": same write count")
    (Memory.write_generation reference) (Memory.write_generation fresh);
  let page = Memory.gen_page_size in
  for p = 0 to (mem_size / page) - 1 do
    let g m = Memory.generation m ~addr:(p * page) ~len:page in
    if g fresh <> g reference then
      Alcotest.failf "%s: page %d stamped %d, reference %d" name p (g fresh)
        (g reference)
  done

let test_install_matches_reference () =
  check_install_matches_reference "paper layout" layout
    ~mem_size:(16 * 1024 * 1024);
  let l = Layout.synthetic ~base:12_340 ~total_size:1_000_003 ~areas:7 ~seed:5 in
  Alcotest.(check bool) "synthetic size not a multiple of 8" true
    (Layout.total_size l mod 8 <> 0);
  check_install_matches_reference "synthetic layout" l
    ~mem_size:(2 * 1024 * 1024)

(* A scenario boot fills the 11.9 MB image in place: what it allocates is
   the layout's symbol list and the platform's small structures, never
   anything proportional to the image. *)
let test_scenario_boot_allocation () =
  ignore (Satin.Scenario.create ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Satin.Scenario.create ()));
  let w = Gc.minor_words () -. w0 in
  if w > 100_000.0 then
    Alcotest.failf "Scenario.create allocates %.0f minor words (ceiling 100k)" w

let test_synthetic_layout () =
  let l = Layout.synthetic ~base:4096 ~total_size:1_000_000 ~areas:7 ~seed:3 in
  let sizes = Layout.canonical_area_sizes l in
  Alcotest.(check int) "area count" 7 (List.length sizes);
  Alcotest.(check int) "sum" 1_000_000 (List.fold_left ( + ) 0 sizes);
  List.iter (fun s -> if s <= 0 then Alcotest.fail "empty synthetic area") sizes;
  (* special symbols exist *)
  ignore (Layout.syscall_table l);
  ignore (Layout.vector_table l)

let prop_synthetic_valid =
  QCheck.Test.make ~name:"synthetic layouts tile exactly" ~count:30
    QCheck.(pair (int_range 2 12) (int_range 100_000 2_000_000))
    (fun (areas, total) ->
      let l = Layout.synthetic ~base:0 ~total_size:total ~areas ~seed:(areas + total) in
      let sizes = Layout.canonical_area_sizes l in
      List.length sizes = areas
      && List.fold_left ( + ) 0 sizes = total
      && List.for_all (fun s -> s > 0) sizes
      &&
      let syms = Layout.symbols l in
      let sum = List.fold_left (fun acc s -> acc + s.Layout.sym_size) 0 syms in
      sum = total)

let suite =
  [
    Alcotest.test_case "paper dimensions" `Quick test_paper_dimensions;
    Alcotest.test_case "symbols tile image" `Quick test_symbols_tile_image;
    Alcotest.test_case "symbol names unique" `Quick test_symbol_names_unique;
    Alcotest.test_case "special symbols" `Quick test_special_symbols;
    Alcotest.test_case "area index boundaries" `Quick test_area_index_boundaries;
    Alcotest.test_case "find symbol" `Quick test_find_symbol;
    Alcotest.test_case "install content" `Quick test_install_content;
    Alcotest.test_case "install = buffered reference" `Quick
      test_install_matches_reference;
    Alcotest.test_case "scenario boot allocation" `Quick
      test_scenario_boot_allocation;
    Alcotest.test_case "synthetic layout" `Quick test_synthetic_layout;
    QCheck_alcotest.to_alcotest prop_synthetic_valid;
  ]
