(* Host speed probe. The shared host this benchmark runs on changes speed
   by a fifth or more over seconds and over minutes, so a pass's wall time
   alone says as much about the neighbours as about the program. [tick]
   times a fixed piece of work that is the benchmark's own code (no change
   to the library moves it); the workloads call it between trials, and
   each measured pass's time is scaled by [reference_s] over the median
   probe time seen during that pass.

   The work mixes what the simulator's host time is made of: Hashtbl
   traffic and data-dependent branches over an L1-sized table, a dependent
   walk over an 8 MiB table, a byte scan, and a line-by-line read through
   64 MiB that goes to DRAM. *)

let words = 1 lsl 20

type state = {
  chain : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* one cycle through every slot, in a scattered order *)
  small : int array;
  bytes : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  table : (int, int) Hashtbl.t;
  mutable cursor : int;
  dram : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* 64 MiB: beyond the last-level cache *)
  mutable dram_pos : int;
}

(* Built by [init], so module initialisation (part of setup_s) does not
   pay for it. The large arrays live outside the OCaml heap, and a
   probe allocates only its own timestamps, so the heap and allocation
   metrics do not see the probes. *)
let state =
  lazy
    (let chain = Bigarray.(Array1.create int c_layout words) in
     let step = 1_048_573 (* prime, so coprime with [words] *) in
     for i = 0 to words - 1 do
       chain.{(i * step) land (words - 1)} <- ((i + 1) * step) land (words - 1)
     done;
     let bytes = Bigarray.(Array1.create char c_layout (1 lsl 16)) in
     for i = 0 to (1 lsl 16) - 1 do
       bytes.{i} <- Char.chr ((i * 131) land 255)
     done;
     let table = Hashtbl.create 1024 in
     for k = 0 to 1023 do
       Hashtbl.replace table k k
     done;
     {
       chain;
       small = Array.init 4096 (fun i -> (i * 2654435761) land 4095);
       bytes;
       table;
       cursor = 0;
       dram = Bigarray.(Array1.init int c_layout (1 lsl 23) (fun i -> i));
       dram_pos = 0;
     })

(* Builds the tables. The 72 MiB they hold outside the heap count as GC
   pressure, which quickens the major GC for a while: do this before a
   measured pass, followed by a full major collection. *)
let init () = ignore (Lazy.force state)

let sink = ref 0

let work () =
  let s = Lazy.force state in
  let acc = ref 0 in
  for k = 0 to 20_000 do
    Hashtbl.replace s.table (k land 1023) !acc;
    acc := !acc + Hashtbl.find s.table ((k * 7) land 1023);
    let j = Array.unsafe_get s.small (k land 4095) in
    acc := (!acc lxor (j * 31)) + if j land 1 = 0 then 1 else 3
  done;
  let j = ref s.cursor in
  for _ = 1 to 20_000 do
    j := Bigarray.Array1.unsafe_get s.chain !j;
    acc := !acc + !j
  done;
  s.cursor <- !j;
  for _ = 1 to 4 do
    for i = 0 to Bigarray.Array1.dim s.bytes - 1 do
      acc := (!acc * 33) + Char.code (Bigarray.Array1.unsafe_get s.bytes i)
    done
  done;
  (* One word per 64-byte line, so every read fetches a line from DRAM. *)
  let n = Bigarray.Array1.dim s.dram in
  let p = ref s.dram_pos in
  for _ = 1 to 65_536 do
    acc := !acc + Bigarray.Array1.unsafe_get s.dram !p;
    p := (!p + 8) land (n - 1)
  done;
  s.dram_pos <- !p;
  !acc

(* The median probe time on the host the benchmark was tuned on (a 2-vCPU
   KVM guest on an Intel Xeon), so scaled times read as seconds there. *)
let reference_s = 0.0021

(* Probe times since the last [take], newest first, and their sum. *)
let probes : float list ref = ref []
let spent = ref 0.0

let tick () =
  let t0 = Unix.gettimeofday () in
  sink := !sink + work ();
  let dt = Unix.gettimeofday () -. t0 in
  probes := dt :: !probes;
  spent := !spent +. dt

(* The probe times since the last [take], oldest first, and the seconds
   they took. *)
let take () =
  let l = (List.rev !probes, !spent) in
  probes := [];
  spent := 0.0;
  l
