(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field boxes a fresh int64 on every store, i.e. on every draw.
   [Bytes.get/set_int64_ne] are compiler primitives, so a draw that is
   consumed as an int (or written straight to a buffer) allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let derive seed index =
  (* Two mix64 rounds over (seed, index) — a full-avalanche combiner, so
     derived seeds never collide in practice and adjacent indices share no
     stream structure. *)
  Int64.to_int
    (mix64
       (Int64.add
          (mix64 (Int64.of_int seed))
          (Int64.mul golden_gamma (Int64.of_int (index + 1)))))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (next_int64 t))
let copy t = Bytes.copy t

let[@inline] bits t =
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let float01 t =
  (* 53 high bits of the 64-bit output, scaled to [0, 1). *)
  let x = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

external swap64 : int64 -> int64 = "%bswap_int64"

let fill_le t buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Prng.fill_le: range out of bounds";
  let stop = off + len in
  let i = ref off in
  while !i + 8 <= stop do
    let v = next_int64 t in
    if Sys.big_endian then Bytes.set_int64_ne buf !i (swap64 v)
    else Bytes.set_int64_ne buf !i v;
    i := !i + 8
  done;
  if !i < stop then begin
    (* A final partial word keeps its low-order (first little-endian)
       bytes, the rest of the draw is discarded. *)
    let v = next_int64 t in
    for j = !i to stop - 1 do
      Bytes.unsafe_set buf j
        (Char.unsafe_chr
           (Int64.to_int (Int64.shift_right_logical v (8 * (j - !i))) land 0xff))
    done
  end

let uniform t a b =
  assert (a <= b);
  a +. ((b -. a) *. float01 t)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over 62 bits for exact uniformity. *)
  let mask_bound = bound - 1 in
  if bound land mask_bound = 0 then bits t land mask_bound
  else begin
    let limit2 = max_int / 2 / bound * bound * 2 in
    let x = ref (bits t) in
    while !x >= limit2 do
      x := bits t
    done;
    !x mod bound
  end

let bool t = Int64.compare (next_int64 t) 0L < 0
let bernoulli t p = float01 t < p

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float01 t and u2 = float01 t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  assert (mean > 0.0);
  -.mean *. log (1.0 -. float01 t)

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~scale ~shape =
  assert (scale > 0.0 && shape > 0.0);
  scale /. ((1.0 -. float01 t) ** (1.0 /. shape))

let triangular t ~low ~mode ~high =
  assert (low <= mode && mode <= high);
  if high = low then low
  else
    let u = float01 t in
    let fc = (mode -. low) /. (high -. low) in
    if u < fc then low +. sqrt (u *. (high -. low) *. (mode -. low))
    else high -. sqrt ((1.0 -. u) *. (high -. low) *. (high -. mode))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let sim_duration t ~mean_s ~jitter =
  let x =
    if jitter <= 0.0 then mean_s
    else
      (* Lognormal with median [mean_s] and log-space sigma [jitter]. *)
      mean_s *. lognormal t ~mu:0.0 ~sigma:jitter
  in
  Stdlib.max 1 (Sim_time.of_sec_f x)
