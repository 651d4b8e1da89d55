type algo = Djb2 | Sdbm | Fnv1a

let algo_to_string = function
  | Djb2 -> "djb2"
  | Sdbm -> "sdbm"
  | Fnv1a -> "fnv1a"

let pp_algo fmt a = Format.pp_print_string fmt (algo_to_string a)
let all_algos = [ Djb2; Sdbm; Fnv1a ]

let init = function
  | Djb2 -> 5381L
  | Sdbm -> 0L
  | Fnv1a -> 0xcbf29ce484222325L

let step algo h byte =
  let b = Int64.of_int (byte land 0xff) in
  match algo with
  | Djb2 ->
      (* h * 33 + c *)
      Int64.add (Int64.mul h 33L) b
  | Sdbm ->
      (* c + (h << 6) + (h << 16) - h *)
      Int64.add b
        (Int64.sub (Int64.add (Int64.shift_left h 6) (Int64.shift_left h 16)) h)
  | Fnv1a -> Int64.mul (Int64.logxor h b) 0x100000001b3L

let absorb_int64 algo h v =
  let acc = ref h in
  for i = 0 to 7 do
    acc :=
      step algo !acc (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done;
  !acc

(* Algorithm-specialized, 4x-unrolled loops over raw bytes. [step] dispatches
   on the algorithm per byte and costs a closure call per byte when used with
   [fold_range]; on the multi-MiB regions the introspection rounds scan, the
   specialized loops below are the difference between the hash dominating a
   campaign and it disappearing into the noise. Each single step is
   bit-identical to [step algo]. *)

let[@inline] djb2_step h c =
  (* h * 33 + c, with the multiply strength-reduced. *)
  Int64.add (Int64.add (Int64.shift_left h 5) h) (Int64.of_int c)

let[@inline] sdbm_step h c =
  Int64.add (Int64.of_int c)
    (Int64.sub (Int64.add (Int64.shift_left h 6) (Int64.shift_left h 16)) h)

let[@inline] fnv1a_step h c =
  Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001b3L

let hash_sub_seeded algo ~seed data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Hash.hash_sub_seeded: range out of bounds";
  let stop = off + len in
  let stop4 = stop - 3 in
  let[@inline] byte i = Char.code (Bytes.unsafe_get data i) in
  match algo with
  | Djb2 ->
      let h = ref seed in
      let i = ref off in
      while !i < stop4 do
        let h0 = djb2_step !h (byte !i) in
        let h1 = djb2_step h0 (byte (!i + 1)) in
        let h2 = djb2_step h1 (byte (!i + 2)) in
        h := djb2_step h2 (byte (!i + 3));
        i := !i + 4
      done;
      while !i < stop do
        h := djb2_step !h (byte !i);
        incr i
      done;
      !h
  | Sdbm ->
      let h = ref seed in
      let i = ref off in
      while !i < stop4 do
        let h0 = sdbm_step !h (byte !i) in
        let h1 = sdbm_step h0 (byte (!i + 1)) in
        let h2 = sdbm_step h1 (byte (!i + 2)) in
        h := sdbm_step h2 (byte (!i + 3));
        i := !i + 4
      done;
      while !i < stop do
        h := sdbm_step !h (byte !i);
        incr i
      done;
      !h
  | Fnv1a ->
      let h = ref seed in
      let i = ref off in
      while !i < stop4 do
        let h0 = fnv1a_step !h (byte !i) in
        let h1 = fnv1a_step h0 (byte (!i + 1)) in
        let h2 = fnv1a_step h1 (byte (!i + 2)) in
        h := fnv1a_step h2 (byte (!i + 3));
        i := !i + 4
      done;
      while !i < stop do
        h := fnv1a_step !h (byte !i);
        incr i
      done;
      !h

let hash_sub algo data ~off ~len =
  hash_sub_seeded algo ~seed:(init algo) data ~off ~len

(* Block combine. Djb2 and Sdbm are affine recurrences h' = h*m + c
   (mod 2^64), so hashing s1 ++ s2 factors as
       H(s1 ++ s2) = H(s1) * m^|s2| + K(s2)
   where K(s2) is the same recurrence run from state 0 — a seed-independent
   per-block digest that can be cached and recombined in O(blocks). Fnv1a's
   step xors before multiplying; multiplication does not distribute over
   xor, so it is NOT combinable and incremental consumers must fall back to
   a full re-hash when any block is dirty. *)

let multiplier = function Djb2 -> 33L | Sdbm -> 65599L | Fnv1a -> 0L
let combinable = function Djb2 | Sdbm -> true | Fnv1a -> false

let block_pow algo ~len =
  if not (combinable algo) then
    invalid_arg "Hash.block_pow: algorithm is not combinable";
  if len < 0 then invalid_arg "Hash.block_pow: negative length";
  let r = ref 1L and b = ref (multiplier algo) and e = ref len in
  while !e > 0 do
    if !e land 1 = 1 then r := Int64.mul !r !b;
    b := Int64.mul !b !b;
    e := !e asr 1
  done;
  !r

let block_digest algo data ~off ~len = hash_sub_seeded algo ~seed:0L data ~off ~len

let block_digest_string algo s ~off ~len =
  block_digest algo (Bytes.unsafe_of_string s) ~off ~len

let[@inline] combine_block h ~pow ~digest = Int64.add (Int64.mul h pow) digest

(* Folded here, where [combine_block] inlines, so the running state stays
   unboxed: a caller folding block by block boxes it twice per block. *)
let combine_blocks h ~pows ~digests =
  if Array.length pows <> Array.length digests then
    invalid_arg "Hash.combine_blocks: pows and digests differ in length";
  let h = ref h in
  for b = 0 to Array.length digests - 1 do
    h :=
      combine_block !h ~pow:(Array.unsafe_get pows b)
        ~digest:(Array.unsafe_get digests b)
  done;
  !h

let hash_bytes algo b = hash_sub algo b ~off:0 ~len:(Bytes.length b)
let hash_string algo s = hash_bytes algo (Bytes.unsafe_of_string s)

let hash_region algo memory ~world ~addr ~len =
  Satin_hw.Memory.with_range_ro memory ~world ~addr ~len ~f:(fun data off ->
      hash_sub algo data ~off ~len)
