module Prng = Satin_engine.Prng
module Policy = Satin_cache.Policy
module Cache = Satin_cache.Cache

let prng () = Prng.create (Prng.derive 7 11)

(* Apply a touch trace to one set and return the state the policy sees. *)
let run_trace kind ~ways trace =
  let state = Array.make (Policy.state_words kind ~ways) 0 in
  Policy.init kind ~state ~off:0 ~ways;
  List.iteri
    (fun tick way -> Policy.touch kind ~state ~off:0 ~ways ~way ~tick:(tick + 1))
    trace;
  state

(* Every policy guarantees the just-touched way is never the next victim
   (with no locks and at least two ways). *)
let prop_no_policy_evicts_just_touched =
  QCheck.Test.make ~name:"no policy evicts the just-touched way" ~count:200
    QCheck.(
      triple (int_range 0 2) (int_range 1 4)
        (list_of_size Gen.(int_range 1 40) (int_bound 1000)))
    (fun (ki, log_ways, raw_trace) ->
      let kind = List.nth Policy.all ki in
      let ways = 1 lsl log_ways (* 2 .. 16 *) in
      let trace = List.map (fun r -> r mod ways) raw_trace in
      let state = run_trace kind ~ways trace in
      let last = List.nth trace (List.length trace - 1) in
      let v =
        Policy.victim kind ~state ~off:0 ~ways ~locked:0 ~prng:(prng ())
      in
      v >= 0 && v < ways && v <> last)

(* At two ways Tree-PLRU is exactly LRU: one bit tracks the cold way. *)
let prop_plru_is_lru_at_two_ways =
  QCheck.Test.make ~name:"tree-plru = lru on any 2-way single-set trace"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 1))
    (fun trace ->
      let lru = run_trace Policy.Lru ~ways:2 trace in
      let plru = run_trace Policy.Tree_plru ~ways:2 trace in
      Policy.victim Policy.Lru ~state:lru ~off:0 ~ways:2 ~locked:0
        ~prng:(prng ())
      = Policy.victim Policy.Tree_plru ~state:plru ~off:0 ~ways:2 ~locked:0
          ~prng:(prng ()))

(* The Rand victim as it was written with an [eligible] closure: the
   closure-free rewrite must pick the same way and make the same draws. *)
let rand_victim_reference ~mru ~ways ~locked ~prng =
  let eligible w = locked land (1 lsl w) = 0 && w <> mru in
  let n = ref 0 in
  for w = 0 to ways - 1 do
    if eligible w then incr n
  done;
  if !n = 0 then if mru >= 0 && locked land (1 lsl mru) = 0 then mru else -1
  else begin
    let pick = Prng.int prng !n in
    let seen = ref 0 and chosen = ref (-1) in
    for w = 0 to ways - 1 do
      if eligible w then begin
        if !seen = pick then chosen := w;
        incr seen
      end
    done;
    !chosen
  end

let prop_rand_victim_matches_reference =
  QCheck.Test.make ~name:"rand victim = closure-based reference (way + draws)"
    ~count:300
    QCheck.(triple (int_range 1 16) (int_bound 0xffff) (int_range (-1) 15))
    (fun (ways, lock_bits, mru) ->
      let locked = lock_bits land ((1 lsl ways) - 1) in
      let mru = if mru >= ways then -1 else mru in
      let state = [| mru |] in
      let p1 = prng () and p2 = prng () in
      let v =
        Policy.victim Policy.Rand ~state ~off:0 ~ways ~locked ~prng:p1
      in
      let r = rand_victim_reference ~mru ~ways ~locked ~prng:p2 in
      v = r && Int64.equal (Prng.next_int64 p1) (Prng.next_int64 p2))

let test_victim_allocation_free () =
  let n = 10_000 and ways = 16 in
  let p = prng () in
  List.iter
    (fun kind ->
      let state = run_trace kind ~ways [ 3; 9; 1; 14; 7 ] in
      let sink = ref 0 in
      let pass () =
        for i = 1 to n do
          (* vary the locked mask so Rand's eligible count (and so the
             rejection path of its draw) varies too *)
          let locked = (i * 0x9e37) land 0x3f0f in
          sink := !sink + Policy.victim kind ~state ~off:0 ~ways ~locked ~prng:p
        done
      in
      pass ();
      let w0 = Gc.minor_words () in
      pass ();
      let w = (Gc.minor_words () -. w0) /. float_of_int n in
      ignore (Sys.opaque_identity !sink);
      if w > 0.01 then
        Alcotest.failf "%s victim allocates %.3f minor words/call"
          (Policy.kind_to_string kind) w)
    Policy.all

let test_policy_validate () =
  Alcotest.check_raises "plru needs pow2"
    (Invalid_argument "Policy.validate: Tree_plru needs a power-of-two ways")
    (fun () -> Policy.validate Policy.Tree_plru ~ways:12);
  Policy.validate Policy.Lru ~ways:12;
  Alcotest.check_raises "ways ceiling"
    (Invalid_argument "Policy.validate: need 1 <= ways <= 62") (fun () ->
      Policy.validate Policy.Lru ~ways:63)

let two_core_cache ?(policy = Policy.Lru) ~autolock () =
  Cache.create
    ~clusters:[| [| 0; 1 |] |]
    { Cache.default_config with Cache.policy; autolock }

let test_touch_levels_and_counters () =
  let c = two_core_cache ~autolock:false () in
  let addr = 1 lsl 22 in
  Alcotest.(check int) "cold touch misses both" 2 (Cache.touch c ~core:0 ~addr);
  Alcotest.(check int) "second touch hits L1" 0 (Cache.touch c ~core:0 ~addr);
  (* Same cluster, other core: L1 is private, L2 is shared. *)
  Alcotest.(check int) "peer core hits only L2" 1 (Cache.touch c ~core:1 ~addr);
  let l1 = Cache.l1_stats c and l2 = Cache.l2_stats c in
  Alcotest.(check int) "l1 hits" 1 l1.Cache.hits;
  Alcotest.(check int) "l1 misses" 2 l1.Cache.misses;
  Alcotest.(check int) "l2 hits" 1 l2.Cache.hits;
  Alcotest.(check int) "l2 misses" 1 l2.Cache.misses;
  Alcotest.(check int) "peek is free" 0 (Cache.peek c ~core:0 ~addr);
  let l1' = Cache.l1_stats c in
  Alcotest.(check int) "peek did not count" l1.Cache.hits l1'.Cache.hits

let test_eviction_set_shape () =
  let c = two_core_cache ~autolock:false () in
  let l2_set = 777 and base = 1 lsl 26 in
  let set = Cache.eviction_set c ~l2_set ~base in
  Alcotest.(check int) "ways members" (Cache.l2_ways c) (Array.length set);
  let line = Cache.line_size c in
  let span = Cache.l2_sets c * line in
  Array.iteri
    (fun i addr ->
      Alcotest.(check bool) "above base" true (addr >= base);
      Alcotest.(check int) "line aligned" 0 (addr mod line);
      Alcotest.(check int) "maps to the set" l2_set
        (Cache.l2_set_of_addr c ~addr);
      if i > 0 then
        Alcotest.(check int) "spaced one L2 span apart" span (addr - set.(i - 1)))
    set

(* The AutoLock primitive, deterministically: core 0 parks an eviction set
   (resident in its own L1, hence pinned when the toggle is on); core 1
   then streams a full conflicting set through the shared L2. *)
let autolock_duel ~autolock =
  let c = two_core_cache ~autolock () in
  let l2_set = 129 in
  let parked = Cache.eviction_set c ~l2_set ~base:(1 lsl 26) in
  Array.iter (fun addr -> ignore (Cache.touch c ~core:0 ~addr)) parked;
  let evictor = Cache.eviction_set c ~l2_set ~base:(1 lsl 27) in
  Array.iter (fun addr -> ignore (Cache.touch c ~core:1 ~addr)) evictor;
  c, parked

let test_cross_core_eviction_without_autolock () =
  let c, parked = autolock_duel ~autolock:false in
  Array.iter
    (fun addr ->
      Alcotest.(check int) "parked line fully evicted" 2
        (Cache.peek c ~core:0 ~addr))
    parked;
  Alcotest.(check bool) "L1 copies were back-invalidated" true
    (Cache.back_invalidations c >= Array.length parked);
  Alcotest.(check int) "no locked-set skips" 0 (Cache.autolock_skips c)

let test_autolock_pins_cross_core_eviction () =
  let c, parked = autolock_duel ~autolock:true in
  Array.iter
    (fun addr ->
      Alcotest.(check bool) "parked line survives" true
        (Cache.peek c ~core:0 ~addr <= 1))
    parked;
  Alcotest.(check bool) "fully-pinned set skipped L2 allocation" true
    (Cache.autolock_skips c > 0);
  (* A core can always re-evict its own lines: the same duel from core 0
     itself must still evict (Evict+Reload depends on this). *)
  let evictor = Cache.eviction_set c ~l2_set:301 ~base:(1 lsl 27) in
  let target = Cache.eviction_set c ~l2_set:301 ~base:(1 lsl 26) in
  ignore (Cache.touch c ~core:0 ~addr:target.(0));
  Array.iter (fun addr -> ignore (Cache.touch c ~core:0 ~addr)) evictor;
  Alcotest.(check int) "own line still evictable under AutoLock" 2
    (Cache.peek c ~core:0 ~addr:target.(0))

let test_config_validation () =
  Alcotest.check_raises "clusters must partition the cores"
    (Invalid_argument "Cache.create: clusters must partition the cores")
    (fun () ->
      ignore
        (Cache.create ~clusters:[| [| 0; 2 |] |] Cache.default_config));
  Alcotest.check_raises "line sizes must match"
    (Invalid_argument "Cache.create: L1 and L2 line sizes must match")
    (fun () ->
      ignore
        (Cache.create
           ~clusters:[| [| 0 |] |]
           {
             Cache.default_config with
             Cache.l1 = { Cache.sets = 32; ways = 4; line = 32 };
           }))

let test_cluster_mapping () =
  let c =
    Cache.create ~clusters:[| [| 0; 1 |]; [| 2 |] |] Cache.default_config
  in
  Alcotest.(check int) "core 1 -> cluster 0" 0 (Cache.cluster_of_core c ~core:1);
  Alcotest.(check int) "core 2 -> cluster 1" 1 (Cache.cluster_of_core c ~core:2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_policy_evicts_just_touched;
    QCheck_alcotest.to_alcotest prop_plru_is_lru_at_two_ways;
    QCheck_alcotest.to_alcotest prop_rand_victim_matches_reference;
    Alcotest.test_case "victim allocation-free" `Quick
      test_victim_allocation_free;
    Alcotest.test_case "policy validation" `Quick test_policy_validate;
    Alcotest.test_case "touch levels and counters" `Quick
      test_touch_levels_and_counters;
    Alcotest.test_case "eviction set shape" `Quick test_eviction_set_shape;
    Alcotest.test_case "cross-core eviction, AutoLock off" `Quick
      test_cross_core_eviction_without_autolock;
    Alcotest.test_case "AutoLock pins cross-core eviction" `Quick
      test_autolock_pins_cross_core_eviction;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "cluster mapping" `Quick test_cluster_mapping;
  ]
