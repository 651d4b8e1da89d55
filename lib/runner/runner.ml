module Obs = Satin_obs.Obs
module Progress = Satin_obs.Progress

type t = { jobs : int; effective_jobs : int; mutable last_wall_s : float }

(* Domains beyond the host's cores only add GC-synchronization stalls:
   BENCH_runner.json showed --jobs 4 running at 0.22-0.74x of --jobs 1 on
   a 1-core host before the clamp. The requested width is kept for
   reporting; dispatch uses the clamped width. *)
let host_cores () = Domain.recommended_domain_count ()

let create ?(clamp = true) ?(jobs = 1) () =
  if jobs < 1 then invalid_arg "Runner.create: jobs must be >= 1";
  let cores = host_cores () in
  if clamp && jobs > cores then
    Printf.eprintf
      "runner: --jobs %d exceeds the %d available core(s); clamping to %d\n%!"
      jobs cores cores;
  let effective_jobs = if clamp then min jobs cores else jobs in
  { jobs; effective_jobs; last_wall_s = 0.0 }

let sequential = create ()
let jobs t = t.jobs
let effective_jobs t = t.effective_jobs
let last_batch_wall_s t = t.last_wall_s

(* Set while the current domain is executing a trial body; [map] from a
   flagged domain is a nested fan-out and is rejected. *)
let in_trial = Domain.DLS.new_key (fun () -> false)

type 'a cell =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

let run_trial f i =
  match f i with
  | v ->
      Progress.trial_done ~hit:false;
      Done v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Failed (e, bt)

(* Submission-order collection: Array.map visits indices in order, so the
   lowest-indexed failure is the one re-raised. *)
let collect results =
  Array.map
    (function
      | Done v -> v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending -> assert false)
    results

let record_metrics ~n ~requested ~effective ~wall executed =
  Obs.incr "runner.batches";
  Obs.incr "runner.trials" ~by:n;
  Obs.set_gauge "runner.queue_depth" 0.0;
  (* Wall time is the one nondeterministic reading here; it goes to the
     segregated real-time registry so --metrics output stays byte-stable.
     The pool widths and the per-domain trial counts join it: the width is
     a property of the host (the clamp), and which domain steals which
     trial is a property of the scheduling, not of the simulated run. *)
  Obs.observe_wall "runner.batch_wall_s" wall;
  Obs.observe_wall "runner.jobs_requested" (float_of_int requested);
  Obs.observe_wall "runner.jobs_effective" (float_of_int effective);
  Array.iteri
    (fun w c ->
      Obs.observe_wall "runner.domain_trials"
        ~labels:[ ("domain", string_of_int w) ]
        (float_of_int c))
    executed

let map pool n f =
  if n < 0 then invalid_arg "Runner.map: negative batch size";
  if Domain.DLS.get in_trial then
    invalid_arg "Runner.map: nested use (map called from inside a trial)";
  let jobs = min pool.effective_jobs n in
  Obs.set_gauge "runner.queue_depth" (float_of_int n);
  Progress.batch_start n;
  let wall0 = Unix.gettimeofday () in
  let results = Array.make n Pending in
  (* Under an observability state, each trial records into a child of it
     on whichever domain runs the trial; the children are merged back in
     index order once the batch is done, so the caller's state ends up as
     a sequential run would have left it. *)
  let parent = Obs.current () in
  let children =
    match parent with None -> [||] | Some p -> Array.init n (fun _ -> Obs.fork p)
  in
  let run i =
    results.(i) <-
      (match parent with
      | None -> run_trial f i
      | Some _ -> Obs.with_state children.(i) (fun () -> run_trial f i))
  in
  let executed =
    if jobs <= 1 then begin
      Domain.DLS.set in_trial true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_trial false)
        (fun () ->
          for i = 0 to n - 1 do
            run i
          done);
      [| n |]
    end
    else begin
      let next = Atomic.make 0 in
      let executed = Array.make jobs 0 in
      (* Work stealing over a chunked atomic cursor: each worker claims a
         run of [chunk] indices per fetch-and-add, amortizing the shared-
         counter traffic and domain wake-ups over several trials while
         leaving enough chunks (about 8 per worker) for load balancing.
         Each worker writes private result slots, so domains never touch
         the same location and the result array is index-ordered by
         construction. *)
      let chunk = max 1 (n / (jobs * 8)) in
      let worker w =
        Domain.DLS.set in_trial true;
        let count = ref 0 in
        let rec loop () =
          let lo = Atomic.fetch_and_add next chunk in
          if lo < n then begin
            let hi = min (lo + chunk) n in
            for i = lo to hi - 1 do
              run i;
              incr count
            done;
            loop ()
          end
        in
        loop ();
        Domain.DLS.set in_trial false;
        executed.(w) <- !count
      in
      let others =
        Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Domain.join others)
        (fun () -> worker 0);
      executed
    end
  in
  Option.iter (fun p -> Array.iter (Obs.merge ~into:p) children) parent;
  let wall = Unix.gettimeofday () -. wall0 in
  pool.last_wall_s <- wall;
  record_metrics ~n ~requested:pool.jobs ~effective:jobs ~wall executed;
  collect results

let map_cached pool n ~lookup ?(on_computed = fun _ _ -> ()) f =
  if n < 0 then invalid_arg "Runner.map_cached: negative batch size";
  (* Resolution runs on the submitting domain, in index order, before any
     dispatch — the resolved set (and therefore the miss set handed to the
     pool) is independent of jobs width. *)
  let resolved = Array.init n lookup in
  let misses = ref [] in
  for i = n - 1 downto 0 do
    if resolved.(i) = None then misses := i :: !misses
  done;
  let misses = Array.of_list !misses in
  let resolved_count = n - Array.length misses in
  Obs.incr "runner.trials_resolved" ~by:resolved_count;
  (* Progress accounting split: this layer reports the warm trials, the
     inner [map] reports the misses it actually runs — together exactly
     [n], with no double count. *)
  if Progress.enabled () && resolved_count > 0 then begin
    Progress.batch_start resolved_count;
    for _ = 1 to resolved_count do
      Progress.trial_done ~hit:true
    done
  end;
  let computed =
    map pool (Array.length misses) (fun j ->
        let i = misses.(j) in
        let v = f i in
        on_computed i v;
        v)
  in
  Array.iteri (fun j i -> resolved.(i) <- Some computed.(j)) misses;
  Array.map (function Some v -> v | None -> assert false) resolved

let map_list pool items f =
  let arr = Array.of_list items in
  Array.to_list (map pool (Array.length arr) (fun i -> f arr.(i)))
