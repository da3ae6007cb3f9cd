(* One benchmark run.  Untraced rounds repeat the simulated pass of the five
   backends on the same seeded inputs until the time budget is spent (at
   least [min_rounds] times): simulated results must repeat exactly, and
   host and set-up times are taken per backend over the rounds.  A traced run
   adds native rounds (reps interleaved backend by backend), a traced
   simulated pass, timed native reps and the single-layer rows. *)

module W = Workloads
module Stats = Repro_util.Stats
module Machine = Repro_sim.Machine

let min_rounds = 3
let native_rounds = 3
let backends = Array.of_list W.backends
let nb = Array.length backends

type t = {
  metrics : (string * (float * string)) list;  (** name -> (value, unit) *)
  attempted : int;
  failed : int;
  problems : string list;  (** why the run is not correct; empty when it is *)
  spans : Spans.t option;
}

(* A full collection before every timed pass, so no pass pays for the
   garbage of the one before it. *)
let clean f =
  Gc.full_major ();
  f ()

(* Rounds of simulated passes, and the GC's peak heap over the first
   round's steady-backend passes: they allocate deterministically, and
   nothing else has run yet. *)
let sim_rounds w plan ~seconds =
  let start = Clock.now_ns () in
  let peak_words = ref 0 in
  let pass n b =
    let r = clean (fun () -> Sim_pass.run (W.sim_impl w b) plan) in
    if n = 0 && W.steady b then
      peak_words := Int.max !peak_words (Gc.quick_stat ()).Gc.top_heap_words;
    r
  in
  let rec go acc n =
    let t0 = Clock.now_ns () in
    let round = Array.map (pass n) backends in
    let now = Clock.now_ns () in
    if n + 1 < min_rounds || now -. start +. (now -. t0) <= seconds *. 1e9 then
      go (round :: acc) (n + 1)
    else List.rev (round :: acc)
  in
  let rounds = go [] 0 in
  (rounds, !peak_words)

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b
let geomean xs = exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. fi (List.length xs))

let run w ~seed ~seconds ~trace =
  let sim_plan = W.sim_plan w ~seed and native_plan = W.native_plan w ~seed in
  (* A traced run spends its time on the traced extras: its untraced
     rounds, which only feed per-layer medians, stop at [min_rounds]. *)
  let rounds, peak_words = sim_rounds w sim_plan ~seconds:(if trace then 0.0 else seconds) in
  let natives =
    if not trace then []
    else
      List.init native_rounds (fun _ ->
          Array.map
            (fun b -> clean (fun () -> Native_pass.run (W.native_impl w b) native_plan))
            backends)
  in
  let sims = List.hd rounds in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let tally ~what i ~attempted:a ~failed:f ~error =
    attempted := !attempted + a;
    failed := !failed + f;
    Option.iter (problem "%s %s: %s" what (W.label backends.(i))) error;
    if f > 0 then problem "%s %s: %d wrong outputs" what (W.label backends.(i)) f
  in
  let same_as_first ~what i (s : Sim_pass.t) =
    if Sim_pass.digest s <> Sim_pass.digest sims.(i) then
      problem "simulated %s: the %s pass differs from the first" (W.label backends.(i)) what
  in
  List.iter
    (Array.iteri (fun i (s : Sim_pass.t) ->
         tally ~what:"simulated" i ~attempted:s.attempted ~failed:s.failed ~error:s.error;
         same_as_first ~what:"repeated" i s))
    rounds;
  List.iter
    (Array.iteri (fun i (n : Native_pass.t) ->
         tally ~what:"native" i ~attempted:n.attempted ~failed:n.failed ~error:n.error))
    natives;
  let metrics = ref [] in
  let add name unit_ value = metrics := (name, (value, unit_)) :: !metrics in
  let per_backend f = Array.iteri (fun i b -> f i (W.label b)) backends in
  let median_over rs f = Pctl.median_float (List.map f rs) in
  (* A busy shared host only ever adds time, in bursts of a second or two
     and phases of a minute: the fastest round of a pass repeats across runs
     about three times more tightly than the median round, so host times
     are minima.  Set-up times are medians. *)
  let host_ns i =
    List.fold_left (fun m r -> Float.min m r.(i).Sim_pass.host_ns) infinity rounds
  in
  let setup_ns i = median_over rounds (fun r -> r.(i).Sim_pass.setup_ns) in
  let events i = fi sims.(i).Sim_pass.report.Machine.events in
  let steady = List.filter (fun i -> W.steady backends.(i)) (List.init nb Fun.id) in
  (* --- end to end --- *)
  per_backend (fun i b ->
      add (b ^ ".sim_ops_per_mcycle") "ops/Mcycle" (Sim_pass.ops_per_mcycle sims.(i)));
  add "sim_p99_cycles" "cycles"
    (geomean (List.map (fun i -> fi (Pctl.p99 (Sim_pass.all_lat sims.(i)))) steady));
  let relaxed = [ sims.(1); sims.(4) ] in
  add "rank_error_mean" "elements"
    (ratio
       (List.fold_left (fun a (s : Sim_pass.t) -> a +. Stats.total s.ranks) 0.0 relaxed)
       (fi (List.fold_left (fun a (s : Sim_pass.t) -> a + Stats.count s.ranks) 0 relaxed)));
  add "setup_s" "s" (sum setup_ns (Array.init nb Fun.id) /. 1e9);
  add "peak_heap_mb" "MB" (fi (peak_words * (Sys.word_size / 8)) /. 1e6);
  (* --- per layer: host cost of the simulator --- *)
  let total_host_ns = sum host_ns (Array.init nb Fun.id) in
  let total_events = sum events (Array.init nb Fun.id) in
  add "host_ns_per_event" "ns" (geomean (List.map (fun i -> host_ns i /. events i) steady));
  add "host_s" "s" (total_host_ns /. 1e9);
  add "machine.events" "count" total_events;
  add "machine.events_per_host_s" "1/s" (total_events /. (total_host_ns /. 1e9));
  per_backend (fun i b ->
      add (b ^ ".host_s") "s" (host_ns i /. 1e9);
      add (b ^ ".setup_s") "s" (setup_ns i /. 1e9));
  add "gc.minor_mwords" "Mwords"
    (median_over rounds (fun r -> sum (fun (s : Sim_pass.t) -> s.minor_words) r) /. 1e6);
  add "gc.major_collections" "count"
    (median_over rounds (fun r -> sum (fun (s : Sim_pass.t) -> fi s.major_collections) r));
  (* --- per layer: simulated cost --- *)
  add "machine.lock_contentions" "count"
    (sum (fun (s : Sim_pass.t) -> fi s.report.Machine.lock_contentions) sims);
  per_backend (fun i b ->
      let s = sims.(i) in
      add (b ^ ".insert_p50_cycles") "cycles" (fi (Pctl.p50 s.insert_lat));
      add (b ^ ".insert_p99_cycles") "cycles" (fi (Pctl.p99 s.insert_lat));
      add (b ^ ".delete_p50_cycles") "cycles" (fi (Pctl.p50 s.delete_lat));
      add (b ^ ".delete_p99_cycles") "cycles" (fi (Pctl.p99 s.delete_lat)));
  (* --- per layer: backend counters, over the prefill and the measured
     calls --- *)
  let deletes (s : Sim_pass.t) = fi (Array.length s.delete_lat) in
  let claims (s : Sim_pass.t) = deletes s -. fi s.empty_deletes in
  let inserts (s : Sim_pass.t) =
    fi (Array.length s.insert_lat + Array.length (W.prefill sim_plan))
  in
  let stat = Sim_pass.stat in
  let swap_loss_share s = ratio (stat s "swap_losses") (stat s "swap_losses" +. claims s) in
  List.iter
    (fun (i, b) ->
      let s = sims.(i) in
      add (b ^ ".hunt_steps_per_delete") "steps" (ratio (stat s "hunt_steps") (deletes s));
      add (b ^ ".swap_loss_share") "share" (swap_loss_share s);
      add (b ^ ".stale_skips_per_delete") "count" (ratio (stat s "stale_skips") (deletes s)))
    [ (0, "skipqueue"); (1, "relaxed") ];
  let lf = sims.(2) and co = sims.(3) and klsm = sims.(4) in
  add "lf.cas_fail_per_op" "count" (ratio (stat lf "cas_failures") (fi lf.attempted));
  add "lf.marked_hops_per_insert" "count" (ratio (stat lf "marked_hops") (inserts lf));
  add "lf.restructure_skips" "count" (stat lf "restructure_skips");
  add "co.coalesced_share" "share" (ratio (stat co "coalesced_inserts") (inserts co));
  add "co.node_splits" "count" (stat co "node_splits");
  add "co.swap_loss_share" "share" (swap_loss_share co);
  add "klsm.flushes_per_insert" "count" (ratio (stat klsm "flushes") (inserts klsm));
  add "klsm.merges" "count" (stat klsm "merges");
  add "klsm.spy_sweeps" "count" (stat klsm "spy_sweeps");
  add "klsm.cas_fail_per_op" "count" (ratio (stat klsm "cas_failures") (fi klsm.attempted));
  add "klsm.blocks" "count" (stat klsm "blocks");
  List.iter
    (fun k -> add ("bounded_queue." ^ k) "count" (sum (fun s -> stat s k) sims))
    [ "parks"; "wakes"; "backpressure_stalls" ];
  (* --- per layer: input properties --- *)
  add "workload.dup_insert_share" "share"
    (ratio
       (sum (fun (s : Sim_pass.t) -> fi s.dup_inserts) sims)
       (sum (fun (s : Sim_pass.t) -> fi (Array.length s.insert_lat)) sims));
  add "workload.empty_delete_share" "share"
    (ratio (sum (fun (s : Sim_pass.t) -> fi s.empty_deletes) sims) (sum deletes sims));
  (* --- traced run --- *)
  let spans =
    if not trace then None
    else begin
      per_backend (fun i b ->
          add (b ^ ".native_ops_per_s") "ops/s"
            (median_over natives (fun r -> Native_pass.ops_per_s r.(i))));
      let spans = Spans.create ~backends:nb () in
      let traced_ns =
        sum
          (fun i ->
            let b = backends.(i) in
            Spans.start_backend spans i;
            let s = clean (fun () -> Sim_pass.run ~spans (W.sim_impl w b) sim_plan) in
            Spans.finish_backend spans ~name:(W.label b) ~host_ns:s.host_ns
              ~sim_cycles:s.report.Machine.end_time;
            same_as_first ~what:"traced" i s;
            s.host_ns)
          (Array.init nb Fun.id)
      in
      add "trace.overhead_share" "share" (ratio traced_ns total_host_ns -. 1.0);
      let means, hit_share = Spans.cause_means spans ~keep:(fun _ -> true) in
      add "machine.hit_share" "share" hit_share;
      add "machine.queued_cycles_per_op" "cycles" means.(3);
      add "machine.lock_wait_cycles_per_op" "cycles" means.(4);
      add "machine.cond_wait_cycles_per_op" "cycles" means.(5);
      per_backend (fun i b ->
          let means, _ = Spans.cause_means spans ~keep:(( = ) i) in
          List.iteri (fun c cause -> add (b ^ ".cycles." ^ cause) "cycles" means.(c)) Spans.causes);
      let access_ns = Layers.memory_model_access_ns spans in
      add "memory_model.access_ns" "ns" access_ns;
      let accesses = sum (fun (s : Sim_pass.t) -> fi s.report.Machine.accesses) sims in
      add "machine.residual_ns_per_event" "ns"
        ((total_host_ns -. (accesses *. access_ns)) /. total_events);
      add "event_queue.op_ns" "ns" (Layers.event_queue_op_ns ~procs:(W.sim_procs w));
      per_backend (fun i b ->
          let n =
            clean (fun () -> Native_pass.run ~timed:true (W.native_impl w backends.(i)) native_plan)
          in
          tally ~what:"native timed" i ~attempted:n.attempted ~failed:n.failed ~error:n.error;
          add (b ^ ".native_p50_ns") "ns" (fi (Pctl.p50 n.call_ns));
          add (b ^ ".native_p99_ns") "ns" (fi (Pctl.p99 n.call_ns));
          add (b ^ ".native_lock_acq_per_op") "count"
            (ratio (fi n.lock_acquisitions) (fi n.calls)));
      List.iter (fun (name, v) -> add name "ns" v) (Layers.native_micro ());
      Some spans
    end
  in
  add "failed_op_share" "share" (ratio (fi !failed) (fi !attempted));
  {
    metrics = List.rev !metrics;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    spans;
  }
