(* pqbench: per-backend simulated and native priority-queue throughput.

     dune exec --root . ./pqbench/pqbench.exe -- --workload NAME
       [--seed N] [--seconds S] [--trace 0|1]

   Prints every metric with its unit, then, as the last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer ones with --trace 1 (which also writes
   the traced run's spans and metrics to pqbench/_out/).  Exits 1 when any
   output check fails, and is killed by SIGALRM if it runs 150 s past its
   budget. *)

open Pqbench_lib

(* Each list mirrors BENCHMARK.json.  An end-to-end metric must repeat
   across seeds and runs within its bound, so those over backends cover the
   steady ones only ([Workloads.steady]).  klsm's throughput and everything
   it dominates (raw host seconds, its p99) are per-layer, and so are host
   speed and native throughput: on a shared two-core machine whole runs
   slow down by a quarter and more.  [setup_s] stays end to end: it is the
   benchmark's set-up time, and since the prefill runs through the
   simulator it also guards host speed. *)
let steady =
  List.map Workloads.label (List.filter Workloads.steady Workloads.backends)

let all_backends = List.map Workloads.label Workloads.backends

let end_to_end =
  List.map (fun b -> b ^ ".sim_ops_per_mcycle") steady
  @ [ "sim_p99_cycles"; "rank_error_mean"; "setup_s"; "peak_heap_mb" ]

let per_layer =
  [
    "host_ns_per_event";
    "machine.events";
    "machine.events_per_host_s";
    "machine.residual_ns_per_event";
    "event_queue.op_ns";
    "memory_model.access_ns";
    "host_s";
    "gc.minor_mwords";
    "gc.major_collections";
    "machine.hit_share";
    "machine.queued_cycles_per_op";
    "machine.lock_wait_cycles_per_op";
    "machine.lock_contentions";
    "machine.cond_wait_cycles_per_op";
    "klsm.sim_ops_per_mcycle";
  ]
  @ List.concat_map
      (fun b ->
        List.map (( ^ ) (b ^ "."))
          ([
             "host_s";
             "setup_s";
             "native_ops_per_s";
             "insert_p50_cycles";
             "insert_p99_cycles";
             "delete_p50_cycles";
             "delete_p99_cycles";
             "native_p50_ns";
             "native_p99_ns";
             "native_lock_acq_per_op";
           ]
          @ List.map (( ^ ) "cycles.") Spans.causes))
      all_backends
  @ List.concat_map
      (fun b ->
        List.map (( ^ ) (b ^ "."))
          [ "hunt_steps_per_delete"; "swap_loss_share"; "stale_skips_per_delete" ])
      [ "skipqueue"; "relaxed" ]
  @ [
      "lf.cas_fail_per_op";
      "lf.marked_hops_per_insert";
      "lf.restructure_skips";
      "co.coalesced_share";
      "co.node_splits";
      "co.swap_loss_share";
      "klsm.flushes_per_insert";
      "klsm.merges";
      "klsm.spy_sweeps";
      "klsm.cas_fail_per_op";
      "klsm.blocks";
      "bounded_queue.parks";
      "bounded_queue.wakes";
      "bounded_queue.backpressure_stalls";
      "native_runtime.get_time_ns";
      "native_runtime.get_time_contended_ns";
      "native_runtime.mutex_ns";
      "native_runtime.mutex_contended_ns";
      "workload.dup_insert_share";
      "workload.empty_delete_share";
      "trace.overhead_share";
      "failed_op_share";
    ]

let usage () =
  Printf.eprintf
    "usage: pqbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" Workloads.names);
  exit 2

let json_metrics selected =
  String.concat ", "
    (List.map
       (fun (name, (value, unit_)) ->
         Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name value unit_)
       selected)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 20.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* A queue that loses an element can leave a native domain blocked
     forever; SIGALRM's default action ends such a run with a failure. *)
  ignore (Unix.alarm (int_of_float !seconds + 150));
  let w =
    match !workload with
    | None -> usage ()
    | Some name -> (
      try Workloads.find name
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 2)
  in
  Printf.printf "pqbench: workload %s, seed %d, %.0f s, trace %b\n" w.Workloads.name !seed !seconds
    !trace;
  List.iter (fun b -> print_endline ("  " ^ Workloads.describe w b)) Workloads.backends;
  let r = Run.run w ~seed:(Int64.of_int !seed) ~seconds:!seconds ~trace:!trace in
  let selected, unmeasured =
    List.partition_map
      (fun n ->
        match List.assoc_opt n r.Run.metrics with
        | Some (v, u) when Float.is_finite v -> Left (n, (v, u))
        | _ -> Right n)
      (if !trace then per_layer else end_to_end)
  in
  let problems =
    r.Run.problems @ List.map (Printf.sprintf "metric %s has no finite value") unmeasured
  in
  List.iter (fun (n, (v, u)) -> Printf.printf "  %-40s %16.6g %s\n" n v u) r.Run.metrics;
  List.iter (fun p -> print_endline ("FAILED: " ^ p)) problems;
  (match r.Run.spans with
  | None -> ()
  | Some spans ->
    let dir = Filename.concat "pqbench" "_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" w.Workloads.name !seed)
    in
    let oc = open_out path in
    Printf.fprintf oc "{\"workload\": %S, \"seed\": %d,\n\"metrics\": {%s},\n\"spans\": %s}\n"
      w.Workloads.name !seed (json_metrics selected)
      (Spans.to_json spans ~backend_names:all_backends);
    close_out oc;
    Printf.printf "spans written to %s\n" path);
  let correct = problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.Run.attempted r.Run.failed (json_metrics selected);
  exit (if correct then 0 else 1)
