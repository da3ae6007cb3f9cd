(* Simulator-throughput report: the host cost of the simulator itself.

   The fig7 sweep at bench scale, timed with the scheduler run-ahead fast
   path on and off.  `--json PATH` appends the numbers to a run-history
   JSON array (CI's BENCH_sim.json artifact) under `--label NAME`;
   `--sim-runs N` sets the repetitions; `--max-minor-words N` fails the
   run when the fast-path-on sweep allocates more minor words than N.
   The simulated-cycle results themselves are bin/experiments.exe's. *)

module Machine = Repro_sim.Machine

let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; Stdlib.exit 2) fmt

(* Host-time cost of the simulator itself on the fig7 sweep at bench scale
   (1% of the ops, processors 1..32) — the configuration the scheduler
   run-ahead fast path (DESIGN.md §S16) is gated on.  Each mode runs the
   full sweep of five backends (SkipQueue, Relaxed, lock-free, coalescing,
   klsm:256) [runs] times and reports host seconds per sweep, simulated
   events and memory accesses retired per host second, and the host GC
   cost per sweep (minor words, promoted words, major collections) — the
   flat-state metric DESIGN.md §S17 tracks — plus the GC's peak heap when
   the sweep ends.
   Results are byte-identical in both modes; only the host cost moves. *)

let fig7_bench_workload procs =
  {
    Repro_workload.Benchmark.procs;
    initial_size = 1000;
    total_ops = 400 (* fig7's 7000 ops under the bench scale floor *);
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = 1 lsl 20;
    seed = 42L;
  }

type sweep_cost = {
  seconds : float;
  events : int;
  accesses : int;
  minor_words : float;  (** per sweep *)
  promoted_words : float;  (** per sweep *)
  major_collections : float;  (** per sweep *)
  peak_heap_mb : float;
      (** the process's [top_heap_words] when the sweep ends; it never
          falls, so the fast-path-off sweep, run second, reports the
          larger of the two *)
}

let measure_sweep ~runs ~fast_path =
  let module QA = Repro_workload.Queue_adapter in
  let module B = Repro_workload.Benchmark in
  let impls =
    [
      QA.find QA.Sim "SkipQueue";
      QA.find QA.Sim "Relaxed SkipQueue";
      QA.find QA.Sim "SkipQueue-lf";
      QA.find QA.Sim "SkipQueue-co";
      QA.find QA.Sim "klsm:256";
    ]
  in
  let procs = [ 1; 2; 4; 8; 16; 32 ] in
  let events = ref 0 and accesses = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t0 = Sys.time () in
  for _ = 1 to runs do
    (* deterministic: every repetition retires the same counts *)
    events := 0;
    accesses := 0;
    List.iter
      (fun impl ->
        List.iter
          (fun p ->
            let m = B.run ~fast_path impl (fig7_bench_workload p) in
            events := !events + m.B.machine.Machine.events;
            accesses := !accesses + m.B.machine.Machine.accesses)
          procs)
      impls
  done;
  let dt = Sys.time () -. t0 in
  let gc1 = Gc.quick_stat () in
  let per_run x = x /. float_of_int runs in
  {
    seconds = per_run dt;
    events = !events;
    accesses = !accesses;
    minor_words = per_run (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    promoted_words = per_run (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    major_collections =
      per_run (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    peak_heap_mb = float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
  }

(* [BENCH_sim.json] is an appendable run history: a JSON array with one
   entry per bench invocation, so the perf trajectory accumulates across
   commits instead of being overwritten.  [read_history] runs before any
   sweep, so a file that is not such an array is refused before the
   measurement, not after it; it returns the array's text up to its
   closing bracket, or [None] while the array is empty. *)
let read_history path =
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> usage_error "--json %s: %s" path msg
    | text ->
      let s = String.trim text in
      let n = String.length s in
      if s = "" then None
      else if s.[0] = '[' && s.[n - 1] = ']' then
        match String.trim (String.sub s 0 (n - 1)) with "[" -> None | prefix -> Some prefix
      else usage_error "--json %s: not a JSON array" path

let write_history path prefix entry =
  let body =
    match prefix with
    | None -> Printf.sprintf "[\n%s\n]\n" entry
    | Some prefix -> Printf.sprintf "%s,\n%s\n]\n" prefix entry
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc body)

(* A JSON string literal: quote and backslash escaped, bytes below 0x20 as
   \u00XX, every other byte (UTF-8 included) passed through. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let sim_throughput ~runs ~label ~history =
  let on = measure_sweep ~runs ~fast_path:true in
  let off = measure_sweep ~runs ~fast_path:false in
  let rate n s = float_of_int n /. s in
  print_endline "=== simulator throughput: fig7 sweep, bench scale ===";
  Printf.printf "%-22s %12s %16s %18s %16s %10s %8s %12s\n" "scheduler" "s/sweep"
    "events/s" "accesses/s" "minor-w/sweep" "promoted" "majors" "peak-heap-MB";
  let line name c =
    Printf.printf "%-22s %12.4f %16.0f %18.0f %16.0f %10.0f %8.1f %12.2f\n" name c.seconds
      (rate c.events c.seconds)
      (rate c.accesses c.seconds)
      c.minor_words c.promoted_words c.major_collections c.peak_heap_mb
  in
  line "fast path on" on;
  line "fast path off" off;
  Printf.printf "fast-path speedup: %.2fx (%d simulated events, %d accesses per sweep)\n"
    (off.seconds /. on.seconds) on.events on.accesses;
  (match history with
  | None -> ()
  | Some (path, prefix) ->
    let mode c =
      Printf.sprintf
        {|{ "seconds_per_sweep": %.6f, "events_per_sec": %.0f, "accesses_per_sec": %.0f, "minor_words_per_sweep": %.0f, "promoted_words_per_sweep": %.0f, "major_collections_per_sweep": %.1f, "peak_heap_mb": %.2f }|}
        c.seconds (rate c.events c.seconds) (rate c.accesses c.seconds)
        c.minor_words c.promoted_words c.major_collections c.peak_heap_mb
    in
    let entry =
      Printf.sprintf
        {|  {
    "label": %s,
    "benchmark": "fig7 sweep, bench scale (1%% ops, procs 1..32, SkipQueue + Relaxed + lock-free + coalescing + klsm:256)",
    "runs_per_mode": %d,
    "simulated_events_per_sweep": %d,
    "simulated_accesses_per_sweep": %d,
    "fast_path_on": %s,
    "fast_path_off": %s,
    "fast_path_speedup": %.3f
  }|}
        (json_string label) runs on.events on.accesses (mode on) (mode off)
        (off.seconds /. on.seconds)
    in
    write_history path prefix entry;
    Printf.printf "appended run %S to %s\n" label path);
  on

(* --- driver ---------------------------------------------------------------- *)

let () =
  let json = ref None in
  let runs = ref 5 in
  let label = ref "dev" in
  let max_minor_words = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--sim-runs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some r when r >= 1 -> runs := r
      | _ -> usage_error "--sim-runs %s: must be an integer at least 1" n);
      parse rest
    | "--label" :: l :: rest ->
      label := l;
      parse rest
    | "--max-minor-words" :: n :: rest ->
      (* CI allocation budget: fail if the fast-path-on sweep allocates
         more minor words than this (allocation counts are stable on a
         1-core container, unlike wall time). *)
      (match float_of_string_opt n with
      | Some b when Float.is_finite b && b >= 0.0 -> max_minor_words := Some b
      | _ -> usage_error "--max-minor-words %s: must be a finite number at least 0" n);
      parse rest
    | [ ("--json" | "--sim-runs" | "--label" | "--max-minor-words") as flag ] ->
      usage_error "%s: needs a value" flag
    | arg :: _ ->
      usage_error
        "unknown argument %S (known: --json PATH, --sim-runs N, --label NAME, \
         --max-minor-words N)"
        arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let history = Option.map (fun path -> (path, read_history path)) !json in
  let on = sim_throughput ~runs:!runs ~label:!label ~history in
  match !max_minor_words with
  (* Written as [not (<=)] so that a non-finite measurement fails too. *)
  | Some budget when not (on.minor_words <= budget) ->
    Printf.eprintf "allocation budget exceeded: %.0f minor words/sweep > %.0f\n"
      on.minor_words budget;
    Stdlib.exit 1
  | Some budget ->
    Printf.printf "allocation budget ok: %.0f minor words/sweep <= %.0f\n"
      on.minor_words budget
  | None -> ()
