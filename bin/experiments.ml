(* Command-line driver regenerating every table and figure of the paper's
   evaluation (plus ablations) on the simulator.

     experiments fig3                 # one figure, paper scale
     experiments all --scale 0.1     # everything, 10% of the operations
     experiments fig5 --max-procs 64 --quiet *)

open Cmdliner

let run_native domains_top scale quiet =
  let progress msg = if not quiet then Printf.eprintf "[run] %s\n%!" msg in
  let module QA = Repro_workload.Queue_adapter in
  (* A bounded façade would park forever here: the sweep's deletes have
     no producer to wait for. *)
  let impls =
    QA.registry QA.Native
    |> List.filter (fun d -> d.QA.bounded = None)
    |> List.map (QA.make QA.Native)
  in
  let rec domain_counts d = if d > domains_top then [] else d :: domain_counts (2 * d) in
  let workload =
    {
      Repro_workload.Benchmark.default_workload with
      Repro_workload.Benchmark.initial_size = 1000;
      total_ops = Int.max 1_000 (int_of_float (100_000.0 *. scale));
      work_cycles = 100;
    }
  in
  let header = "domains" :: List.map (fun i -> i.QA.name ^ " kops/s") impls in
  let row domains =
    string_of_int domains
    :: List.map
         (fun impl ->
           progress (Printf.sprintf "%s @ %d domains" impl.QA.name domains);
           let m =
             Repro_workload.Benchmark.native impl
               { workload with Repro_workload.Benchmark.procs = domains }
           in
           Repro_util.Table.float_cell ~decimals:1
             (m.Repro_workload.Benchmark.throughput_ops_per_sec /. 1000.0))
         impls
  in
  let table = Repro_util.Table.render ~header (List.map row (domain_counts 1)) in
  print_string ("Native throughput (thousands of operations per second, wall clock)\n" ^ table);
  0

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_figures ids scale max_procs_log2 domains output quiet jobs =
  let progress msg = if not quiet then Printf.eprintf "[run] %s\n%!" msg in
  let options = { Repro_workload.Figures.scale; max_procs_log2; progress; jobs } in
  let known = Repro_workload.Figures.all in
  let targets =
    match ids with
    | [] | [ "all" ] -> List.map fst known
    | ids -> ids
  in
  (match output with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  List.iter
    (fun id ->
      if id = "native" then ignore (run_native domains scale quiet)
      else
        match List.assoc_opt id known with
        | Some f ->
          let result = f options in
          let rendered = Repro_workload.Figures.render result in
          print_string rendered;
          print_newline ();
          (match output with
          | None -> ()
          | Some dir ->
            write_file (Filename.concat dir (id ^ ".txt")) rendered;
            if result.Repro_workload.Figures.data <> [] then
              write_file
                (Filename.concat dir (id ^ ".csv"))
                (Repro_workload.Figures.to_csv result))
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n%!" id
            (String.concat ", " ("native" :: List.map fst known));
          Stdlib.exit 2)
    targets;
  0

let ids =
  let doc =
    Printf.sprintf
      "Experiments to run: %s, 'native' (real-domain sweep), or 'all' (every \
       simulator experiment)."
      (String.concat ", " (List.map fst Repro_workload.Figures.all))
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let scale =
  let doc =
    "Scale factor on operation counts (1.0 = the paper's 60000-70000 \
     operations).  Use 0.05-0.2 for quick shape checks."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let max_procs =
  let doc = "Top of the processor sweep (at least 1; rounded down to a power of two)." in
  Arg.(value & opt int 256 & info [ "max-procs" ] ~docv:"N" ~doc)

let quiet =
  let doc = "Suppress per-run progress output on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let domains =
  let doc = "Top of the domain sweep for the 'native' experiment (1 to 127)." in
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc)

let output =
  let doc = "Also write each experiment's rendered text and CSV data here." in
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"DIR" ~doc)

let jobs =
  let doc =
    "Domains running independent sweep points concurrently (at least 1).  \
     Results are identical for any value; 1 disables parallelism."
  in
  Arg.(
    value
    & opt int (Repro_workload.Jobs.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cmd =
  let doc =
    "regenerate the evaluation of 'Skiplist-Based Concurrent Priority Queues'"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the paper's synthetic benchmarks on the bundled Proteus-like \
         multiprocessor simulator and prints each figure's data in the \
         paper's layout, followed by computed shape indicators (latency \
         ratios and crossover points) for comparison with the published \
         curves.";
    ]
  in
  let term =
    Term.(
      const (fun ids scale max_procs domains output quiet jobs ->
          let usage_error option value =
            Printf.eprintf "%s %d: must be at least 1\n" option value;
            Stdlib.exit 2
          in
          (* A non-positive or NaN scale would run every point at the
             operation floor. *)
          if not (Float.is_finite scale && scale > 0.0) then begin
            Printf.eprintf "--scale %s: must be a finite number above 0\n"
              (if Float.is_nan scale then "nan" else Printf.sprintf "%g" scale);
            Stdlib.exit 2
          end;
          if max_procs < 1 then usage_error "--max-procs" max_procs;
          if domains < 1 then usage_error "--domains" domains;
          (* The sweep doubles up to [domains]; refuse before a run fails
             mid-spawn with domains already running. *)
          let max_domains = Repro_runtime.Native_runtime.max_processors in
          if domains > max_domains then begin
            Printf.eprintf "--domains %d: the native sweep runs at most %d (OCaml's 128-domain limit)\n"
              domains max_domains;
            Stdlib.exit 2
          end;
          if jobs < 1 then usage_error "--jobs" jobs;
          let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
          let max_procs_log2 = log2 max_procs in
          (* The sweep's top point must fit the simulator's processor
             limit, less the root and the post-mortem reader; refuse it
             here rather than fail inside the first run that reaches it. *)
          let limit = Repro_sim.Memory_model.default.Repro_sim.Memory_model.max_procs - 2 in
          if max_procs_log2 > log2 limit then begin
            Printf.eprintf
              "--max-procs %d: the sweep's top point, %d processors, exceeds the simulator's \
               limit of %d (--max-procs at most %d)\n"
              max_procs (1 lsl max_procs_log2) limit ((2 lsl log2 limit) - 1);
            Stdlib.exit 2
          end;
          run_figures ids scale max_procs_log2 domains output quiet jobs)
      $ ids $ scale $ max_procs $ domains $ output $ quiet $ jobs)
  in
  Cmd.v (Cmd.info "experiments" ~doc ~man) term

let () = Stdlib.exit (Cmd.eval' cmd)
