(* Schedule-exploration check driver: sweep N perturbation seeds over every
   registered simulator backend (or a chosen subset), validate each recorded
   history against the checker suite its declared spec selects, and report
   violations as replayable seeds.

     dune exec bin/check.exe -- --seeds 50
     dune exec bin/check.exe -- --backend skipqueue --seeds 200 --jitter 48
     dune exec bin/check.exe -- --replay 17 --backend heap
     dune exec bin/check.exe -- --blocking --seeds 25  # bounded façade under park/wake pressure
     dune exec bin/check.exe -- --broken        # torn-SWAP mutant; exit 0 iff caught
     dune exec bin/check.exe -- --broken all    # every planted mutant (Repro_check.Broken.all)

   --blocking switches to the producer/consumer harness: each selected
   backend is wrapped in the bounded façade at the blocking profile's
   capacity (8) and hammered through insert_wait/delete_min_wait, with
   the blocking-aware checkers (park/wake nesting, capacity bound) added
   to the suite.  Backend names may be given with or without their
   "bounded:" prefix there.

   Exit status: 0 all clean, 1 violations found, 2 usage error: an
   unknown name, --seeds, --procs, --ops or --jitter out of range (the
   reclamation ablation's collector processor takes one --procs slot),
   or --procs/--ops given with --blocking (all checked before anything
   runs), or a --jitter so large that a worker ran past the drain
   processor, which voids the run.  Under --broken the meaning flips: 0
   every chosen mutant (a name of Broken.all, or all; default swap) was
   caught on some seed, 1 at least one escaped.  Each mutant's line says
   on how many seeds it was caught. *)

open Cmdliner
module QA = Repro_workload.Queue_adapter
module Harness = Repro_check.Harness

let pp_spec = function
  | QA.Linearizable -> "linearizable"
  | QA.Quiescent _ -> "quiescent"
  | QA.Relaxed -> "relaxed"
  | QA.Rank_bounded _ -> "rank-bounded"

(* How a selected implementation is swept. *)
type harness = Plain of Harness.profile | Blocking

module Broken = Repro_check.Broken

let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; Stdlib.exit 2) fmt

(* Workers a run can spawn: the simulator's processor limit, less the
   root (which prefills) and the drain. *)
let max_procs = Repro_sim.Memory_model.default.Repro_sim.Memory_model.max_procs - 2

let mutant_names = String.concat ", " (List.map (fun m -> m.Broken.name) Broken.all)

(* (impl, harness, replay selector, name) quadruples for the sweep; a
   mutant's name is its --broken argument. *)
let select_impls backends broken blocking ~profile ~capacity =
  let mutant (m : Broken.t) =
    let harness =
      match m.Broken.harness with Broken.Plain -> Plain profile | Broken.Blocking -> Blocking
    in
    (m.Broken.impl ~capacity, harness, "--broken " ^ m.Broken.name, m.Broken.name)
  in
  (* --blocking sets every selected backend's façade to the profile's capacity *)
  let make d =
    let impl, harness =
      if blocking then (QA.make QA.Sim { d with QA.bounded = Some capacity }, Blocking)
      else (QA.make QA.Sim d, Plain profile)
    in
    (* The reclamation ablation spawns its collector beside the workers. *)
    if d.QA.base = QA.Reclamation && profile.Harness.procs >= max_procs then
      usage_error
        "--procs %d: %s spawns a collector processor beside the workers, so it runs at most %d"
        profile.Harness.procs impl.QA.name (max_procs - 1);
    (impl, harness, Printf.sprintf "--backend '%s'" impl.QA.name, impl.QA.name)
  in
  match broken with
  | Some "all" -> List.map mutant Broken.all
  | Some name -> (
    match List.find_opt (fun m -> m.Broken.name = name) Broken.all with
    | Some m -> [ mutant m ]
    | None -> usage_error "unknown mutant %S (known: %s, all)" name mutant_names)
  | None -> (
    match backends with
    | [] ->
      QA.registry QA.Sim
      |> List.filter (fun d -> (not blocking) || d.QA.bounded <> None)
      |> List.map make
    | names -> (
      let parse n = match QA.parse n with Ok d -> d | Error msg -> invalid_arg msg in
      try List.map (fun n -> make (parse n)) names
      with Invalid_argument msg -> usage_error "%s" msg))

let print_violation ~target ~harness (v : Harness.violation) =
  Printf.printf "  VIOLATION seed=%Ld check=%s\n    %s\n" v.Harness.seed v.Harness.check
    v.Harness.message;
  Printf.printf "    replay: dune exec bin/check.exe -- %s%s --replay %Ld%s\n"
    (if harness = Blocking then "--blocking " else "")
    target v.Harness.seed
    (match harness with
    | Plain profile when profile <> Harness.default_profile ->
      Printf.sprintf " --procs %d --ops %d --jitter %d" profile.Harness.procs
        profile.Harness.ops_per_proc profile.Harness.jitter
    | Plain _ | Blocking -> "")

let run seeds start_seed backends procs ops jitter broken mutant replay blocking quiet jobs =
  (* A sweep of no seeds would report a pass that checked nothing. *)
  if seeds < 1 then usage_error "--seeds %d: must be at least 1" seeds;
  if jitter < 0 then usage_error "--jitter %d: must be at least 0" jitter;
  if jobs < 1 then usage_error "--jobs %d: must be at least 1" jobs;
  (* The blocking harness runs its own fixed profile; only --jitter reaches it. *)
  if blocking && (procs <> None || ops <> None) then
    usage_error
      "--blocking takes no --procs or --ops: its profile fixes %d producers x %d items and %d \
       consumers"
      Harness.default_blocking_profile.Harness.producers
      Harness.default_blocking_profile.Harness.items_per_producer
      Harness.default_blocking_profile.Harness.consumers;
  let procs = Option.value procs ~default:Harness.default_profile.Harness.procs in
  let ops = Option.value ops ~default:Harness.default_profile.Harness.ops_per_proc in
  if procs < 1 || procs > max_procs then
    usage_error "--procs %d outside [1, %d]" procs max_procs;
  (* No operations would leave only the prefill to check. *)
  if ops < 1 then usage_error "--ops %d: must be at least 1" ops;
  let broken =
    if broken then Some (Option.value mutant ~default:"swap")
    else
      match mutant with
      | None -> None
      | Some m -> usage_error "stray argument %S (did you mean --broken %s?)" m m
  in
  let profile =
    {
      Harness.default_profile with
      Harness.procs;
      ops_per_proc = ops;
      jitter;
    }
  in
  let bprofile = { Harness.default_blocking_profile with Harness.jitter } in
  let impls =
    select_impls backends broken blocking ~profile ~capacity:bprofile.Harness.capacity
  in
  let seed_list =
    match replay with
    | Some s -> [ s ]
    | None -> Harness.seeds ~start:start_seed ~count:seeds
  in
  let summaries =
    try
      List.map
        (fun (impl, harness, target, name) ->
          ( (match harness with
            | Blocking -> Harness.sweep_blocking ~profile:bprofile ~jobs impl seed_list
            | Plain profile -> Harness.sweep_impl ~profile ~jobs impl seed_list),
            harness,
            target,
            name ))
        impls
    with Harness.Drain_overtaken { seed; drain_start; last_response } ->
      usage_error
        "--jitter %d: too large, seed %Ld delayed an operation to cycle %d, past the drain \
         processor's start at cycle %d"
        jitter seed last_response drain_start
  in
  (* The name column is 28 wide, or as wide as the longest selected name
     when that is longer (the default sweep's "bounded:Relaxed
     SkipQueue-elim" is 30). *)
  let width =
    List.fold_left
      (fun w ((s : Harness.summary), _, _, _) -> Int.max w (String.length s.Harness.impl))
      28 summaries
  in
  List.iter
    (fun ((s : Harness.summary), harness, target, _) ->
      if not quiet then
        Printf.printf "%-*s %-13s %4d seeds  %7d ops  %s\n" width s.Harness.impl
          (pp_spec s.Harness.spec)
          s.Harness.runs s.Harness.events
          (match s.Harness.violations with
          | [] -> "ok"
          | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs));
      List.iter (print_violation ~target ~harness) s.Harness.violations)
    summaries;
  let count (s : Harness.summary) = List.length s.Harness.violations in
  match broken with
  | Some _ ->
    (* Each mutant must be caught on its own: a caught mutant does not
       excuse one that escaped. *)
    if not quiet then print_newline ();
    let escaped =
      List.filter_map
        (fun ((s : Harness.summary), _, _, name) ->
          let seeds = List.map (fun v -> v.Harness.seed) s.Harness.violations in
          match List.sort_uniq compare seeds with
          | [] ->
            Printf.printf "mutant %s: ESCAPED, caught on 0 of %d seeds\n" name s.Harness.runs;
            Some name
          | caught ->
            if not quiet then
              Printf.printf "mutant %s: caught on %d of %d seeds (%d violations)\n" name
                (List.length caught) s.Harness.runs (count s);
            None)
        summaries
    in
    if escaped = [] then begin
      if not quiet then
        Printf.printf "broken-queue validation: every mutant caught — fuzzer works\n";
      0
    end
    else begin
      Printf.printf "broken-queue validation FAILED: %s escaped — fuzzer is blind\n"
        (String.concat ", " escaped);
      1
    end
  | None ->
    let total = List.fold_left (fun n (s, _, _, _) -> n + count s) 0 summaries in
    if total > 0 then begin
      Printf.printf "\n%d violation(s) — replay with the printed seeds\n" total;
      1
    end
    else begin
      if not quiet then
        Printf.printf "\nall clean: %d backend(s) x %d seed(s)%s\n" (List.length impls)
          (List.length seed_list)
          (if blocking then " (blocking harness)" else "");
      0
    end

let seeds =
  Arg.(
    value
    & opt int 50
    & info [ "seeds"; "n" ] ~docv:"N"
        ~doc:"Number of consecutive schedule seeds to sweep (at least 1).")

let start_seed =
  Arg.(
    value
    & opt int64 1L
    & info [ "start-seed" ] ~docv:"SEED" ~doc:"First seed of the sweep (seeds are SEED..SEED+N-1).")

let backends =
  Arg.(
    value
    & opt_all string []
    & info [ "backend"; "b" ] ~docv:"NAME"
        ~doc:
          "Backend to check (repeatable, registry names, case/space \
           insensitive).  Default: every registered simulator backend.")

let procs =
  Arg.(
    value
    & opt (some int) None
    & info [ "procs"; "p" ] ~docv:"P"
        ~doc:
          (Printf.sprintf
             "Worker processors per run, 1 to %d (default %d).  Not with $(b,--blocking)."
             max_procs Harness.default_profile.Harness.procs))

let ops =
  Arg.(
    value
    & opt (some int) None
    & info [ "ops" ] ~docv:"K"
        ~doc:
          (Printf.sprintf "Operations per worker processor (default %d).  Not with $(b,--blocking)."
             Harness.default_profile.Harness.ops_per_proc))

let jitter =
  Arg.(
    value
    & opt int Harness.default_profile.Harness.jitter
    & info [ "jitter" ] ~docv:"CYCLES"
        ~doc:"Max extra scheduling delay per event (0 randomizes only same-time tie-breaks).")

let broken =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:
          "Sweep intentionally racy mutants instead; exit 0 only if the \
           checkers catch every one of them on some seed (fuzzer \
           self-test).  Takes an optional positional mutant name (see \
           $(i,MUTANT)).  $(b,wakeup) is swept under the blocking \
           harness.")

let mutant =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"MUTANT"
        ~doc:(Printf.sprintf "Mutant for $(b,--broken): %s or all (default swap)." mutant_names))

let blocking =
  Arg.(
    value & flag
    & info [ "blocking" ]
        ~doc:
          "Sweep the blocking producer/consumer harness instead: each \
           selected backend is wrapped in the bounded façade at capacity 8 \
           and driven through $(b,insert_wait)/$(b,delete_min_wait), with \
           the blocking-aware checkers added.  Default backends: the \
           registry's bounded: entries.")

let replay =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED" ~doc:"Run exactly one seed (reproduce a reported violation).")

let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print violations and the final line only.")

let jobs =
  Arg.(
    value
    & opt int (Repro_workload.Jobs.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains sweeping seeds concurrently (at least 1).  Verdicts are \
           identical for any value; 1 disables parallelism.")

let cmd =
  let doc = "sweep schedule seeds over the queue backends and check the recorded histories" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ seeds $ start_seed $ backends $ procs $ ops $ jitter $ broken $ mutant $ replay
      $ blocking $ quiet $ jobs)

let () = Stdlib.exit (Cmd.eval' cmd)
