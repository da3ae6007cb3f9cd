module Machine = Repro_sim.Machine
module Plot = Repro_util.Ascii_plot
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module QA = Queue_adapter
module Summary = Repro_sim.Trace.Summary

type result = {
  id : string;
  title : string;
  body : string;
  indicators : (string * float) list;
  data : (string * (float * float * float) list) list;
}

type options = {
  scale : float;
  max_procs_log2 : int;
  progress : string -> unit;
  jobs : int;
}

let default_options =
  { scale = 1.0; max_procs_log2 = 8; progress = ignore; jobs = 1 }

let to_csv r =
  String.concat ""
    ("series,x,delete_latency,insert_latency\n"
    :: List.concat_map
         (fun (name, rows) ->
           List.map (fun (x, d, i) -> Printf.sprintf "%s,%g,%g,%g\n" name x d i) rows)
         r.data)

let render r =
  Printf.sprintf "== %s — %s ==\n\n%s" r.id r.title r.body
  ^
  if r.indicators = [] then ""
  else
    "\nShape indicators:\n"
    ^ String.concat ""
        (List.map (fun (name, v) -> Printf.sprintf "  %-55s %8.2f\n" name v) r.indicators)

let scaled options n = Int.max 400 (int_of_float (float_of_int n *. options.scale))
let proc_counts options = List.init (options.max_procs_log2 + 1) (fun i -> 1 lsl i)
let top options = 1 lsl options.max_procs_log2

(* The acceptance point of the head-of-list probes: >= 64 processors
   (clamped so tiny smoke-test sweeps stay in range). *)
let probe_procs options = Int.min 64 (top options)

(* The paper's figures are log-log latency curves; render an ASCII
   approximation under the tables so crossovers are visible at a glance. *)
let latency_plot ~series of_measurement ~title =
  let markers = [| '#'; 'o'; '+'; 'x'; '*'; '@' |] in
  let curve i (label, points) =
    let points = List.map (fun (procs, m) -> (float_of_int procs, of_measurement m)) points in
    { Plot.label; marker = markers.(i mod Array.length markers); points }
  in
  title ^ "\n"
  ^ Plot.render ~width:64 ~height:16 ~x_scale:Plot.Log2 ~y_scale:Plot.Log10 ~x_label:"processors"
      ~y_label:"cycles (log10)" (List.mapi curve series)

let del m = Stats.mean m.Benchmark.delete_latency
let ins m = Stats.mean m.Benchmark.insert_latency

let rank_of m =
  if Stats.count m.Benchmark.rank_error = 0 then 0.0
  else Stats.mean m.Benchmark.rank_error

(* [series]: (name, (procs, measurement) list) list, rendered as one
   table with a column per structure and a row per processor count. *)
let procs_table ~series ~decimals of_measurement =
  let cell n (_, points) = Table.float_cell ~decimals (of_measurement (List.assoc n points)) in
  Table.render ~header:("procs" :: List.map fst series)
    (List.map (fun (n, _) -> string_of_int n :: List.map (cell n) series) (snd (List.hd series)))

(* Two tables in the paper's layout: deletions then insertions. *)
let latency_tables ~series =
  "Average Delete-min latency (simulated cycles)\n"
  ^ procs_table ~series ~decimals:0 del
  ^ "\nAverage Insert latency (simulated cycles)\n"
  ^ procs_table ~series ~decimals:0 ins
  ^ "\n"
  ^ latency_plot ~series del ~title:"Delete-min latency"
  ^ "\n"
  ^ latency_plot ~series ins ~title:"Insert latency"

let rank_table ~series =
  "Mean Delete-min rank error (elements ahead of the returned key)\n"
  ^ procs_table ~series ~decimals:2 rank_of

(* Structured queue counters, rendered uniformly ("name=value ..."). *)
let stats_line stats =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v) stats)

let stat m k = Option.value ~default:0.0 (List.assoc_opt k m.Benchmark.queue_stats)

(* [at label procs] is one sweep point's measurement. *)
let ratio_of at ~slow ~fast ~procs f =
  let q = f (at fast procs) in
  if q = 0.0 then nan else f (at slow procs) /. q

(* A named [ratio_of]; [label]'s first conversion receives [procs]. *)
let ratio at ~slow ~fast ~procs f label =
  Printf.ksprintf (fun label -> (label, ratio_of at ~slow ~fast ~procs f)) label procs

(* Find the smallest processor count from which [fast] stays at or below
   [slow] for the rest of the sweep — the crossover the paper narrates. *)
let crossover at procs ~slow ~fast f =
  let beats n = List.for_all (fun m -> m < n || f (at fast m) <= f (at slow m)) procs in
  Option.fold ~none:nan ~some:float_of_int (List.find_opt beats procs)

(* ------------------------------------------------------------------ *)

(* The paper's workloads (§5): 100 cycles of local work, keys below
   2^20.  Sweeps set [procs] per point. *)
let workload options ~initial ~ops ~insert_ratio =
  let total_ops = scaled options ops in
  { Benchmark.default_workload with initial_size = initial; total_ops; insert_ratio; seed = 42L }

let fig6_load options = workload options ~initial:50 ~ops:7_000 ~insert_ratio:0.5
let fig7_load options = workload options ~initial:1000 ~ops:7_000 ~insert_ratio:0.5
let fig8_load options = workload options ~initial:27_000 ~ops:60_000 ~insert_ratio:0.3
let fig7_heading = "--- fig7 workload (1000 initial, 7000 ops, 50% inserts) ---"

(* ---- the sweep engine ---------------------------------------------- *)

(* One curve.  [impl] is built per processor count: the MultiQueue's
   shards and the k-LSM's buffers scale with the processors they serve.
   The series runs [ops_scale] of its section's operations, for
   structures whose linear-time operations make full runs impractically
   slow to simulate; per-operation latency is unaffected. *)
type series = { label : string; impl : int -> QA.impl; ops_scale : float }

let series ?(ops_scale = 1.0) d =
  { label = QA.name d; impl = (fun procs -> QA.Sim.make ~procs d); ops_scale }

let fixed label impl = { label; impl = (fun _ -> impl); ops_scale = 1.0 }

(* One workload swept over the processor counts.  [heading] is printed
   above its tables; [tag] keys its points and, once an experiment has
   several sections, suffixes its CSV series ("label/tag").  [rank]
   appends the rank-error table and [counters = Some (what, label)] the
   named series' counters at the top of the sweep.  [indicators at] are
   the section's shape indicators, [at label procs] one of its points. *)
type section = {
  heading : string;
  tag : string;
  workload : Benchmark.workload;
  series : series list;
  rank : bool;
  counters : (string * string) option;
  indicators : (string -> int -> Benchmark.measurement) -> (string * float) list;
}

let section ?(heading = "") ?(tag = "") ?(rank = false) ?counters ?(indicators = fun _ -> [])
    workload series =
  { heading; tag; workload; series; rank; counters; indicators }

(* Run every point of every section — independent simulations, so they
   fan out over [options.jobs] domains with identical results either way
   (see Jobs) — and render the sections joined by blank lines.
   [trailer at] gives the text appended below them and the indicators
   following the sections'; [at ~tag label procs] is one point. *)
let sweep options ~id ~title ?(trailer = fun _ -> ("", [])) sections =
  let procs = proc_counts options and top = top options in
  let name s label = if List.length sections > 1 then label ^ "/" ^ s.tag else label in
  let results =
    Jobs.map ~jobs:options.jobs
      (fun (s, r, n) ->
        options.progress (Printf.sprintf "%s @ %d procs" (name s r.label) n);
        let w = s.workload in
        let total_ops = Int.max 400 (int_of_float (float_of_int w.total_ops *. r.ops_scale)) in
        ((s.tag, r.label, n), Benchmark.run (r.impl n) { w with Benchmark.procs = n; total_ops }))
      (List.concat_map
         (fun s -> List.concat_map (fun r -> List.map (fun n -> (s, r, n)) procs) s.series)
         sections)
  in
  let at ~tag label n = List.assoc (tag, label, n) results in
  let curves s =
    List.map (fun r -> (r.label, List.map (fun n -> (n, at ~tag:s.tag r.label n)) procs)) s.series
  in
  let render_section s =
    let series = curves s in
    (if s.heading = "" then "" else s.heading ^ "\n")
    ^ latency_tables ~series
    ^ (if s.rank then "\n" ^ rank_table ~series else "")
    ^ Option.fold s.counters ~none:"" ~some:(fun (what, label) ->
          Printf.sprintf "%s counters @%d procs: %s\n" what top
            (stats_line (at ~tag:s.tag label top).Benchmark.queue_stats))
  in
  let text, extra = trailer at in
  {
    id;
    title;
    body = String.concat "\n" (List.map render_section sections) ^ text;
    indicators = List.concat_map (fun s -> s.indicators (at ~tag:s.tag)) sections @ extra;
    data =
      List.concat_map
        (fun s ->
          List.map
            (fun (label, points) ->
              (name s label, List.map (fun (x, m) -> (float_of_int x, del m, ins m)) points))
            (curves s))
        sections;
  }

(* The head-of-list contention probe: full tracing is too costly for a
   whole sweep, so rerun the fig7 workload (keys below [key_range]) once
   per structure at [probe_procs] under a Trace.Summary sink and compare
   where the queued cycles land.  Returns the rendered lines and the
   hottest-line queued-cycle ratio of two of the structures. *)
let head_probe options ~what ~key_range descriptors =
  let procs = probe_procs options in
  let w = { (fig7_load options) with Benchmark.procs; key_range } in
  let queued summary ~n =
    List.fold_left (fun acc (_, _, q) -> acc + q) 0 (Summary.hottest_locations summary ~n)
  in
  let probes =
    Jobs.map ~jobs:options.jobs
      (fun d ->
        options.progress (Printf.sprintf "head probe: %s @ %d procs" (QA.name d) procs);
        let summary = Summary.create () in
        ignore (Benchmark.probe ~tracer:(Summary.sink summary) (QA.Sim.make ~procs d) w);
        (QA.name d, (queued summary ~n:1, queued summary ~n:8)))
      descriptors
  in
  let probe_line (name, (hottest, top8)) =
    Printf.sprintf "%-22s hottest line queued %9d cycles; top-8 lines %9d\n" name hottest top8
  in
  let hottest name = float_of_int (fst (List.assoc name probes)) in
  ( Printf.sprintf "\nHead-of-list contention probe (%s workload, %d procs, full tracing)\n"
      what procs
    ^ String.concat "" (List.map probe_line probes),
    fun ~slow ~fast -> hottest slow /. Float.max 1.0 (hottest fast) )

let sq = QA.plain QA.Skipqueue
let relaxed d = { d with QA.relaxed = true }
let elim d = { d with QA.elim = true }

(* ------------------------------------------------------------------ *)

let fig2 ~id options =
  let impl = QA.Sim.skipqueue () in
  let measurements =
    Jobs.map ~jobs:options.jobs
      (fun work ->
        options.progress (Printf.sprintf "fig2: work=%d" work);
        let w = workload options ~initial:1000 ~ops:70_000 ~insert_ratio:0.5 in
        (work, Benchmark.run impl { w with Benchmark.procs = top options; work_cycles = work }))
      [ 100; 1000; 2000; 3000; 4000; 5000; 6000 ]
  in
  let cell = Table.float_cell ~decimals:0 in
  let first = List.assoc 100 measurements and last = List.assoc 6000 measurements in
  {
    id;
    title = "latency vs. local work amount";
    body =
      Printf.sprintf
        "SkipQueue latency vs. amount of local work (%d processes, 1000 initial elements)\n"
        (top options)
      ^ Table.render ~header:[ "work"; "delete_min latency"; "insert latency" ]
          (List.map (fun (work, m) -> [ string_of_int work; cell (del m); cell (ins m) ])
             measurements);
    indicators =
      [
        ("delete latency drop, work 100 -> 6000 (paper ~2.7x)", del first /. del last);
        ("insert latency drop, work 100 -> 6000 (paper ~2.5x)", ins first /. ins last);
      ];
    data =
      [ ("SkipQueue", List.map (fun (work, m) -> (float_of_int work, del m, ins m)) measurements) ];
  }

(* fig3-5: the Hunt heap and the SkipQueue, plus the FunnelList measured
   over [funnel_list] of the operations when given. *)
let comparison_figure ~title ~initial ~ops ~insert_ratio ~funnel_list ~id options =
  let top = top options in
  let heap = fixed "Heap" (QA.Sim.hunt_heap ~capacity:(initial + scaled options ops + 100) ()) in
  let funnel =
    Option.map (fun ops_scale -> series ~ops_scale (QA.plain QA.Funnel_list)) funnel_list
  in
  let indicators at =
    let vs slow f what =
      ( Printf.sprintf "%s/SkipQueue %s latency @%d" slow what top,
        ratio_of at ~slow ~fast:"SkipQueue" ~procs:top f )
    in
    let beats f = crossover at (proc_counts options) ~slow:"FunnelList" ~fast:"SkipQueue" f in
    [ vs "Heap" del "deletion"; vs "Heap" ins "insertion" ]
    @
    if funnel_list = None then []
    else
      [
        vs "FunnelList" del "deletion";
        ("crossover procs: SkipQueue beats FunnelList (deletions)", beats del);
        ("crossover procs: SkipQueue beats FunnelList (insertions)", beats ins);
      ]
  in
  let note =
    match funnel_list with
    | Some s when s < 1.0 ->
      Printf.sprintf
        "(FunnelList measured over %.0f%% of the operations — linear-time \
         operations make full runs impractically slow to simulate; per-operation \
         latency is unaffected.)\n"
        (100.0 *. s)
    | _ -> ""
  in
  sweep options ~id ~title
    ~trailer:(fun _ -> (note, []))
    [
      section ~indicators
        (workload options ~initial ~ops ~insert_ratio)
        (heap :: series sq :: Option.to_list funnel);
    ]

let relaxed_figure what load ~id options =
  let top = top options in
  sweep options ~id ~title:("SkipQueue vs Relaxed, " ^ what)
    [
      section (load options) [ series sq; series (relaxed sq) ] ~indicators:(fun at ->
          [
            ratio at ~slow:"SkipQueue" ~fast:"Relaxed SkipQueue" ~procs:top del
              "strict/relaxed deletion latency @%d (paper: up to 2x)";
            ratio at ~slow:"Relaxed SkipQueue" ~fast:"SkipQueue" ~procs:top ins
              "relaxed/strict insertion latency @%d (paper: >= 1)";
          ]);
    ]

(* ------------------------------------------------------------------ *)

(* The MultiQueue sweep: the modern endpoint of §5.2's relaxation idea
   (c-way choice over try-locked shards) against the paper's Relaxed
   SkipQueue, with the strict SkipQueue as the exactness anchor.  Reports
   both latency and Delete-min rank error, so the speed/quality trade is
   quantified instead of implied. *)
let multiqueue ~id options =
  let top = top options in
  let indicators tag at =
    [
      ratio at ~slow:"Relaxed SkipQueue" ~fast:"MultiQueue" ~procs:top del
        "relaxed/multiqueue deletion latency @%d, %s" tag;
      ratio at ~slow:"Relaxed SkipQueue" ~fast:"MultiQueue" ~procs:top ins
        "relaxed/multiqueue insertion latency @%d, %s" tag;
      (Printf.sprintf "multiqueue mean rank error @%d, %s" top tag, rank_of (at "MultiQueue" top));
      ( Printf.sprintf "relaxed skipqueue mean rank error @%d, %s" top tag,
        rank_of (at "Relaxed SkipQueue" top) );
    ]
  in
  sweep options ~id ~title:"MultiQueue vs Relaxed SkipQueue: latency and rank error"
    (List.map
       (fun (tag, what, load) ->
         section ~heading:("--- " ^ what ^ " ---") ~tag ~rank:true ~indicators:(indicators tag)
           (load options)
           [ series (relaxed sq); series (QA.plain QA.Multiqueue) ])
       [
         ("small", "small structure (50 initial, 7000 ops, 50% inserts)", fig6_load);
         ("large", "large structure (1000 initial, 7000 ops, 50% inserts)", fig7_load);
         ("70% deletions", "70% deletions (27000 initial, 60000 ops, 30% inserts)", fig8_load);
       ])

let ablation_funnel_front ~id options =
  sweep options ~id ~title:"funnel-regulated Delete-min vs racing SWAPs (the design §5 rejects)"
    [
      section (fig6_load options) [ series sq; series (QA.plain QA.Delete_funnel) ]
        ~indicators:(fun at ->
          [ ratio at ~slow:"SkipQueue + delete funnel" ~fast:"SkipQueue" ~procs:(top options) del
              "funneled/plain deletion latency @%d (paper: > 1 at high concurrency)" ]);
    ]

let ablation_skiplist_params ~id options =
  let top = top options in
  let variant (p, max_level) =
    fixed (Printf.sprintf "p=%.2f maxlvl=%d" p max_level) (QA.Sim.skipqueue ~p ~max_level ())
  in
  sweep options ~id ~title:"SkipQueue sensitivity to p and max_level (1000 initial, 7000 ops)"
    [
      section (fig7_load options)
        (List.map variant [ (0.5, 20); (0.25, 20); (0.75, 20); (0.5, 10); (0.5, 5) ])
        ~indicators:(fun at ->
          let starved = ratio_of at ~slow:"p=0.50 maxlvl=5" ~fast:"p=0.50 maxlvl=20" in
          [ ("insertion penalty of starving levels (maxlvl 5 vs 20)", starved ~procs:top ins) ]);
    ]

let ablation_timestamp ~id options =
  (* Same workload strict vs relaxed, but report the queues' internal hunt
     statistics rather than latency. *)
  let run impl =
    options.progress (Printf.sprintf "timestamp ablation: %s" impl.QA.name);
    Benchmark.run impl { (fig6_load options) with Benchmark.procs = top options }
  in
  let strict = run (QA.Sim.skipqueue ()) in
  let relaxed = run (QA.Sim.relaxed_skipqueue ()) in
  let line name m =
    Printf.sprintf "%-18s delete mean %8.0f  insert mean %8.0f  %s\n" name (del m) (ins m)
      (stats_line m.Benchmark.queue_stats)
  in
  {
    id;
    title = "cost decomposition of the timestamp mechanism (256 procs, small queue)";
    body = line "strict" strict ^ line "relaxed" relaxed;
    data = [];
    indicators =
      [
        ("strict/relaxed deletion latency", del strict /. del relaxed);
        ("relaxed/strict insertion latency", ins relaxed /. ins strict);
      ];
  }

let ablation_reclamation ~id options =
  let top = top options and reclaiming = "SkipQueue + reclamation" in
  sweep options ~id ~title:"overhead of the live reclamation protocol (dedicated collector, §3)"
    ~trailer:(fun at ->
      ( Printf.sprintf "\nreclamation at %d procs: %s\n" top
          (stats_line (at ~tag:"" reclaiming top).Benchmark.queue_stats),
        [] ))
    [
      section (fig7_load options) [ series sq; series (QA.plain QA.Reclamation) ]
        ~indicators:(fun at ->
          [
            ratio at ~slow:reclaiming ~fast:"SkipQueue" ~procs:top del
              "reclamation/plain deletion latency @%d";
            ratio at ~slow:reclaiming ~fast:"SkipQueue" ~procs:top ins
              "reclamation/plain insertion latency @%d";
          ]);
    ]

(* The paper's §1.1/§2 positioning: bounded-range bin queues win when the
   priority set is small and known, and stop being viable as the range
   grows — which is the case the SkipQueue exists for. *)
let ablation_bounded_range ~id options =
  let top = top options in
  let range ~heading ~tag ~ops_scale key_range indicator =
    section ~heading ~tag
      ~indicators:(fun at -> [ indicator at ])
      { (fig7_load options) with Benchmark.key_range }
      [ series ~ops_scale (QA.plain (QA.Bin key_range)); series sq ]
  in
  sweep options ~id ~title:"bounded-range bin queue [39] vs SkipQueue (1000 initial, 7000 ops)"
    [
      range ~heading:"Dense priorities (range 256 — the bin queue's home turf)" ~tag:"dense"
        ~ops_scale:1.0 256 (fun at ->
          ratio at ~slow:"SkipQueue" ~fast:"BinQueue(256)" ~procs:top del
            "SkipQueue/BinQueue deletion @%d, dense range");
      (* The sparse bin queue's stale-hint scans make its operations
         linear in the range; cap the operation count as for the
         FunnelList in fig4 — per-operation latency is unaffected. *)
      range ~heading:"Sparse priorities (range 65536 — the general case)" ~tag:"sparse"
        ~ops_scale:0.2 65_536 (fun at ->
          ratio at ~slow:"BinQueue(65536)" ~fast:"SkipQueue" ~procs:top del
            "BinQueue/SkipQueue deletion @%d, sparse range");
    ]

(* Which ingredient of the memory model produces which phenomenon: rerun a
   contended workload with individual cost mechanisms switched off. *)
let ablation_memory_model ~id options =
  let module MM = Repro_sim.Memory_model in
  let procs = probe_procs options in
  let w = { (fig6_load options) with Benchmark.procs } in
  (* per model: (heap, skipqueue) *)
  let measurements =
    Jobs.map ~jobs:options.jobs
      (fun (cname, config) ->
        let run impl =
          options.progress
            (Printf.sprintf "memory-model ablation: %s under %s" impl.QA.name cname);
          Benchmark.run ~config impl w
        in
        (cname, (run (QA.Sim.hunt_heap ()), run (QA.Sim.skipqueue ()))))
      [
        ("full model", MM.default);
        ("no line queueing", { MM.default with MM.occupancy = 0; swap_extra = 0 });
        ("no node bandwidth", { MM.default with MM.node_occupancy = 0 });
        ("flat memory", MM.sequential);
      ]
  in
  let cell = Table.float_cell ~decimals:0 in
  let del_under cname pick = del (pick (List.assoc cname measurements)) in
  {
    id;
    title = "which cost-model ingredient produces which phenomenon";
    body =
      Printf.sprintf
        "Heap and SkipQueue at %d processors (fig3 workload) under reduced memory models\n"
        procs
      ^ Table.render
          ~align:[ Table.Left; Right; Right; Right; Right ]
          ~header:[ "model"; "heap del"; "heap ins"; "sq del"; "sq ins" ]
          (List.map
             (fun (cname, (heap, sq)) ->
               [ cname; cell (del heap); cell (ins heap); cell (del sq); cell (ins sq) ])
             measurements);
    data = [];
    indicators =
      [
        ( "heap deletion: full / no-line-queueing (hot-spot share)",
          del_under "full model" fst /. del_under "no line queueing" fst );
        ( "skipqueue deletion: full / no-node-bandwidth (bandwidth share)",
          del_under "full model" snd /. del_under "no node bandwidth" snd );
        ( "heap/skipqueue deletion ratio surviving a flat memory",
          del_under "flat memory" fst /. del_under "flat memory" snd );
      ];
  }

(* A9: the elimination–combining front end (Calciu, Mendes & Herlihy, 25
   years on from §5) grafted onto the SkipQueue.  Latency sweeps on the
   fig7/fig8 workloads, plus a fully traced run at up to 64 processors
   showing the head-of-list queueing drop: only combiners hunt the bottom
   level, waiters spin on their private rendezvous cells. *)
let ablation_elimination ~id options =
  let top = top options and probe_procs = probe_procs options in
  let plain_vs_elim ~procs what at =
    ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-elim" ~procs del
      "plain/elim deletion latency @%d, %s" what
  in
  sweep options ~id
    ~title:"elimination-combining front end vs plain SkipQueue (fig7/fig8 workloads)"
    ~trailer:(fun at ->
      let probe, hottest_ratio =
        head_probe options ~what:"fig7" ~key_range:(1 lsl 20) [ sq; elim sq ]
      in
      let front = at ~tag:"fig7" "SkipQueue-elim" top in
      let answered =
        stat front "eliminated" +. stat front "served" +. stat front "handoff_empties"
      in
      let deletes = answered +. stat front "timeouts" +. stat front "collisions" in
      ( probe
        ^ Printf.sprintf "\nfront-end counters @%d procs (fig7): %s\n" top
            (stats_line front.Benchmark.queue_stats),
        [
          ( Printf.sprintf "plain/elim hottest-line queued cycles @%d procs" probe_procs,
            hottest_ratio ~slow:"SkipQueue" ~fast:"SkipQueue-elim" );
          ( Printf.sprintf "rendezvous share of deletes @%d (eliminated+served)" top,
            if deletes = 0.0 then 0.0 else answered /. deletes );
        ] ))
    [
      section ~heading:fig7_heading ~tag:"fig7" (fig7_load options)
        (List.map series [ sq; elim sq; relaxed sq; relaxed (elim sq) ])
        ~indicators:(fun at ->
          [
            plain_vs_elim ~procs:probe_procs "fig7 (want > 1)" at;
            plain_vs_elim ~procs:top "fig7" at;
            ratio at ~slow:"Relaxed SkipQueue" ~fast:"Relaxed SkipQueue-elim" ~procs:top del
              "relaxed plain/elim deletion latency @%d, fig7";
          ]);
      section ~heading:"--- fig8 workload (27000 initial, 60000 ops, 30% inserts) ---"
        ~tag:"fig8" (fig8_load options) (List.map series [ sq; elim sq ])
        ~indicators:(fun at -> [ plain_vs_elim ~procs:top "fig8" at ]);
    ]

(* A13: the lock-free SkipQueue (CAS-marked deletion, batched physical
   unlink) against the locked original and the elimination front end, on
   the fig7 and fig5/fig8 workloads, plus the fully traced >= 64-processor
   head probe: claims touch one bottom link each, so the queued cycles on
   the head line should sit well below the locked hunt's. *)
let ablation_lockfree ~id options =
  let top = top options and probe_procs = probe_procs options in
  let structures = [ sq; elim sq; QA.plain QA.Lf ] in
  sweep options ~id
    ~title:"lock-free SkipQueue vs locked and elimination (fig7, fig5/fig8 workloads)"
    ~trailer:(fun at ->
      let probe, hottest_ratio =
        head_probe options ~what:"fig7" ~key_range:(1 lsl 20) structures
      in
      let lf = at ~tag:"fig7" "SkipQueue-lf" top in
      let per_op k = stat lf k /. Float.max 1.0 (stat lf "ops") in
      ( probe
        ^ Printf.sprintf "\nlock-free counters @%d procs (fig7): %s\n" top
            (stats_line lf.Benchmark.queue_stats),
        [
          ( Printf.sprintf "locked/lock-free hottest-line queued cycles @%d procs" probe_procs,
            hottest_ratio ~slow:"SkipQueue" ~fast:"SkipQueue-lf" );
          ( Printf.sprintf "mean marked nodes hopped per op @%d (batching pressure)" top,
            per_op "marked_hops" );
          (Printf.sprintf "CAS failures per op @%d (retry pressure)" top, per_op "cas_failures");
        ] ))
    [
      section ~heading:fig7_heading ~tag:"fig7" (fig7_load options) (List.map series structures)
        ~indicators:(fun at ->
          [
            ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-lf" ~procs:probe_procs del
              "locked/lock-free deletion latency @%d, fig7 (want > 1)";
            ratio at ~slow:"SkipQueue-elim" ~fast:"SkipQueue-lf" ~procs:probe_procs del
              "elim/lock-free deletion latency @%d, fig7 (want >= 1)";
            ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-lf" ~procs:top ins
              "locked/lock-free insertion latency @%d, fig7";
          ]);
      section ~heading:"--- fig5/fig8 workload (27000 initial, 60000 ops, 30% inserts) ---"
        ~tag:"fig58" (fig8_load options) (List.map series structures)
        ~indicators:(fun at ->
          [ ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-lf" ~procs:top del
              "locked/lock-free deletion latency @%d, fig5/fig8" ]);
    ]

(* ------------------------------------------------------------------ *)

(* Flagship blocking scenario: an earliest-deadline-first task scheduler
   for a site with millions of users, built on the bounded/blocking façade.
   Front-end processors (producers) accept jobs in bursts — each job
   belongs to a user drawn from a 2,000,000-id space and carries a deadline
   [now + slack] — and push them through [insert_wait] into a
   capacity-bounded priority queue keyed by deadline (EDF order).  Worker
   processors (consumers) loop on [delete_min_wait] and spend simulated
   service time per job.  Producers outnumber workers 2:1 and bursts
   outpace service, so the façade's two condition variables both engage:
   workers park on empty lulls, producers park on the capacity bound
   (backpressure) — the throttling that keeps a scheduler's backlog, and
   its deadline misses, bounded.

   Deadline keys are made unique (deadline in the high bits, a job counter
   in the low 20) so the SkipQueue's update-in-place on duplicate keys
   cannot merge two jobs; EDF order is preserved, ties break by arrival. *)
let scheduler ~id options =
  let user_space = 2_000_000 in
  let jobs_total = scaled options 6_000 in
  if jobs_total > 1 lsl 20 then invalid_arg "scheduler: more jobs than tag bits";
  (* Small enough that the burst surplus hits the bound early — producers
     outproduce 2-3x at every sweep point, so backpressure is what holds
     the backlog (and the sojourn times) down. *)
  let capacity = 64 in
  let backends =
    List.map
      (fun d -> { d with QA.bounded = Some capacity })
      [ sq; relaxed sq; QA.plain QA.Lf; QA.plain QA.Multiqueue ]
  in
  (* 2 producers per consumer, plus root and a post-quiescence stats
     reader, against the simulator's 512-processor table. *)
  let consumer_counts =
    List.filter (fun c -> c <= top options && (3 * c) + 2 <= 512) (proc_counts options)
  in
  let run_point backend ~consumers =
    let producers = 2 * consumers in
    let insert_t = Array.make jobs_total 0 in
    let deadline = Array.make jobs_total 0 in
    let pop_t = Array.make jobs_total (-1) in
    let user = Array.make jobs_total 0 in
    let front_stats = ref [] in
    let split total parts p = (total / parts) + (if p < total mod parts then 1 else 0) in
    let offset total parts p = (p * (total / parts)) + Int.min p (total mod parts) in
    let (_ : Machine.report) =
      Machine.run (fun () ->
          let impl = QA.Sim.make ~procs:(producers + consumers) backend in
          let q = impl.QA.create () in
          for p = 0 to producers - 1 do
            let base = offset jobs_total producers p in
            let count = split jobs_total producers p in
            Machine.spawn (fun () ->
                let rng = Rng.of_seed (Int64.logxor 0x5EED5EEDL (Int64.of_int (p + 1))) in
                for i = 0 to count - 1 do
                  let j = base + i in
                  let now = Machine.probe_time () in
                  let slack = 2_000 + Rng.int rng 30_000 in
                  user.(j) <- Rng.int rng user_space;
                  insert_t.(j) <- now;
                  deadline.(j) <- now + slack;
                  q.QA.insert_wait (((now + slack) lsl 20) lor j) j;
                  (* bursts of 8 arrivals, then a lull *)
                  if (i + 1) mod 8 = 0 then Machine.work (1_000 + Rng.int rng 2_000)
                  else Machine.work (1 + Rng.int rng 32)
                done)
          done;
          for c = 0 to consumers - 1 do
            let quota = split jobs_total consumers c in
            Machine.spawn (fun () ->
                let rng = Rng.of_seed (Int64.logxor 0xC0FFEEL (Int64.of_int (c + 1))) in
                for _ = 1 to quota do
                  let _k, j = q.QA.delete_min_wait () in
                  pop_t.(j) <- Machine.probe_time ();
                  (* service cost: the deliberate bottleneck *)
                  Machine.work (150 + Rng.int rng 150)
                done)
          done;
          (* façade counters read after quiescence (probing the runtime's
             lock statistics requires the simulation context) *)
          Machine.spawn (fun () ->
              Machine.work (1 lsl 50);
              front_stats := q.QA.stats ()))
    in
    let lat = Stats.create () in
    let missed = ref 0 and users = Hashtbl.create (2 * jobs_total) in
    let finish = ref 0 in
    for j = 0 to jobs_total - 1 do
      assert (pop_t.(j) >= 0);
      Stats.add lat (float_of_int (pop_t.(j) - insert_t.(j)));
      if pop_t.(j) > deadline.(j) then incr missed;
      if pop_t.(j) > !finish then finish := pop_t.(j);
      Hashtbl.replace users user.(j) ()
    done;
    let stat k = try List.assoc k !front_stats with Not_found -> 0.0 in
    ( consumers,
      object
        method latency = Stats.mean lat
        method miss_rate = 100.0 *. float_of_int !missed /. float_of_int jobs_total
        method distinct_users = Hashtbl.length users
        method parks = stat "parks"
        method stalls = stat "backpressure_stalls"
        method makespan = !finish (* last pop, ignoring the stats reader *)
      end )
  in
  let series =
    List.map
      (fun backend ->
        let name = QA.name backend in
        ( name,
          Jobs.map ~jobs:options.jobs
            (fun consumers ->
              options.progress
                (Printf.sprintf "scheduler: %s @ %d workers / %d frontends" name consumers
                   (2 * consumers));
              run_point backend ~consumers)
            consumer_counts ))
      backends
  in
  let table (name, points) =
    let cell decimals = Table.float_cell ~decimals in
    "--- " ^ name ^ " ---\n"
    ^ Table.render
        ~header:[ "workers"; "frontends"; "sojourn"; "miss%"; "parks"; "stalls"; "makespan" ]
        (List.map
           (fun (c, m) ->
             [ string_of_int c; string_of_int (2 * c); cell 0 m#latency; cell 2 m#miss_rate;
               cell 0 m#parks; cell 0 m#stalls; string_of_int m#makespan ])
           points)
  in
  let last (_, points) = snd (List.nth points (List.length points - 1)) in
  let top_consumers = List.nth consumer_counts (List.length consumer_counts - 1) in
  {
    id;
    title = "millions-of-users EDF task scheduler on the bounded/blocking façade";
    body =
      Printf.sprintf
        "EDF job scheduler through the bounded/blocking façade (capacity %d):\n\
         %d jobs per point from a %d-user id space (%d distinct users at the\n\
         last point), 2 front-end producers per worker, bursty arrivals,\n\
         deadline = arrival + slack.  sojourn = mean insert->pop cycles;\n\
         miss%% = jobs popped past their deadline; parks = worker waits on\n\
         empty; stalls = producer backpressure parks.\n\n"
        capacity jobs_total user_space (last (List.hd series))#distinct_users
      ^ String.concat "\n" (List.map table series);
    data =
      List.map
        (fun (name, points) ->
          (name, List.map (fun (c, m) -> (float_of_int c, m#latency, m#miss_rate)) points))
        series;
    indicators =
      List.concat_map
        (fun (name, _ as s) ->
          let m = last s in
          [
            (Printf.sprintf "%s miss rate %% @ %d workers" name top_consumers, m#miss_rate);
            ( Printf.sprintf "%s backpressure stalls @ %d workers" name top_consumers,
              m#stalls );
          ])
        series;
  }

(* ------------------------------------------------------------------ *)

(* A14: the three-way relaxed shoot-out.  The paper's Relaxed SkipQueue
   (timestamp-skipping), the MultiQueue (c-way choice over try-locked
   shards) and the k-LSM at k = 256 (log-structured merge with
   per-processor insertion buffers) on the fig6/fig7/fig8 workloads plus
   a duplicate-heavy one (keys drawn from a 256-value range, so every
   structure sees long runs of equal priorities).  Latency tables and the
   host-side rank-error oracle side by side: the three relaxations sit at
   very different points of the speed/quality plane, and the k-LSM's
   flush/merge counters say where its insertion-buffer amortization
   pays. *)
let klsm_shootout ~id options =
  let top = top options in
  let structures =
    List.map series [ relaxed sq; QA.plain QA.Multiqueue; QA.plain (QA.Klsm 256) ]
  in
  let indicators tag at =
    [
      ratio at ~slow:"Relaxed SkipQueue" ~fast:"klsm:256" ~procs:top del
        "relaxed/klsm deletion latency @%d, %s" tag;
      ratio at ~slow:"MultiQueue" ~fast:"klsm:256" ~procs:top del
        "multiqueue/klsm deletion latency @%d, %s" tag;
      ( Printf.sprintf "klsm mean rank error @%d, %s (bound 256)" top tag,
        rank_of (at "klsm:256" top) );
      (Printf.sprintf "multiqueue mean rank error @%d, %s" top tag, rank_of (at "MultiQueue" top));
    ]
  in
  sweep options ~id
    ~title:"three-way relaxed shoot-out: Relaxed SkipQueue vs MultiQueue vs k-LSM"
    ~trailer:(fun at ->
      let klsm = at ~tag:"fig7 large" "klsm:256" top in
      ( "",
        [
          ( Printf.sprintf "klsm buffer flushes per insert @%d, fig7" top,
            stat klsm "flushes" /. Float.max 1.0 (stat klsm "ops") );
          ( Printf.sprintf "klsm spy sweeps @%d, fig7 (emptiness fallbacks)" top,
            stat klsm "spy_sweeps" );
        ] ))
    (List.map
       (fun (tag, what, load) ->
         section ~heading:("--- " ^ what ^ " ---") ~tag ~rank:true
           ~counters:("k-LSM", "klsm:256") ~indicators:(indicators tag) load structures)
       [
         ( "fig6 small",
           "fig6 workload: small structure (50 initial, 7000 ops, 50% inserts)",
           fig6_load options );
         ( "fig7 large",
           "fig7 workload: large structure (1000 initial, 7000 ops, 50% inserts)",
           fig7_load options );
         ( "fig8 70% deletions",
           "fig8 workload: 70% deletions (27000 initial, 60000 ops, 30% inserts)",
           fig8_load options );
         ( "duplicate-heavy",
           "duplicate-heavy: fig7 sizes, keys from a 256-value range",
           { (fig7_load options) with Benchmark.key_range = 256 } );
       ])

(* A15: the coalescing SkipQueue (DESIGN.md §S21) on duplicate-heavy
   workloads.  Keys are drawn from a narrow range, so most inserts hit a
   live equal-key node and coalesce into its slab instead of allocating
   and linking; delete-min then drains a node's count before paying one
   physical unlink.  Three key ranges act as the duplicate-ratio axis
   (64: ~every insert coalesces; 256: the klsm-shootout's duplicate
   workload; 4096: mild duplication), each swept across the processor
   axis over the locked original, the coalescing variant, the coalescing
   variant behind the elimination front end, and the lock-free queue.
   Caveat on like-for-like: the plain SkipQueue carries the PR 1 dedup
   contract (a duplicate insert updates in place), the other three keep
   multiset semantics — exactly the semantic gap the coalescing node
   closes without giving up distinct instances.  The fully traced probe
   reruns the 256-range workload at >= 64 processors and compares where
   the queued cycles land: coalesced joins touch one packed word mid-list
   instead of walking locked level pointers at the head, so the
   coalescing queue's hottest line should sit below the locked hunt's. *)
let duplicate_heavy ~id options =
  let top = top options and probe_procs = probe_procs options in
  let co = QA.plain QA.Co in
  let structures = [ sq; co; elim co; QA.plain QA.Lf ] in
  let range key_range =
    section ~tag:(Printf.sprintf "range%d" key_range)
      ~heading:
        (Printf.sprintf "--- key range %d (1000 initial, 7000 ops, 50%% inserts) ---" key_range)
      ~counters:("coalescing", "SkipQueue-co")
      { (fig7_load options) with Benchmark.key_range }
      (List.map series structures)
      ~indicators:(fun at ->
        [
          ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-co" ~procs:probe_procs del
            "plain/co deletion latency @%d, range %d (want > 1)" key_range;
          ratio at ~slow:"SkipQueue" ~fast:"SkipQueue-co" ~procs:top ins
            "plain/co insertion latency @%d, range %d" key_range;
        ])
  in
  sweep options ~id
    ~title:"coalescing SkipQueue on duplicate-heavy workloads (key range x processors)"
    ~trailer:(fun at ->
      let probe, hottest_ratio = head_probe options ~what:"256-range" ~key_range:256 structures in
      let at = at ~tag:"range256" in
      let co = at "SkipQueue-co" top in
      ( probe,
        [
          ratio at ~slow:"SkipQueue-co" ~fast:"SkipQueue-co-elim" ~procs:probe_procs del
            "co/co-elim deletion latency @%d, range 256";
          ( Printf.sprintf "plain/co hottest-line queued cycles @%d procs" probe_procs,
            hottest_ratio ~slow:"SkipQueue" ~fast:"SkipQueue-co" );
          (* At a 50/50 mix, hunt passes ~ inserts, so this approximates the
             share of inserts absorbed into an existing node's slab. *)
          ( Printf.sprintf "coalesced inserts per insert @%d, range 256" top,
            stat co "coalesced_inserts" /. Float.max 1.0 (stat co "hunt_passes") );
          (Printf.sprintf "capacity-full node splits @%d, range 256" top, stat co "node_splits");
        ] ))
    (List.map range [ 64; 256; 4096 ])

let all =
  List.map
    (fun (id, run) -> (id, run ~id))
    [
      ("fig2", fig2);
      ( "fig3",
        comparison_figure ~title:"small structure (50 initial, 70000 ops, 50% inserts)"
          ~initial:50 ~ops:70_000 ~insert_ratio:0.5 ~funnel_list:(Some 1.0) );
      ( "fig4",
        comparison_figure ~title:"large structure (1000 initial, 70000 ops, 50% inserts)"
          ~initial:1000 ~ops:70_000 ~insert_ratio:0.5 ~funnel_list:(Some 0.1) );
      ( "fig5",
        comparison_figure ~title:"70% deletions (27000 initial, 60000 ops, 30% inserts)"
          ~initial:27_000 ~ops:60_000 ~insert_ratio:0.3 ~funnel_list:None );
      ("fig6", relaxed_figure "small structure (50 initial, 7000 ops)" fig6_load);
      ("fig7", relaxed_figure "large structure (1000 initial, 7000 ops)" fig7_load);
      ("fig8", relaxed_figure "70% deletions (27000 initial, 60000 ops)" fig8_load);
      ("multiqueue", multiqueue);
      ("ablation-funnel-front", ablation_funnel_front);
      ("ablation-skiplist-params", ablation_skiplist_params);
      ("ablation-timestamp", ablation_timestamp);
      ("ablation-reclamation", ablation_reclamation);
      ("ablation-bounded-range", ablation_bounded_range);
      ("ablation-memory-model", ablation_memory_model);
      ("ablation-elimination", ablation_elimination);
      ("ablation-lockfree", ablation_lockfree);
      ("scheduler", scheduler);
      ("klsm-shootout", klsm_shootout);
      ("duplicate-heavy", duplicate_heavy);
    ]
