(* One backend's simulated pass: the workload's calls driven through
   [Machine.run], every call recorded by [Check.History.wrap] (free of
   simulated charge), outputs checked at quiescence.  The pass issues
   [Benchmark.run]'s exact call sequence and timing, so the recorded
   per-call latencies are [Benchmark.run]'s samples, unbucketed. *)

module Machine = Repro_sim.Machine
module History = Repro_check.History
module Checkers = Repro_check.Checkers
module QA = Repro_workload.Queue_adapter
module O = History.O
module W = Workloads

type t = {
  report : Machine.report;
  insert_lat : int array;  (** measured insert latencies in cycles, sorted *)
  delete_lat : int array;  (** measured delete-min latencies in cycles, sorted *)
  calls : int;  (** measured calls (the prefill is set-up) *)
  makespan : int;  (** cycles from the end of set-up to the last response *)
  ranks : Repro_util.Stats.t;
  dup_inserts : int;
  empty_deletes : int;
  stats : (string * float) list;  (** the backend's counters at quiescence, before the drain *)
  setup_ns : float;  (** host time of queue creation plus prefill *)
  host_ns : float;  (** host time of the whole [Machine.run] *)
  minor_words : float;
  major_collections : int;
  attempted : int;
  failed : int;
  error : string option;  (** exception or [Deadlock] that ended the pass *)
}

(* Drive the workload inside [Machine.run].  [q] is what the processors
   call, [raw] the bare instance the post-quiescence reader drains. *)
let drive plan ~setup_ns ~start ~last ~drained ~stats
    (create : unit -> QA.instance * QA.instance) () =
  let t0 = Clock.now_ns () in
  let raw, q = create () in
  let finish () =
    let t = Machine.probe_time () in
    if t > !last then last := t
  in
  (match plan with
  | W.Mix_plan (m, p) ->
    Array.iteri (fun id key -> q.QA.insert key id) p.prefill;
    setup_ns := Clock.now_ns () -. t0;
    start := Machine.probe_time ();
    Array.iteri
      (fun proc calls ->
        let base = p.first_id.(proc) in
        Machine.spawn (fun () ->
            Array.iteri
              (fun i key ->
                Machine.work m.W.work_cycles;
                if key >= 0 then q.QA.insert key (base + i)
                else ignore (q.QA.try_delete_min ()))
              calls;
            finish ()))
      p.calls
  | W.Edf_plan (_, p) ->
    setup_ns := Clock.now_ns () -. t0;
    start := Machine.probe_time ();
    Array.iteri
      (fun proc jobs ->
        let base = p.job_base.(proc) in
        Machine.spawn (fun () ->
            Array.iteri
              (fun i (key, gap) ->
                q.QA.insert_wait key (base + i);
                Machine.work gap)
              jobs;
            finish ()))
      p.jobs;
    Array.iter
      (fun service ->
        Machine.spawn (fun () ->
            Array.iter
              (fun s ->
                ignore (q.QA.delete_min_wait ());
                Machine.work s)
              service;
            finish ()))
      p.service);
  (* Post-quiescence reader: starts far beyond any finish time, so it never
     perturbs the measured calls.  The counters are read before the drain,
     so they cover the prefill and the measured calls only. *)
  Machine.spawn (fun () ->
      Machine.work (1 lsl 55);
      let rec drain acc =
        match raw.QA.try_delete_min () with None -> List.rev acc | Some kv -> drain (kv :: acc)
      in
      stats := raw.QA.stats ();
      drained := drain [])

let run ?spans (impl : QA.impl) plan =
  let hist = History.create () in
  let setup_ns = ref 0.0 and start = ref 0 and last = ref 0 in
  let drained = ref [] and stats = ref [] in
  let create () =
    let raw = impl.QA.create () in
    let recorded = History.wrap hist raw in
    (raw, match spans with None -> recorded | Some s -> Spans.wrap s recorded)
  in
  let tracer = Option.map Spans.sink spans in
  let attempted = W.attempted_calls plan in
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let outcome =
    match
      Machine.run ?tracer (drive plan ~setup_ns ~start ~last ~drained ~stats create)
    with
    | report -> Ok report
    | exception e -> Error (Printexc.to_string e)
  in
  let host_ns = Clock.now_ns () -. t0 in
  let gc1 = Gc.quick_stat () in
  let events = History.events hist in
  let measured (e : O.event) = e.O.proc <> 0 in
  let ins = ref [] and del = ref [] and empty = ref 0 and calls = ref 0 in
  List.iter
    (fun (e : O.event) ->
      if measured e then begin
        incr calls;
        let dt = e.O.responded - e.O.invoked in
        match e.O.op with
        | O.Insert _ -> ins := dt :: !ins
        | O.Delete_min { result } ->
          del := dt :: !del;
          if result = None then incr empty
      end)
    events;
  let replay = Rank.replay ~dedups:impl.QA.dedups ~measured events in
  let failed =
    match outcome with
    | Error _ -> attempted
    | Ok _ ->
      let key_of = W.key_of plan in
      let bad =
        Verify.bad_outputs ~dedups:impl.QA.dedups ~key_of (fun f ->
            List.iter
              (fun (e : O.event) ->
                match e.O.op with
                | O.Delete_min { result = Some (k, id) } -> f k id
                | _ -> ())
              events;
            List.iter (fun (k, id) -> f k id) !drained)
      in
      let h =
        {
          Checkers.impl = impl.QA.name;
          dedups = impl.QA.dedups;
          spec = impl.QA.spec;
          seed = 0L;
          events;
          drained = !drained;
          capacity = None;
          spans = [];
        }
      in
      let verdicts =
        ("well_formed", Checkers.well_formed h)
        :: (if impl.QA.dedups then [] else [ ("conservation", Checkers.conservation h) ])
      in
      if bad = 0 && Checkers.failures verdicts <> [] then 1 else bad
  in
  let empty_report =
    {
      Machine.end_time = 0;
      processors = 0;
      events = 0;
      accesses = 0;
      cache_hits = 0;
      queued_cycles = 0;
      swaps = 0;
      lock_acquisitions = 0;
      lock_contentions = 0;
      lock_wait_cycles = 0;
      lock_try_failures = 0;
      cond_parkings = 0;
      cond_wait_cycles = 0;
    }
  in
  {
    report = (match outcome with Ok r -> r | Error _ -> empty_report);
    insert_lat = Pctl.sorted (Array.of_list !ins);
    delete_lat = Pctl.sorted (Array.of_list !del);
    calls = !calls;
    makespan = !last - !start;
    ranks = replay.Rank.ranks;
    dup_inserts = replay.Rank.dup_inserts;
    empty_deletes = !empty;
    stats = !stats;
    setup_ns = !setup_ns;
    host_ns;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    attempted;
    failed;
    error = (match outcome with Ok _ -> None | Error e -> Some e);
  }

let ops_per_mcycle r = float_of_int r.calls *. 1e6 /. float_of_int (Int.max 1 r.makespan)
let all_lat r = Pctl.sorted (Array.append r.insert_lat r.delete_lat)
let stat r name = Option.value ~default:0.0 (List.assoc_opt name r.stats)

(* Everything a pass simulated, for the same-seed identity checks: equal
   seeds must give equal digests, traced or not. *)
let digest r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.report,
            r.insert_lat,
            r.delete_lat,
            r.makespan,
            Repro_util.Stats.total r.ranks,
            r.dup_inserts,
            r.empty_deletes,
            r.stats )
          []))
