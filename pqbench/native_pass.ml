(* One backend's native rep: the workload's calls on two real domains
   (domain 0 is the main one, so the process never runs more domains than
   cores), outputs checked against the inputs.  Untimed reps read the clock
   only around the whole rep; [~timed:true] also times every call. *)

module Native = Repro_runtime.Native_runtime
module QA = Repro_workload.Queue_adapter
module W = Workloads

type t = {
  calls : int;  (** measured calls *)
  wall_ns : float;  (** measured calls only *)
  setup_ns : float;  (** queue creation plus prefill *)
  call_ns : int array;  (** per-call latencies, sorted; empty unless timed *)
  lock_acquisitions : int;  (** runtime lock grants during the measured calls *)
  attempted : int;
  failed : int;
  error : string option;
}

let on_two_domains body =
  let d = Domain.spawn (fun () -> body 1) in
  let mine = match body 0 with () -> None | exception e -> Some e in
  Domain.join d;
  Option.iter raise mine

let ops_per_s r = float_of_int r.calls *. 1e9 /. r.wall_ns

let run ?(timed = false) (impl : QA.impl) plan =
  let t0 = Clock.now_ns () in
  let q = impl.QA.create () in
  Array.iteri (fun id key -> q.QA.insert key id) (W.prefill plan);
  let setup_ns = Clock.now_ns () -. t0 in
  (* Per-domain outputs, written with plain stores: delivered keys and
     ids ([-1] id for an empty delete-min), and call latencies. *)
  let per_domain =
    match plan with
    | W.Mix_plan (_, p) -> Array.map Array.length p.W.calls
    | W.Edf_plan (_, p) -> Array.make 2 (Array.length p.W.edf_key_of)
  in
  let out_key = Array.map (fun n -> Array.make n 0) per_domain in
  let out_id = Array.map (fun n -> Array.make n (-2)) per_domain in
  let lat = Array.map (fun n -> Array.make (if timed then n else 0) 0) per_domain in
  let time_call d i t =
    if timed then lat.(d).(i) <- int_of_float (Clock.now_ns () -. t)
  in
  let now () = if timed then Clock.now_ns () else 0.0 in
  let deliver d i (k, id) =
    out_key.(d).(i) <- k;
    out_id.(d).(i) <- id
  in
  let body =
    match plan with
    | W.Mix_plan (m, p) ->
      fun d ->
        let base = p.W.first_id.(d) in
        Array.iteri
          (fun i key ->
            Native.work m.W.work_cycles;
            let t = now () in
            if key >= 0 then q.QA.insert key (base + i)
            else begin
              match q.QA.try_delete_min () with
              | Some kv -> deliver d i kv
              | None -> out_id.(d).(i) <- -1
            end;
            time_call d i t)
          p.W.calls.(d)
    | W.Edf_plan (_, p) ->
      (* domain 0 produces every job, domain 1 serves them *)
      fun d ->
        if d = 0 then
          Array.iteri
            (fun i (key, gap) ->
              let t = now () in
              q.QA.insert_wait key i;
              time_call d i t;
              Native.work gap)
            p.W.jobs.(0)
        else
          Array.iteri
            (fun i s ->
              let t = now () in
              deliver d i (q.QA.delete_min_wait ());
              time_call d i t;
              Native.work s)
            p.W.service.(0)
  in
  let acq0, _ = Native.lock_stats () in
  let t1 = Clock.now_ns () in
  let error =
    match on_two_domains body with () -> None | exception e -> Some (Printexc.to_string e)
  in
  let wall_ns = Clock.now_ns () -. t1 in
  let acq1, _ = Native.lock_stats () in
  let attempted = W.attempted_calls plan in
  let failed =
    if error <> None then attempted
    else
      Verify.bad_outputs ~dedups:impl.QA.dedups ~key_of:(W.key_of plan) (fun f ->
          Array.iteri
            (fun d ids -> Array.iteri (fun i id -> if id >= 0 then f out_key.(d).(i) id) ids)
            out_id;
          let rec drain () =
            match q.QA.try_delete_min () with
            | Some (k, id) ->
              f k id;
              drain ()
            | None -> ()
          in
          drain ())
  in
  {
    calls = W.measured_calls plan;
    wall_ns;
    setup_ns;
    call_ns = (if timed then Pctl.sorted (Array.concat (Array.to_list lat)) else [||]);
    lock_acquisitions = acq1 - acq0;
    attempted;
    failed;
    error;
  }
