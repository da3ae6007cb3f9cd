module O = Repro_pqueue.Oracle.Make (Repro_pqueue.Key.Int)
module Machine = Repro_sim.Machine

(* Events are recorded into preallocated per-processor int buffers — ten
   columns per event: global sequence number, processor, tag (0 = insert,
   1 = delete returning Some, 2 = delete returning None), key, id,
   invoked, responded, parks (condition parks performed inside the
   operation), parked-at and woken-at (the clock of the last such park and
   the resume it was granted; -1 when the operation never parked) — and
   only flattened back into [O.event] records at quiescence, when [events]
   is called.  The hot recording path therefore allocates nothing once a
   processor's buffer has reached its working size (it doubles
   geometrically), which is what lets bin/check.exe seed sweeps record
   millions of events without paying a cons per operation.  The per-event
   sequence numbers are dense, so the flush places each event at its own
   index — the exact recording order, no sort needed. *)

let columns = 10

(* One processor's events: [len] rows of [columns] ints at the front of
   [buf]. *)
type row = { mutable buf : int array; mutable len : int }

type t = {
  rows : row Repro_runtime.Per_proc.t;
  mutable seq : int; (* total events = next global sequence number *)
}

let create () =
  { rows = Repro_runtime.Per_proc.create (fun _ -> { buf = [||]; len = 0 }); seq = 0 }

let record t ~proc ~tag ~key ~id ~invoked ~responded ?(parks = 0)
    ?(parked_at = -1) ?(woken_at = -1) () =
  let r = Repro_runtime.Per_proc.get t.rows proc in
  if (r.len + 1) * columns > Array.length r.buf then begin
    let grown = Array.make (Int.max (64 * columns) (2 * Array.length r.buf)) 0 in
    Array.blit r.buf 0 grown 0 (Array.length r.buf);
    r.buf <- grown
  end;
  let buf = r.buf in
  let base = r.len * columns in
  buf.(base) <- t.seq;
  buf.(base + 1) <- proc;
  buf.(base + 2) <- tag;
  buf.(base + 3) <- key;
  buf.(base + 4) <- id;
  buf.(base + 5) <- invoked;
  buf.(base + 6) <- responded;
  buf.(base + 7) <- parks;
  buf.(base + 8) <- parked_at;
  buf.(base + 9) <- woken_at;
  t.seq <- t.seq + 1;
  r.len <- r.len + 1

let length t = t.seq

let events t =
  if t.seq = 0 then []
  else begin
    let dummy =
      { O.proc = 0; op = O.Delete_min { result = None }; invoked = 0; responded = 0 }
    in
    let out = Array.make t.seq dummy in
    Repro_runtime.Per_proc.iter
      (fun { buf; len } ->
        for row = 0 to len - 1 do
          let b = row * columns in
          let op =
            match buf.(b + 2) with
            | 0 -> O.Insert { key = buf.(b + 3); id = buf.(b + 4) }
            | 1 -> O.Delete_min { result = Some (buf.(b + 3), buf.(b + 4)) }
            | _ -> O.Delete_min { result = None }
          in
          out.(buf.(b)) <-
            { O.proc = buf.(b + 1); op; invoked = buf.(b + 5); responded = buf.(b + 6) }
        done)
      t.rows;
    Array.to_list out
  end

(* A parked operation, reconstructed for the blocking-aware checkers. *)
type span = { event : O.event; parks : int; parked_at : int; woken_at : int }

let park_spans t =
  let out = ref [] in
  Repro_runtime.Per_proc.iter
    (fun { buf; len } ->
      for row = len - 1 downto 0 do
        let b = row * columns in
        if buf.(b + 7) > 0 then begin
          let op =
            match buf.(b + 2) with
            | 0 -> O.Insert { key = buf.(b + 3); id = buf.(b + 4) }
            | 1 -> O.Delete_min { result = Some (buf.(b + 3), buf.(b + 4)) }
            | _ -> O.Delete_min { result = None }
          in
          out :=
            {
              event =
                { O.proc = buf.(b + 1); op; invoked = buf.(b + 5); responded = buf.(b + 6) };
              parks = buf.(b + 7);
              parked_at = buf.(b + 8);
              woken_at = buf.(b + 9);
            }
            :: !out
        end
      done)
    t.rows;
  List.sort
    (fun a b ->
      compare (a.event.O.invoked, a.event.O.responded) (b.event.O.invoked, b.event.O.responded))
    !out

(* Timestamps come from [Machine.probe_time] (free of simulated charge) and
   the buffers are host state, mutated only between simulator effects — so
   recording perturbs neither the schedule nor the cycle counts.  Parking
   is observed the same way: [Machine.probe_blocking] exposes the calling
   processor's condition-park counter and last park/wake clocks, so
   differencing it across the operation says whether (and when) the
   operation parked without touching the simulation. *)
let wrap t (q : Repro_workload.Queue_adapter.instance) =
  let enter () =
    let proc = Machine.self () in
    let parks0, _, _ = Machine.probe_blocking () in
    (proc, parks0, Machine.probe_time ())
  in
  let finish ~proc ~parks0 ~invoked ~tag ~key ~id =
    let responded = Machine.probe_time () in
    let parks1, last_park, last_wake = Machine.probe_blocking () in
    let parks = parks1 - parks0 in
    let parked_at, woken_at = if parks > 0 then (last_park, last_wake) else (-1, -1) in
    record t ~proc ~tag ~key ~id ~invoked ~responded ~parks ~parked_at ~woken_at ()
  in
  let open Repro_workload.Queue_adapter in
  let record_delete result ~proc ~parks0 ~invoked =
    let tag, key, id = match result with Some (k, i) -> (1, k, i) | None -> (2, 0, 0) in
    finish ~proc ~parks0 ~invoked ~tag ~key ~id
  in
  let insert key id =
    let proc, parks0, invoked = enter () in
    q.insert key id;
    finish ~proc ~parks0 ~invoked ~tag:0 ~key ~id
  in
  let try_delete_min () =
    let proc, parks0, invoked = enter () in
    let result = q.try_delete_min () in
    record_delete result ~proc ~parks0 ~invoked;
    result
  in
  {
    q with
    insert;
    insert_wait =
      (fun key id ->
        let proc, parks0, invoked = enter () in
        q.insert_wait key id;
        finish ~proc ~parks0 ~invoked ~tag:0 ~key ~id);
    try_delete_min;
    delete_min_wait =
      (fun () ->
        let proc, parks0, invoked = enter () in
        let kv = q.delete_min_wait () in
        record_delete (Some kv) ~proc ~parks0 ~invoked;
        kv);
    (* The recorder serializes the bulk entry points through the recorded
       singles: the oracle's well-formedness condition requires one
       processor's operations not to overlap, so a batch cannot be
       recorded as N events sharing one invocation span.  Batch
       equivalence with the native paths is pinned by the direct bulk-API
       tests instead. *)
    insert_batch = (fun kvs -> Array.iter (fun (key, id) -> insert key id) kvs);
    delete_min_batch =
      (fun want ->
        let rec go acc n =
          if n <= 0 then List.rev acc
          else
            match try_delete_min () with
            | Some kv -> go (kv :: acc) (n - 1)
            | None -> List.rev acc
        in
        go [] want);
  }
