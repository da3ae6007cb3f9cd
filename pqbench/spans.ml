(* The traced run's in-memory spans.  One span per backend run and one per
   queue call, opened and closed from outside the queue with the calling
   processor and its free [probe_time] clock.  The [Machine] tracer charges
   every [Accessed], lock [Woken] and [Cond_woken] event to the processor's
   open call span, split by cause; whatever the causes do not cover is
   local work (the [Machine.work] between accesses, clock reads, spawns).
   A bounded prefix of each backend's access stream is kept for the
   memory-model replay. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Memory_model = Repro_sim.Memory_model
module QA = Repro_workload.Queue_adapter

let max_procs = Memory_model.default.Memory_model.max_procs

(* Cause columns of a call span, in output order. *)
let causes = [ "local"; "hit"; "miss"; "queued"; "lock_wait"; "cond_wait" ]

(* Per-processor accumulators of the open call span: cycles of
   [hit; miss; queued; lock_wait; cond_wait], then the access and hit
   counts. *)
let slots = 7

(* Call-span rows: backend, proc, kind (0 insert, 1 delete, 2 empty
   delete), start, end, then the [slots] accumulators ([local] is
   derived). *)
let row_width = 5 + slots

type backend_span = { name : string; host_ns : float; sim_cycles : int }

type t = {
  mutable backend : int;  (** index of the backend whose pass is running *)
  open_ : bool array;
  start : int array;
  acc : int array;  (** per processor, [slots] accumulators *)
  mutable rows : int array;
  mutable nrows : int;
  mutable backend_spans : backend_span list;  (** most recent first *)
  acc_meta : int array;  (** location lsl 11 lor proc lsl 2 lor kind *)
  acc_now : int array;  (** the access's request time *)
  mutable naccesses : int;
  mutable segments : (int * int) list;
      (** [(first, length)] of each finished backend's accesses, most recent
          first; every backend's pass starts a fresh memory system *)
  mutable segment_start : int;
}

(* Accesses kept per backend for the replay: enough for a stable per-access
   time, small enough (two ints each) to keep the traced run's memory low. *)
let per_backend_accesses = 200_000

let create ~backends () =
  {
    backend = 0;
    open_ = Array.make max_procs false;
    start = Array.make max_procs 0;
    acc = Array.make (slots * max_procs) 0;
    rows = Array.make (1024 * row_width) 0;
    nrows = 0;
    backend_spans = [];
    acc_meta = Array.make (backends * per_backend_accesses) 0;
    acc_now = Array.make (backends * per_backend_accesses) 0;
    naccesses = 0;
    segments = [];
    segment_start = 0;
  }

let start_backend t index =
  t.backend <- index;
  t.segment_start <- t.naccesses

let finish_backend t ~name ~host_ns ~sim_cycles =
  t.segments <- (t.segment_start, t.naccesses - t.segment_start) :: t.segments;
  t.backend_spans <- { name; host_ns; sim_cycles } :: t.backend_spans

let kind_code = function Memory_model.Read -> 0 | Write -> 1 | Swap -> 2
let kind_of_code = function 0 -> Memory_model.Read | 1 -> Write | _ -> Swap

let charge t proc slot n =
  if t.open_.(proc) then t.acc.((slots * proc) + slot) <- t.acc.((slots * proc) + slot) + n

let sink t : Trace.sink = function
  | Trace.Accessed { proc; location; kind; start; finish; hit; queued } ->
    charge t proc (if hit then 0 else 1) (finish - start);
    charge t proc 2 queued;
    charge t proc 5 1;
    if hit then charge t proc 6 1;
    if t.naccesses - t.segment_start < per_backend_accesses then begin
      t.acc_meta.(t.naccesses) <- (location lsl 11) lor (proc lsl 2) lor kind_code kind;
      t.acc_now.(t.naccesses) <- start - queued;
      t.naccesses <- t.naccesses + 1
    end
  | Trace.Woken { proc; waited; _ } -> charge t proc 3 waited
  | Trace.Cond_woken { proc; waited; _ } -> charge t proc 4 waited
  | _ -> ()

let enter t =
  let p = Machine.self () in
  t.open_.(p) <- true;
  t.start.(p) <- Machine.probe_time ();
  Array.fill t.acc (slots * p) slots 0

let leave t kind =
  let p = Machine.self () in
  t.open_.(p) <- false;
  if (t.nrows + 1) * row_width > Array.length t.rows then begin
    let grown = Array.make (2 * Array.length t.rows) 0 in
    Array.blit t.rows 0 grown 0 (t.nrows * row_width);
    t.rows <- grown
  end;
  let b = t.nrows * row_width in
  t.rows.(b) <- t.backend;
  t.rows.(b + 1) <- p;
  t.rows.(b + 2) <- kind;
  t.rows.(b + 3) <- t.start.(p);
  t.rows.(b + 4) <- Machine.probe_time ();
  Array.blit t.acc (slots * p) t.rows (b + 5) slots;
  t.nrows <- t.nrows + 1

(* [q] with a call span around each single-element entry point (the
   benchmark never uses the batch ones). *)
let wrap t (q : QA.instance) =
  let delete f =
    enter t;
    let r = f () in
    leave t (if Option.is_some r then 1 else 2);
    r
  in
  {
    q with
    insert =
      (fun k v ->
        enter t;
        q.insert k v;
        leave t 0);
    insert_wait =
      (fun k v ->
        enter t;
        q.insert_wait k v;
        leave t 0);
    try_delete_min = (fun () -> delete q.try_delete_min);
    delete_min_wait =
      (fun () ->
        enter t;
        let kv = q.delete_min_wait () in
        leave t 1;
        kv);
  }

(* Cause cycles of call row [i], in [causes] order: [local] is the latency
   the five charged causes leave over. *)
let row_causes t i =
  let b = i * row_width in
  let charged = Array.sub t.rows (b + 5) 5 in
  let latency = t.rows.(b + 4) - t.rows.(b + 3) in
  Array.append [| latency - Array.fold_left ( + ) 0 charged |] charged

let row t i = Array.sub t.rows (i * row_width) row_width

(* Over the measured calls (processor 0 only prefills) of the backends
   [keep] selects: the mean cycles per call of each cause, and the share
   of their accesses that hit. *)
let cause_means t ~keep =
  let sums = Array.make 6 0 and n = ref 0 and accesses = ref 0 and hits = ref 0 in
  for i = 0 to t.nrows - 1 do
    let b = i * row_width in
    if keep t.rows.(b) && t.rows.(b + 1) <> 0 then begin
      incr n;
      Array.iteri (fun c v -> sums.(c) <- sums.(c) + v) (row_causes t i);
      accesses := !accesses + t.rows.(b + 10);
      hits := !hits + t.rows.(b + 11)
    end
  done;
  ( Array.map (fun s -> float_of_int s /. float_of_int (Int.max 1 !n)) sums,
    float_of_int !hits /. float_of_int (Int.max 1 !accesses) )

(* The spans as one JSON object: backend spans, then the call spans in
   columns. *)
let to_json t ~backend_names =
  let b = Buffer.create (64 * (t.nrows + 16)) in
  Buffer.add_string b "{\n\"backend_spans\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n {\"name\": %S, \"host_ns\": %.0f, \"sim_cycles\": %d}" s.name
        s.host_ns s.sim_cycles)
    (List.rev t.backend_spans);
  Buffer.add_string b
    "\n],\n\"call_span_columns\": [\"backend\", \"proc\", \"kind\", \"start\", \"end\", \
     \"local\", \"hit\", \"miss\", \"queued\", \"lock_wait\", \"cond_wait\"],\n";
  Printf.bprintf b "\"backends\": [%s],\n\"kinds\": [\"insert\", \"delete\", \"empty_delete\"],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") backend_names));
  Buffer.add_string b "\"call_spans\": [";
  for i = 0 to t.nrows - 1 do
    if i > 0 then Buffer.add_char b ',';
    let r = row t i in
    let c = row_causes t i in
    Printf.bprintf b "\n[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]" r.(0) r.(1) r.(2) r.(3) r.(4) c.(0)
      c.(1) c.(2) c.(3) c.(4) c.(5)
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
