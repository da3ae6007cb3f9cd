type report = {
  end_time : int;
  processors : int;
  events : int;
  accesses : int;
  cache_hits : int;
  queued_cycles : int;
  swaps : int;
  lock_acquisitions : int;
  lock_contentions : int;
  lock_wait_cycles : int;
  lock_try_failures : int;
  cond_parkings : int;
  cond_wait_cycles : int;
}

exception Deadlock of string

type perturbation = { sched_seed : int64; jitter : int }

type lock = {
  mutable lock_meta : Memory_model.meta; (* mutable for quiescent refresh *)
  lock_name : string;
  mutable holder : int; (* proc id, or -1 when free *)
  waiting : (int * (unit, unit) Effect.Deep.continuation) Queue.t;
}

(* A condition variable is tied to its guarding lock at creation: waiting
   releases [cond_lock], waking re-acquires it, and the deadlock
   diagnostic names the pair.  Waiters park FIFO, like lock waiters. *)
type cond = {
  mutable cond_meta : Memory_model.meta;
  cond_name : string;
  cond_lock : lock;
  cond_waiting : (int * (unit, unit) Effect.Deep.continuation) Queue.t;
}

(* The only ways a processor reaches the scheduler.  Every public operation
   applies its step inline; then [Yield] hands the processor back to be
   re-enqueued at its clock, [Park] parks it on the lock in the [eff_lock]
   mailbox and [Park_cond] on the condition in [eff_cond].  The three are
   constant constructors, so performing them allocates nothing.  [Spawn]
   is cold and carries the child's body. *)
type _ Effect.t +=
  | Yield : unit Effect.t
  | Park : unit Effect.t
  | Park_cond : unit Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t

(* A processor's resumption slot for the event heap.  A processor never has
   more than one event in the heap (it is not running until that event
   runs), so the continuation the event resumes can sit here, and the heap
   holds [run] — a thunk allocated once per processor rather than once
   per event. *)
type slot = {
  mutable k : (unit, unit) Effect.Deep.continuation;
  run : unit -> unit;
}

(* The same for a condition waiter's wake-up, which re-acquires [wlock]
   before resuming. *)
type wake = {
  mutable wk : (unit, unit) Effect.Deep.continuation;
  mutable wlock : lock;
  wrun : unit -> unit;
}

(* Mutable simulation state, all local to one [run] call. *)
type state = {
  config : Memory_model.config;
  memory : Memory_model.system;
  tracer : Trace.sink option;
  scratch : Memory_model.scratch; (* reused destination for every charge *)
  perturbed : bool;
  prng : Repro_util.Rng.t; (* meaningful only when [perturbed] *)
  jitter : int; (* max extra cycles per event, only when [perturbed] *)
  fast_enabled : bool; (* run-ahead legal: not perturbed, not disabled *)
  events : Event_queue.t;
  mutable seq : int;
  mutable current : int; (* running processor *)
  clocks : int array; (* local clock per processor *)
  mutable next_proc : int;
  mutable next_loc : int;
  mutable parked : int;
  mutable waiting_locks : lock list; (* locks with at least one waiter *)
  mutable waiting_conds : cond list; (* conditions with at least one waiter *)
  mutable end_time : int;
  (* Mailboxes for [Park] and [Park_cond]: the operation stores its lock or
     condition here just before performing, and the handler reads it
     before any other effect can overwrite it. *)
  mutable eff_lock : lock;
  mutable eff_cond : cond;
  (* Free per-processor blocking probes for harness instrumentation (the
     blocking-aware history recorder), mirroring [probe_time]: cumulative
     condition parkings, and the times of the most recent park and wake. *)
  proc_cond_parks : int array;
  proc_last_park : int array;
  proc_last_wake : int array;
  (* Per-processor resumption slots, created on a processor's first
     heap-path event of each kind. *)
  slots : slot option array;
  wake_slots : wake option array;
  (* statistics *)
  mutable dispatched : int;
  mutable accesses : int;
  mutable cache_hits : int;
  mutable queued_cycles : int;
  mutable swaps : int;
  mutable lock_acquisitions : int;
  mutable lock_contentions : int;
  mutable lock_wait_cycles : int;
  mutable lock_try_failures : int;
  mutable cond_parkings : int;
  mutable cond_wait_cycles : int;
}

(* Without perturbation the key is [(at, seq)]: same-time events run FIFO
   and the whole simulation is a pure function of the program.  With it,
   the seeded stream delays each event by up to [jitter] cycles and
   replaces the FIFO sequence number with a random tie-break, so distinct
   seeds explore distinct (but individually deterministic and replayable)
   legal interleavings — the schedule fuzzer's lever.  The two cases are
   separate functions so the scheduler's hot loop branches on a plain
   bool instead of matching an option per event. *)
let enqueue_plain st ~proc ~at thunk =
  st.seq <- st.seq + 1;
  Event_queue.insert st.events ~time:at ~seq:st.seq ~proc thunk

let enqueue_perturbed st ~proc ~at thunk =
  st.seq <- st.seq + 1;
  let at =
    if st.jitter > 0 then at + Repro_util.Rng.int st.prng (st.jitter + 1) else at
  in
  Event_queue.insert st.events ~time:at
    ~seq:(Repro_util.Rng.int st.prng 0x4000_0000)
    ~proc thunk

let enqueue st ~proc ~at thunk =
  if st.perturbed then enqueue_perturbed st ~proc ~at thunk
  else enqueue_plain st ~proc ~at thunk

(* Store [k] in processor [p]'s slot and return the slot's thunk. *)
let slot_run st p k =
  match st.slots.(p) with
  | Some s ->
    s.k <- k;
    s.run
  | None ->
    let rec s = { k; run = (fun () -> Effect.Deep.continue s.k ()) } in
    st.slots.(p) <- Some s;
    s.run

(* Re-enqueue the running processor's continuation at its clock. *)
let resume st k =
  let p = st.current in
  enqueue st ~proc:p ~at:st.clocks.(p) (slot_run st p k)

let handoff_cost st = st.config.Memory_model.remote_fetch

(* Charge an access for the current processor and advance its clock. *)
let charge_access st meta kind =
  let proc = st.current in
  let now = st.clocks.(proc) in
  let c = st.scratch in
  Memory_model.access_into c st.memory meta ~proc ~now kind;
  st.accesses <- st.accesses + 1;
  if c.Memory_model.c_hit then st.cache_hits <- st.cache_hits + 1;
  st.queued_cycles <- st.queued_cycles + c.Memory_model.c_queued;
  (match kind with
  | Memory_model.Swap -> st.swaps <- st.swaps + 1
  | Memory_model.Read | Memory_model.Write -> ());
  st.clocks.(proc) <- c.Memory_model.c_finish;
  match st.tracer with
  | None -> ()
  | Some sink ->
    sink
      (Trace.Accessed
         {
           proc;
           location = Memory_model.location_id meta;
           kind;
           start = c.Memory_model.c_start;
           finish = c.Memory_model.c_finish;
           hit = c.Memory_model.c_hit;
           queued = c.Memory_model.c_queued;
         })

(* The diagnostic distinguishes the two ways a processor can be parked:
   waiting for a lock (its holder is named — the classic cycle hunt) and
   waiting on a condition nobody will signal (a lost wake-up; the
   condition and its guarding lock are named).  The lock-only wording is
   kept byte-identical to the historical message. *)
let deadlock_message st =
  let waiter_list q = List.rev (Queue.fold (fun acc (p, _) -> p :: acc) [] q) in
  let pp_waiters ps = String.concat "; " (List.map string_of_int ps) in
  let locks = List.filter (fun l -> not (Queue.is_empty l.waiting)) st.waiting_locks in
  let conds =
    List.filter (fun c -> not (Queue.is_empty c.cond_waiting)) st.waiting_conds
  in
  let pp_lock l =
    Printf.sprintf "%S held by %d, waited on by [%s]" l.lock_name l.holder
      (pp_waiters (waiter_list l.waiting))
  in
  let pp_cond c =
    Printf.sprintf "condition %S (lock %S) waited on by [%s]" c.cond_name
      c.cond_lock.lock_name
      (pp_waiters (waiter_list c.cond_waiting))
  in
  let parts =
    List.map pp_lock (List.rev locks) @ List.map pp_cond (List.rev conds)
  in
  if conds = [] then
    Printf.sprintf "%d processor(s) parked on locks, none runnable: %s" st.parked
      (String.concat ", " parts)
  else begin
    let count qs len = List.fold_left (fun acc q -> acc + Queue.length (len q)) 0 qs in
    let on_locks = count locks (fun l -> l.waiting) in
    let on_conds = count conds (fun c -> c.cond_waiting) in
    Printf.sprintf
      "%d processor(s) parked (%d on locks, %d on conditions), none runnable: %s"
      st.parked on_locks on_conds
      (String.concat ", " parts)
  end

(* --- step bodies.  Every public operation applies its step inline on the
   running processor, then ends in [finish_step] (or parks). --- *)

(* End a step.  Run-ahead: when the processor's clock is strictly below
   the heap's minimum timestamp ([min_time] is [max_int] on an empty
   heap), no pending or future event can be ordered before it —
   strictly-smaller keys win regardless of the tie-break, and every event
   enqueued later carries a later sequence number — so it keeps running,
   counting the dispatch the heap scheduler would have made.  Otherwise,
   and always under perturbation (whose jitter re-keys events) or
   [~fast_path:false], it performs [Yield] and is re-enqueued at its
   clock like any other event.  See DESIGN.md §S16. *)
let[@inline] finish_step st =
  if st.fast_enabled && st.clocks.(st.current) < Event_queue.min_time st.events then
    st.dispatched <- st.dispatched + 1
  else Effect.perform Yield

(* Charge the acquire attempt (an atomic RMW on the lock word) and grant
   the lock if free; returns whether it was granted. *)
let do_acquire_grant st lock =
  charge_access st lock.lock_meta Memory_model.Swap;
  if lock.holder = -1 then begin
    let p = st.current in
    lock.holder <- p;
    st.lock_acquisitions <- st.lock_acquisitions + 1;
    (match st.tracer with
    | None -> ()
    | Some sink ->
      sink (Trace.Acquired { proc = p; lock = lock.lock_name; at = st.clocks.(p) }));
    true
  end
  else false

(* Park the already-charged, not-granted acquirer on the lock's FIFO. *)
let park st lock (k : (unit, unit) Effect.Deep.continuation) =
  let p = st.current in
  st.lock_contentions <- st.lock_contentions + 1;
  st.parked <- st.parked + 1;
  (match st.tracer with
  | None -> ()
  | Some sink ->
    sink (Trace.Parked { proc = p; lock = lock.lock_name; at = st.clocks.(p) }));
  Queue.add (p, k) lock.waiting;
  if Queue.length lock.waiting = 1 then
    st.waiting_locks <- lock :: st.waiting_locks

(* The attempt is an atomic RMW on the lock word whether or not it
   succeeds; a failed try never parks. *)
let do_try_acquire st lock =
  charge_access st lock.lock_meta Memory_model.Swap;
  let got = lock.holder = -1 in
  if got then begin
    let p = st.current in
    lock.holder <- p;
    st.lock_acquisitions <- st.lock_acquisitions + 1;
    match st.tracer with
    | None -> ()
    | Some sink ->
      sink (Trace.Acquired { proc = p; lock = lock.lock_name; at = st.clocks.(p) })
  end
  else st.lock_try_failures <- st.lock_try_failures + 1;
  got

let do_release st lock =
  let p = st.current in
  if lock.holder <> p then
    failwith
      (Printf.sprintf "Machine: processor %d released lock %s held by %d" p
         lock.lock_name lock.holder);
  charge_access st lock.lock_meta Memory_model.Write;
  (match st.tracer with
  | None -> ()
  | Some sink ->
    sink (Trace.Released { proc = p; lock = lock.lock_name; at = st.clocks.(p) }));
  match Queue.take_opt lock.waiting with
  | None -> lock.holder <- -1
  | Some (waiter, wk) ->
    lock.holder <- waiter;
    (* The handoff is when the waiter's acquisition succeeds — count it
       here, not at the parked attempt, so [lock_acquisitions] uniformly
       means grants (see machine.mli). *)
    st.lock_acquisitions <- st.lock_acquisitions + 1;
    st.parked <- st.parked - 1;
    if Queue.is_empty lock.waiting then
      st.waiting_locks <- List.filter (fun l -> l != lock) st.waiting_locks;
    let park_time = st.clocks.(waiter) in
    let wake = Int.max st.clocks.(p) park_time + handoff_cost st in
    st.lock_wait_cycles <- st.lock_wait_cycles + (wake - park_time);
    st.clocks.(waiter) <- wake;
    (match st.tracer with
    | None -> ()
    | Some sink ->
      sink
        (Trace.Woken
           {
             proc = waiter;
             lock = lock.lock_name;
             at = wake;
             waited = wake - park_time;
           }));
    enqueue st ~proc:waiter ~at:wake (slot_run st waiter wk)

(* Condition wait: atomically give up the guarding lock (a full release,
   including the handoff to the next acquirer) and park on the condition's
   FIFO.  The parked processor generates no memory traffic and its clock
   stands still until a signal arrives. *)
let do_cond_wait st c (k : (unit, unit) Effect.Deep.continuation) =
  let p = st.current in
  if c.cond_lock.holder <> p then
    failwith
      (Printf.sprintf
         "Machine: processor %d waits on condition %s without holding lock %s"
         p c.cond_name c.cond_lock.lock_name);
  do_release st c.cond_lock;
  st.cond_parkings <- st.cond_parkings + 1;
  st.parked <- st.parked + 1;
  st.proc_cond_parks.(p) <- st.proc_cond_parks.(p) + 1;
  st.proc_last_park.(p) <- st.clocks.(p);
  (match st.tracer with
  | None -> ()
  | Some sink ->
    sink
      (Trace.Cond_parked
         { proc = p; cond = c.cond_name; lock = c.cond_lock.lock_name;
           at = st.clocks.(p) }));
  Queue.add (p, k) c.cond_waiting;
  if Queue.length c.cond_waiting = 1 then
    st.waiting_conds <- c :: st.waiting_conds

(* Store a woken waiter's continuation and lock in its [wake] slot and
   return the slot's thunk, which re-acquires the lock, then resumes. *)
let wake_run st p k lock =
  match st.wake_slots.(p) with
  | Some w ->
    w.wk <- k;
    w.wlock <- lock;
    w.wrun
  | None ->
    let rec w =
      {
        wk = k;
        wlock = lock;
        wrun =
          (fun () ->
            if do_acquire_grant st w.wlock then Effect.Deep.continue w.wk ()
            else park st w.wlock w.wk);
      }
    in
    st.wake_slots.(p) <- Some w;
    w.wrun

(* Wake the longest-parked waiter: its clock jumps to the signal's
   delivery time (same handoff charge as a lock handoff) and the waiter
   is re-scheduled into an ordinary lock acquisition — granted on the
   spot if the guarding lock is free at that simulated instant, parked on
   the lock's FIFO otherwise.  Waited cycles accumulate per the same
   park-to-wake rule as locks. *)
let wake_one st c =
  match Queue.take_opt c.cond_waiting with
  | None -> ()
  | Some (waiter, wk) ->
    if Queue.is_empty c.cond_waiting then
      st.waiting_conds <- List.filter (fun x -> x != c) st.waiting_conds;
    st.parked <- st.parked - 1;
    let park_time = st.clocks.(waiter) in
    let wake = Int.max st.clocks.(st.current) park_time + handoff_cost st in
    st.cond_wait_cycles <- st.cond_wait_cycles + (wake - park_time);
    st.clocks.(waiter) <- wake;
    st.proc_last_wake.(waiter) <- wake;
    (match st.tracer with
    | None -> ()
    | Some sink ->
      sink
        (Trace.Cond_woken
           { proc = waiter; cond = c.cond_name; lock = c.cond_lock.lock_name;
             at = wake; waited = wake - park_time }));
    enqueue st ~proc:waiter ~at:wake (wake_run st waiter wk c.cond_lock)

(* Signal and broadcast are shared writes on the condition word (the
   caller need not hold the guarding lock, exactly like [Condition]). *)
let do_cond_signal st c =
  charge_access st c.cond_meta Memory_model.Write;
  wake_one st c

let do_cond_broadcast st c =
  charge_access st c.cond_meta Memory_model.Write;
  while not (Queue.is_empty c.cond_waiting) do
    wake_one st c
  done

(* The running simulation on this domain, which every public operation
   looks up.  Domain-local because independent sweep points run whole
   simulations on separate domains concurrently. *)
let dls_state : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let run ?(config = Memory_model.default) ?tracer ?perturb ?(fast_path = true) main =
  let prng, jitter =
    match perturb with
    | None -> (Repro_util.Rng.of_seed 0L, 0)
    | Some (p : perturbation) ->
      if p.jitter < 0 then invalid_arg "Machine.run: negative jitter";
      (Repro_util.Rng.of_seed p.sched_seed, p.jitter)
  in
  let perturbed = Option.is_some perturb in
  let memory = Memory_model.make_system config in
  (* Placeholder mailbox values, overwritten before any handler reads
     them; the dummy meta never reaches [access_into]. *)
  let dummy_meta = Memory_model.make_meta memory ~id:0 in
  let dummy_lock =
    { lock_meta = dummy_meta; lock_name = "<none>"; holder = -1;
      waiting = Queue.create () }
  in
  let dummy_cond =
    { cond_meta = dummy_meta; cond_name = "<none>"; cond_lock = dummy_lock;
      cond_waiting = Queue.create () }
  in
  let st =
    {
      config;
      memory;
      tracer;
      scratch = Memory_model.make_scratch ();
      perturbed;
      prng;
      jitter;
      (* Jitter re-keys events, so run-ahead would reorder them; the fast
         path is only legal on the canonical schedule. *)
      fast_enabled = fast_path && not perturbed;
      events = Event_queue.create ();
      seq = 0;
      current = 0;
      clocks = Array.make config.Memory_model.max_procs 0;
      next_proc = 1;
      next_loc = 0;
      parked = 0;
      waiting_locks = [];
      waiting_conds = [];
      end_time = 0;
      dispatched = 0;
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
      eff_lock = dummy_lock;
      eff_cond = dummy_cond;
      proc_cond_parks = Array.make config.Memory_model.max_procs 0;
      proc_last_park = Array.make config.Memory_model.max_procs (-1);
      proc_last_wake = Array.make config.Memory_model.max_procs (-1);
      slots = Array.make config.Memory_model.max_procs None;
      wake_slots = Array.make config.Memory_model.max_procs None;
    }
  in
  (* One handler closure per constant effect, allocated once per run, so
     [effc] returns a pre-built [Some] and handling allocates nothing. *)
  let some_h_yield = Some (fun k -> resume st k) in
  let some_h_park = Some (fun k -> park st st.eff_lock k) in
  let some_h_park_cond = Some (fun k -> do_cond_wait st st.eff_cond k) in
  let rec start_proc proc body =
    Effect.Deep.match_with body ()
      {
        retc =
          (fun () ->
            st.end_time <- Int.max st.end_time st.clocks.(proc);
            match st.tracer with
            | None -> ()
            | Some sink -> sink (Trace.Exited { proc; at = st.clocks.(proc) }));
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              (some_h_yield : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Park ->
              (some_h_park : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Park_cond ->
              (some_h_park_cond
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Spawn body ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let p = st.current in
                  if st.next_proc >= st.config.Memory_model.max_procs then
                    failwith "Machine.spawn: processor limit reached";
                  let child = st.next_proc in
                  st.next_proc <- st.next_proc + 1;
                  st.clocks.(child) <- st.clocks.(p);
                  (match st.tracer with
                  | None -> ()
                  | Some sink ->
                    sink
                      (Trace.Spawned
                         { parent = p; child; at = st.clocks.(p) }));
                  enqueue st ~proc:child ~at:st.clocks.(child) (fun () ->
                      start_proc child body);
                  (* Spawning costs one cycle so children interleave
                     deterministically with the parent.  The child sits at
                     the parent's old clock, so the parent never runs
                     ahead here. *)
                  st.clocks.(p) <- st.clocks.(p) + 1;
                  resume st k)
            | _ -> None)
      }
  in
  enqueue st ~proc:0 ~at:0 (fun () -> start_proc 0 main);
  (* The scheduler: resume the globally-earliest event until none is left.
     A processor that runs ahead stays inside its thunk, so the stack
     depth is constant however long the streak. *)
  let rec loop () =
    if Event_queue.pop st.events then begin
      let proc = Event_queue.popped_proc st.events in
      let at = Event_queue.popped_time st.events in
      st.current <- proc;
      st.dispatched <- st.dispatched + 1;
      (* A parked-and-woken or jitter-delayed processor's clock may trail
         the event key; never let clocks run backwards. *)
      if st.clocks.(proc) < at then st.clocks.(proc) <- at;
      (Event_queue.popped_thunk st.events) ();
      loop ()
    end
    else if st.parked > 0 then raise (Deadlock (deadlock_message st))
  in
  (* Expose [st] to the public operations for the duration of the
     simulation (restoring any enclosing run's state on the way out,
     including on exceptions). *)
  let prev_dls = Domain.DLS.get dls_state in
  Domain.DLS.set dls_state (Some st);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set dls_state prev_dls)
    loop;
  {
    end_time = st.end_time;
    processors = st.next_proc;
    events = st.dispatched;
    accesses = st.accesses;
    cache_hits = st.cache_hits;
    queued_cycles = st.queued_cycles;
    swaps = st.swaps;
    lock_acquisitions = st.lock_acquisitions;
    lock_contentions = st.lock_contentions;
    lock_wait_cycles = st.lock_wait_cycles;
    lock_try_failures = st.lock_try_failures;
    cond_parkings = st.cond_parkings;
    cond_wait_cycles = st.cond_wait_cycles;
  }

let not_in_sim () = failwith "Machine: operation used outside Machine.run"

(* Every public operation looks the running simulation up once, applies
   its step inline and ends in [finish_step], [Park] or [Park_cond]. *)
let[@inline] state () =
  match Domain.DLS.get dls_state with Some st -> st | None -> not_in_sim ()

let spawn body =
  ignore (state ());
  Effect.perform (Spawn body)

let work n =
  let st = state () in
  let p = st.current in
  st.clocks.(p) <- st.clocks.(p) + Int.max 0 n;
  finish_step st

let get_time () =
  let st = state () in
  let p = st.current in
  let t = st.clocks.(p) in
  st.clocks.(p) <- t + st.config.Memory_model.local_fetch;
  finish_step st;
  t

(* [probe_time], [self] and [alloc_meta] never touch the schedule. *)
let probe_time () =
  let st = state () in
  st.clocks.(st.current)

let self () = (state ()).current

let alloc_meta () =
  let st = state () in
  let id = st.next_loc in
  st.next_loc <- id + 1;
  Memory_model.make_meta st.memory ~id

let access meta kind =
  let st = state () in
  charge_access st meta kind;
  finish_step st

let lock_create ?(name = "lock") () =
  {
    lock_meta = alloc_meta ();
    lock_name = name;
    holder = -1;
    waiting = Queue.create ();
  }

(* Quiescent reuse of a pooled lock: a fresh lock-word location, drawn
   from the same id counter as [lock_create] so recycled locks are
   bit-identical to fresh ones.  Only legal while nobody holds or waits
   on the lock. *)
let lock_refresh lock =
  if lock.holder <> -1 || not (Queue.is_empty lock.waiting) then
    failwith
      (Printf.sprintf "Machine.lock_refresh: lock %s is in use" lock.lock_name);
  lock.lock_meta <- alloc_meta ()

let lock_acquire lock =
  let st = state () in
  if do_acquire_grant st lock then finish_step st
  else begin
    st.eff_lock <- lock;
    Effect.perform Park
  end

let lock_try_acquire lock =
  let st = state () in
  let got = do_try_acquire st lock in
  finish_step st;
  got

let lock_release lock =
  let st = state () in
  do_release st lock;
  finish_step st

let cond_create ?(name = "cond") lock =
  {
    cond_meta = alloc_meta ();
    cond_name = name;
    cond_lock = lock;
    cond_waiting = Queue.create ();
  }

(* [cond_wait] always parks; its handler releases the guarding lock and
   queues the continuation on the condition. *)
let cond_wait c =
  let st = state () in
  st.eff_cond <- c;
  Effect.perform Park_cond

let cond_signal c =
  let st = state () in
  do_cond_signal st c;
  finish_step st

let cond_broadcast c =
  let st = state () in
  do_cond_broadcast st c;
  finish_step st

(* Free probes (no simulated charge), for harness instrumentation. *)

let probe_lock_stats () =
  let st = state () in
  (st.lock_acquisitions, st.lock_try_failures)

let probe_runnable () = Event_queue.length (state ()).events

let probe_blocking () =
  let st = state () in
  let p = st.current in
  (st.proc_cond_parks.(p), st.proc_last_park.(p), st.proc_last_wake.(p))
