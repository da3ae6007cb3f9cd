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

type _ Effect.t +=
  | Work : int -> unit Effect.t
  | Access : Memory_model.meta * Memory_model.kind -> unit Effect.t
  | Alloc : Memory_model.meta Effect.t
  | Acquire : lock -> unit Effect.t
  | Try_acquire : lock -> bool Effect.t
  | Release : lock -> unit Effect.t
  | Get_time : int Effect.t
  | Probe_time : int Effect.t
  | Self : int Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t
  (* Internal: performed by the run-ahead public operations (see the
     elision functions at the bottom of this file) when a step's state
     changes are already applied and the processor merely needs to yield
     to the scheduler ([Yield]) or park on the lock in the [eff_lock]
     mailbox ([Park]).  Both are constant constructors so performing them
     allocates nothing. *)
  | Yield : unit Effect.t
  | Park : unit Effect.t
  | Cond_wait : cond -> unit Effect.t
  | Cond_signal : cond -> unit Effect.t
  | Cond_broadcast : cond -> unit Effect.t
  (* Constant-constructor twin of [Cond_wait] for the run-ahead public
     operation, taking the condition from the [eff_cond] mailbox — same
     trick as [Park] for lock acquisition. *)
  | Park_cond : unit Effect.t

(* The run-ahead register: when the current processor's next event is
   strictly below everything in the heap, its continuation parks here and
   the scheduler loop resumes it directly — no heap insert, no pop, no
   closure.  Holding the continuation (plus its result for the non-unit
   effects) in a dedicated variant keeps the fast path allocation-light
   and, crucially, keeps resumption inside the scheduler loop: resuming
   from the loop (a trampoline) rather than inside the effect handler
   bounds the native stack no matter how many consecutive events
   fast-path. *)
type pending =
  | No_pending
  | Pending_unit of (unit, unit) Effect.Deep.continuation
  | Pending_int of (int, unit) Effect.Deep.continuation * int
  | Pending_bool of (bool, unit) Effect.Deep.continuation * bool

(* A processor's resumption slot for the heap path.  A processor never has
   more than one event in the heap (it is not running until that event
   runs), so the continuation the event resumes, and its result, can sit
   here, and the heap holds [run] — a thunk allocated once per processor
   and slot type rather than once per event. *)
type 'a slot = {
  mutable k : ('a, unit) Effect.Deep.continuation;
  mutable v : 'a;
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
  mutable pending : pending;
  mutable seq : int;
  mutable current : int; (* running processor *)
  clocks : int array; (* local clock per processor *)
  mutable next_proc : int;
  mutable next_loc : int;
  mutable parked : int;
  mutable waiting_locks : lock list; (* locks with at least one waiter *)
  mutable waiting_conds : cond list; (* conditions with at least one waiter *)
  mutable finished : int;
  mutable end_time : int;
  (* Payload mailboxes for the pre-allocated effect handlers: [effc]
     stores the effect's argument here and returns a constant [Some
     handler], so handling a hot effect allocates nothing (a fresh
     closure per effect would cost ~7 words at millions of effects per
     figure).  Safe because the runtime invokes the returned handler
     immediately, before any other effect can overwrite the mailbox. *)
  mutable eff_int : int;
  mutable eff_meta : Memory_model.meta;
  mutable eff_kind : Memory_model.kind;
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
  unit_slots : unit slot option array;
  int_slots : int slot option array;
  bool_slots : bool slot option array;
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

(* Run-ahead check for the current processor's continuation at time [at]:
   legal exactly when [at] is strictly below the heap's minimum timestamp
   ([min_time] is [max_int] on an empty heap), because then no pending or
   future event can be ordered before it — strictly-smaller keys win
   regardless of the FIFO tie-break, and every event enqueued later
   carries a later sequence number.  See DESIGN.md §S16. *)
let[@inline] fast_ok st at = st.fast_enabled && at < Event_queue.min_time st.events

(* Store [k] and [v] in processor [p]'s slot and return the slot's thunk. *)
let slot_run slots p k v =
  match slots.(p) with
  | Some s ->
    s.k <- k;
    s.v <- v;
    s.run
  | None ->
    let rec s = { k; v; run = (fun () -> Effect.Deep.continue s.k s.v) } in
    slots.(p) <- Some s;
    s.run

let resume_unit st (k : (unit, unit) Effect.Deep.continuation) =
  let p = st.current in
  let at = st.clocks.(p) in
  if fast_ok st at then st.pending <- Pending_unit k
  else enqueue st ~proc:p ~at (slot_run st.unit_slots p k ())

let resume_int st (k : (int, unit) Effect.Deep.continuation) v =
  let p = st.current in
  let at = st.clocks.(p) in
  if fast_ok st at then st.pending <- Pending_int (k, v)
  else enqueue st ~proc:p ~at (slot_run st.int_slots p k v)

let resume_bool st (k : (bool, unit) Effect.Deep.continuation) v =
  let p = st.current in
  let at = st.clocks.(p) in
  if fast_ok st at then st.pending <- Pending_bool (k, v)
  else enqueue st ~proc:p ~at (slot_run st.bool_slots p k v)

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

(* --- step bodies shared between the effect handlers and the run-ahead
   elision paths.  A public operation either performs its effect (handler
   runs the body, then [resume_*] re-schedules the continuation) or, when
   the simulation is unperturbed, runs the body inline and calls
   [finish_step]; both routes apply the same mutations in the same order,
   so the two produce bit-identical schedules. --- *)

(* End an inline step: if the processor is still strictly earliest it
   keeps running (counting the dispatch the heap scheduler would have
   made); otherwise it performs [Yield], whose handler parks the
   continuation in the event heap like any other event. *)
let[@inline] finish_step st =
  if st.clocks.(st.current) < Event_queue.min_time st.events then
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
    enqueue st ~proc:waiter ~at:wake (slot_run st.unit_slots waiter wk ())

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

(* The running simulation on this domain, for the elision paths of the
   public operations.  Domain-local because independent sweep points run
   whole simulations on separate domains concurrently. *)
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
      pending = No_pending;
      seq = 0;
      current = 0;
      clocks = Array.make config.Memory_model.max_procs 0;
      next_proc = 1;
      next_loc = 0;
      parked = 0;
      waiting_locks = [];
      waiting_conds = [];
      finished = 0;
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
      eff_int = 0;
      eff_meta = dummy_meta;
      eff_kind = Memory_model.Read;
      eff_lock = dummy_lock;
      eff_cond = dummy_cond;
      proc_cond_parks = Array.make config.Memory_model.max_procs 0;
      proc_last_park = Array.make config.Memory_model.max_procs (-1);
      proc_last_wake = Array.make config.Memory_model.max_procs (-1);
      unit_slots = Array.make config.Memory_model.max_procs None;
      int_slots = Array.make config.Memory_model.max_procs None;
      bool_slots = Array.make config.Memory_model.max_procs None;
      wake_slots = Array.make config.Memory_model.max_procs None;
    }
  in
  (* One handler closure per hot effect, allocated once per run; [effc]
     parks the payload in the [eff_*] mailboxes and returns the matching
     pre-built [Some].  Cold effects (Alloc, Spawn) keep the ordinary
     fresh-closure shape. *)
  let h_work (k : (unit, unit) Effect.Deep.continuation) =
    let p = st.current in
    st.clocks.(p) <- st.clocks.(p) + Int.max 0 st.eff_int;
    resume_unit st k
  in
  let some_h_work = Some h_work in
  let h_access (k : (unit, unit) Effect.Deep.continuation) =
    charge_access st st.eff_meta st.eff_kind;
    resume_unit st k
  in
  let some_h_access = Some h_access in
  let h_get_time (k : (int, unit) Effect.Deep.continuation) =
    let p = st.current in
    let t = st.clocks.(p) in
    st.clocks.(p) <- t + st.config.Memory_model.local_fetch;
    resume_int st k t
  in
  let some_h_get_time = Some h_get_time in
  let h_probe_time (k : (int, unit) Effect.Deep.continuation) =
    Effect.Deep.continue k st.clocks.(st.current)
  in
  let some_h_probe_time = Some h_probe_time in
  let h_self (k : (int, unit) Effect.Deep.continuation) =
    Effect.Deep.continue k st.current
  in
  let some_h_self = Some h_self in
  let h_acquire (k : (unit, unit) Effect.Deep.continuation) =
    let lock = st.eff_lock in
    if do_acquire_grant st lock then resume_unit st k else park st lock k
  in
  let some_h_acquire = Some h_acquire in
  let h_park (k : (unit, unit) Effect.Deep.continuation) = park st st.eff_lock k in
  let some_h_park = Some h_park in
  let h_try_acquire (k : (bool, unit) Effect.Deep.continuation) =
    resume_bool st k (do_try_acquire st st.eff_lock)
  in
  let some_h_try_acquire = Some h_try_acquire in
  let h_release (k : (unit, unit) Effect.Deep.continuation) =
    do_release st st.eff_lock;
    resume_unit st k
  in
  let some_h_release = Some h_release in
  let h_yield (k : (unit, unit) Effect.Deep.continuation) = resume_unit st k in
  let some_h_yield = Some h_yield in
  let h_cond_wait (k : (unit, unit) Effect.Deep.continuation) =
    do_cond_wait st st.eff_cond k
  in
  let some_h_cond_wait = Some h_cond_wait in
  let h_cond_signal (k : (unit, unit) Effect.Deep.continuation) =
    do_cond_signal st st.eff_cond;
    resume_unit st k
  in
  let some_h_cond_signal = Some h_cond_signal in
  let h_cond_broadcast (k : (unit, unit) Effect.Deep.continuation) =
    do_cond_broadcast st st.eff_cond;
    resume_unit st k
  in
  let some_h_cond_broadcast = Some h_cond_broadcast in
  let rec start_proc proc body =
    Effect.Deep.match_with body ()
      {
        retc =
          (fun () ->
            st.finished <- st.finished + 1;
            st.end_time <- Int.max st.end_time st.clocks.(proc);
            match st.tracer with
            | None -> ()
            | Some sink -> sink (Trace.Exited { proc; at = st.clocks.(proc) }));
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Work n ->
              st.eff_int <- n;
              (some_h_work
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Access (meta, kind) ->
              st.eff_meta <- meta;
              st.eff_kind <- kind;
              (some_h_access
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Get_time ->
              (some_h_get_time
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Probe_time ->
              (some_h_probe_time
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Self ->
              (some_h_self
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Acquire lock ->
              st.eff_lock <- lock;
              (some_h_acquire
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Try_acquire lock ->
              st.eff_lock <- lock;
              (some_h_try_acquire
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Release lock ->
              st.eff_lock <- lock;
              (some_h_release
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Yield ->
              (some_h_yield
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Park ->
              (some_h_park
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Cond_wait c ->
              st.eff_cond <- c;
              (some_h_cond_wait
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Park_cond ->
              (some_h_cond_wait
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Cond_signal c ->
              st.eff_cond <- c;
              (some_h_cond_signal
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Cond_broadcast c ->
              st.eff_cond <- c;
              (some_h_cond_broadcast
                : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Alloc ->
              Some
                (fun k ->
                  let id = st.next_loc in
                  st.next_loc <- st.next_loc + 1;
                  Effect.Deep.continue k (Memory_model.make_meta st.memory ~id))
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
                     deterministically with the parent. *)
                  st.clocks.(p) <- st.clocks.(p) + 1;
                  resume_unit st k)
            | _ -> None)
      }
  in
  enqueue st ~proc:0 ~at:0 (fun () -> start_proc 0 main);
  (* The scheduler trampoline: drain the run-ahead register first — the
     handler that set it already proved the event precedes everything in
     the heap — then fall back to popping the heap.  Resuming here keeps
     the stack depth constant however long the fast-path streak. *)
  let rec loop () =
    match st.pending with
    | Pending_unit k ->
      st.pending <- No_pending;
      st.dispatched <- st.dispatched + 1;
      Effect.Deep.continue k ();
      loop ()
    | Pending_int (k, v) ->
      st.pending <- No_pending;
      st.dispatched <- st.dispatched + 1;
      Effect.Deep.continue k v;
      loop ()
    | Pending_bool (k, v) ->
      st.pending <- No_pending;
      st.dispatched <- st.dispatched + 1;
      Effect.Deep.continue k v;
      loop ()
    | No_pending ->
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
  (* Expose [st] to the public operations' elision paths for the duration
     of the simulation (restoring any enclosing run's state on the way
     out, including on exceptions). *)
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

let perform_or_fail eff =
  try Effect.perform eff with Effect.Unhandled _ -> not_in_sim ()

(* The public operations elide the effect entirely when the simulation is
   unperturbed (run-ahead): they apply the same step body the handler
   would and only perform a [Yield]/[Park] when the processor actually
   needs the scheduler.  Skipping the perform saves two stack switches
   and a continuation allocation per event — the bulk of the simulator's
   per-event host cost.  Perturbed (or [~fast_path:false]) runs take the
   effect route for every operation, which the golden determinism test
   pins as byte-identical. *)

let spawn body = perform_or_fail (Spawn body)

let work n =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    let p = st.current in
    st.clocks.(p) <- st.clocks.(p) + Int.max 0 n;
    finish_step st
  | _ -> perform_or_fail (Work n)

let get_time () =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    let p = st.current in
    let t = st.clocks.(p) in
    st.clocks.(p) <- t + st.config.Memory_model.local_fetch;
    finish_step st;
    t
  | _ -> perform_or_fail Get_time

(* [probe_time], [self] and [alloc_meta] never touch the schedule, so
   their elision is legal even under perturbation. *)
let probe_time () =
  match Domain.DLS.get dls_state with
  | Some st -> st.clocks.(st.current)
  | None -> perform_or_fail Probe_time

let self () =
  match Domain.DLS.get dls_state with
  | Some st -> st.current
  | None -> perform_or_fail Self

let alloc_meta () =
  match Domain.DLS.get dls_state with
  | Some st ->
    let id = st.next_loc in
    st.next_loc <- id + 1;
    Memory_model.make_meta st.memory ~id
  | None -> perform_or_fail Alloc

let access meta kind =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    charge_access st meta kind;
    finish_step st
  | _ -> perform_or_fail (Access (meta, kind))

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
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    if do_acquire_grant st lock then finish_step st
    else begin
      st.eff_lock <- lock;
      Effect.perform Park
    end
  | _ -> perform_or_fail (Acquire lock)

let lock_try_acquire lock =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    let got = do_try_acquire st lock in
    finish_step st;
    got
  | _ -> perform_or_fail (Try_acquire lock)

let lock_release lock =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    do_release st lock;
    finish_step st
  | _ -> perform_or_fail (Release lock)

let cond_create ?(name = "cond") lock =
  {
    cond_meta = alloc_meta ();
    cond_name = name;
    cond_lock = lock;
    cond_waiting = Queue.create ();
  }

(* [cond_wait] always parks, so there is nothing to elide: the run-ahead
   route merely swaps the allocating [Cond_wait c] constructor for the
   constant [Park_cond] + mailbox, like [lock_acquire]'s park. *)
let cond_wait c =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    st.eff_cond <- c;
    Effect.perform Park_cond
  | _ -> perform_or_fail (Cond_wait c)

let cond_signal c =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    do_cond_signal st c;
    finish_step st
  | _ -> perform_or_fail (Cond_signal c)

let cond_broadcast c =
  match Domain.DLS.get dls_state with
  | Some st when st.fast_enabled ->
    do_cond_broadcast st c;
    finish_step st
  | _ -> perform_or_fail (Cond_broadcast c)

(* Free probes (no simulated charge), for harness instrumentation. *)

let probe_lock_stats () =
  match Domain.DLS.get dls_state with
  | Some st -> (st.lock_acquisitions, st.lock_try_failures)
  | None -> not_in_sim ()

let probe_blocking () =
  match Domain.DLS.get dls_state with
  | Some st ->
    let p = st.current in
    (st.proc_cond_parks.(p), st.proc_last_park.(p), st.proc_last_wake.(p))
  | None -> not_in_sim ()
