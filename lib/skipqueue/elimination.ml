(* The front end is generic in its backing queue: anything exposing the
   claim/batch half of the SkipQueue's Delete-min split (first_bound,
   hunt_batch) composes, and [create] is handed the queue to sit in front
   of.  [Over] is the generic functor; [Make] applies it to {!Skipqueue};
   the adapter also applies [Over] to the coalescing queue
   ({!Skipqueue_co}). *)

module type BACKING = sig
  type 'v t
  type 'v batch

  val insert : 'v t -> int -> 'v -> [ `Inserted | `Updated ]
  val first_bound : 'v t -> [ `Empty | `Min_at_most of int ]
  val hunt_batch : 'v t -> want:int -> 'v batch
  val batch_claims : 'v batch -> (int * 'v) list
  val finish_batch : 'v t -> 'v batch -> unit
  val size : 'v t -> int
  val to_list : 'v t -> (int * 'v) list
  val check_invariants : 'v t -> (unit, string) result
  val stats : 'v t -> (string * float) list
end

module Over (R : Repro_runtime.Runtime_intf.S) (Q : BACKING) = struct
  module SQ = Q

  (* Published by a deleter: only an insert whose key is strictly below
     [bound] may eliminate with it — and even then only after justifying
     the rendezvous with a fresh bound of its own (see [insert]).  The
     bound is the key of the first bottom-level node at observation time —
     a lower bound on every settled element — or [Unbounded] when the
     list was completely empty.  [Closed] refuses insert-elimination
     outright (only a combiner may answer): it lets a deleter publish
     without reading the contended head line at all, and is trivially
     sound.  Deleters observe a real bound only every [bound_every]-th
     publish. *)
  type bound = Unbounded | At_most of int | Closed

  (* The per-waiter rendezvous cell.  Every transition out of [Pending]
     is a CAS, and each delete allocates a fresh cell, so the physical
     equality the runtimes' [cas] uses is exact (no ABA):
       Pending -> Got r        an inserter eliminated with the waiter
       Pending -> Reserved     a combiner committed to answer the waiter
       Pending -> Withdrawn    the waiter timed out
       Reserved -> Got r       the combiner delivers (plain write: after
                               Reserved only the combiner touches it) *)
  type 'v answer = Pending | Reserved | Got of (int * 'v) option | Withdrawn

  type 'v waiter = { bound : bound; answer : 'v answer R.shared }
  type 'v slot = Free | Waiting of 'v waiter

  (* Per-processor state: the slot-choice stream, and the adaptive state
     after the elimination-backoff stacks of Hendler, Shavit & Yerushalmi:
     each processor adapts its own view of the active width and its own
     patience.  Keeping these thread-local (host-side, never charged)
     matters: a single shared width cell is read by every operation, so
     each adaptation write would invalidate every processor's copy and the
     refill misses queue — measured as the hottest line in early versions
     of this module. *)
  type local = { rng : Repro_util.Rng.t; mutable lwidth : int; mutable lwindow : int }

  type 'v t = {
    q : 'v SQ.t;
    slots : 'v slot R.shared array;
    max_window : int;
    poll_cycles : int;
    bound_every : int;
    adaptive : bool;
    locals : local Repro_runtime.Per_proc.t;
    (* Host-side counters and width/window mirrors: free on the simulator,
       approximate under native races; mirrors track the last adapted
       values so [stats] can run outside a runtime context. *)
    mutable width_now : int;
    mutable window_now : int;
    mutable stat_eliminated : int;
    mutable stat_fresh_refusals : int;
    mutable stat_served : int;
    mutable stat_handoff_empties : int;
    mutable stat_batches : int;
    mutable stat_timeouts : int;
    mutable stat_collisions : int;
  }

  let create ?seed ?(slots = 64) ?(width = 8) ?(window = 32) ?(max_window = 128)
      ?(poll_cycles = 16) ?(bound_every = 8) ?(adaptive = true) ~queue () =
    if slots < 1 then invalid_arg "Elimination.create: slots < 1";
    if width < 1 || width > slots then
      invalid_arg "Elimination.create: width outside [1, slots]";
    if window < 1 || window > max_window then
      invalid_arg "Elimination.create: window outside [1, max_window]";
    if poll_cycles < 1 then invalid_arg "Elimination.create: poll_cycles < 1";
    if bound_every < 1 then invalid_arg "Elimination.create: bound_every < 1";
    (* Simulated line ids follow registration order: the slot cells come
       first, then the queue's. *)
    let slots = Array.init slots (fun _ -> R.shared Free) in
    let q = queue () in
    {
      q;
      slots;
      max_window;
      poll_cycles;
      bound_every;
      adaptive;
      locals =
        Repro_runtime.Per_proc.create (fun id ->
            {
              rng =
                Repro_util.Rng.of_seed
                  (Int64.add
                     (Int64.mul (Option.value seed ~default:0x5EEDL) 0x2545F4914F6CDD1DL)
                     (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (id + 1))));
              lwidth = width;
              lwindow = window;
            });
      width_now = width;
      window_now = window;
      stat_eliminated = 0;
      stat_fresh_refusals = 0;
      stat_served = 0;
      stat_handoff_empties = 0;
      stat_batches = 0;
      stat_timeouts = 0;
      stat_collisions = 0;
    }

  let local_for t = Repro_runtime.Per_proc.get t.locals (R.self ())

  (* Width only grows (on publish collisions): shrinking it on timeouts
     turns out to collapse the array under load — every deleter then
     collides, goes direct and hunts alone, which is exactly the regime
     the front end exists to avoid.  The window is negative feedback
     around the observed combiner service time: a timeout means combiners
     are slower than this processor's patience, so it doubles; an instant
     rendezvous (answered before the first poll) argues for less patience
     and steps it down. *)
  let min_window = 4

  let grow_width t l =
    if t.adaptive && l.lwidth < Array.length t.slots then begin
      l.lwidth <- Int.min (Array.length t.slots) (2 * l.lwidth);
      t.width_now <- l.lwidth
    end

  let grow_window t l =
    if t.adaptive && l.lwindow < t.max_window then begin
      l.lwindow <- Int.min t.max_window (2 * l.lwindow);
      t.window_now <- l.lwindow
    end

  (* [n] polls elapsed before the answer arrived. *)
  let shrink_window t l n =
    if t.adaptive && n = 0 && l.lwindow > min_window then begin
      l.lwindow <- l.lwindow - 1;
      t.window_now <- l.lwindow
    end

  let fresh_bound t =
    match SQ.first_bound t.q with
    | `Empty -> Unbounded
    | `Min_at_most k -> At_most k

  (* Reading the first bottom-level node touches the hottest line in the
     whole structure, and on workloads with wide key ranges the resulting
     insert-eliminations are rare — so most publishes carry [Closed]
     (combiner-only) and only every [bound_every]-th pays for a real
     bound. *)
  let observe_bound t rng =
    if t.bound_every > 1 && Repro_util.Rng.int rng t.bound_every <> 0 then Closed
    else fresh_bound t

  (* Strictly below the bound, never equal: the bound is the key of a node
     settled in the structure, and the queue dedups (inserting a present
     key updates that node in place) — so an insert of exactly the bound
     key must reach the structure.  Rendezvousing it instead would hand
     the key to the deleter while the settled node still carries it, and
     the two resulting delete_mins of one instance fit no sequential
     dedup history.  Strictness is also what keeps the rendezvous's
     [`Inserted] honest: a key strictly below every settled element
     cannot be present. *)
  let key_within key = function
    | Unbounded -> true
    | At_most b -> key < b
    | Closed -> false

  (* --- the direct (combining) path ------------------------------------ *)

  (* Most waiters one combiner reserves. *)
  let serve_cap = 8

  (* A waiter whose answer we have CAS'd to [Reserved] is ours: nobody
     else will touch the cell again, and we are obliged to deliver. *)
  let reserve_waiters t =
    (* Scan this processor's own width view (publish ranges all start at
       slot 0, so that is where waiters concentrate).  Random start so
       concurrent combiners don't all fight over slot 0; the cap keeps a
       wide view from making combining itself expensive. *)
    let l = local_for t in
    let width = l.lwidth in
    let start = Repro_util.Rng.int l.rng width in
    let scan = Int.min width (3 * serve_cap) in
    let reserved = ref [] in
    let count = ref 0 in
    let i = ref 0 in
    while !i < scan && !count < serve_cap do
      (match R.read t.slots.((start + !i) mod width) with
      | Waiting w ->
        if R.cas w.answer Pending Reserved then begin
          reserved := w :: !reserved;
          incr count
        end
      | Free -> ());
      incr i
    done;
    List.rev !reserved

  (* Reserve first, hunt second: the batch hunt then starts from the head
     strictly after every served waiter's invocation, so each claimed
     minimum — and the tail-sentinel observation justifying an EMPTY
     hand-off — falls inside all their windows (DESIGN.md §S15). *)
  let direct_delete t =
    let reserved = reserve_waiters t in
    let batch = SQ.hunt_batch t.q ~want:(1 + List.length reserved) in
    let own, extras =
      match SQ.batch_claims batch with
      | [] -> (None, [])
      | kv :: rest -> (Some kv, rest)
    in
    let rec deliver ws kvs =
      match (ws, kvs) with
      | [], _ -> ()
      | w :: ws', kv :: kvs' ->
        R.write w.answer (Got (Some kv));
        t.stat_served <- t.stat_served + 1;
        deliver ws' kvs'
      | w :: ws', [] ->
        R.write w.answer (Got None);
        t.stat_handoff_empties <- t.stat_handoff_empties + 1;
        deliver ws' []
    in
    deliver reserved extras;
    if reserved <> [] then t.stat_batches <- t.stat_batches + 1;
    SQ.finish_batch t.q batch;
    own

  (* --- the waiting path ------------------------------------------------ *)

  (* After [Reserved] the combiner is committed; delivery is a bounded
     number of its steps away. *)
  let rec await_delivery t w =
    match R.read w.answer with
    | Got r -> r
    | Reserved ->
      R.work t.poll_cycles;
      await_delivery t w
    | Pending | Withdrawn -> assert false

  let delete_min t =
    let l = local_for t in
    let w = { bound = observe_bound t l.rng; answer = R.shared Pending } in
    let cell = t.slots.(Repro_util.Rng.int l.rng l.lwidth) in
    if not (R.cas cell Free (Waiting w)) then begin
      (* Slot taken: the array is crowded — widen it and go combine. *)
      t.stat_collisions <- t.stat_collisions + 1;
      grow_width t l;
      direct_delete t
    end
    else begin
      let budget = l.lwindow in
      let rec poll n =
        match R.read w.answer with
        | Got r ->
          R.write cell Free;
          shrink_window t l n;
          r
        | Reserved ->
          let r = await_delivery t w in
          R.write cell Free;
          shrink_window t l n;
          r
        | Withdrawn -> assert false
        | Pending ->
          if n >= budget then withdraw ()
          else begin
            R.work t.poll_cycles;
            poll (n + 1)
          end
      and withdraw () =
        if R.cas w.answer Pending Withdrawn then begin
          R.write cell Free;
          t.stat_timeouts <- t.stat_timeouts + 1;
          grow_window t l;
          direct_delete t
        end
        else begin
          (* Matched or reserved at the last instant. *)
          match R.read w.answer with
          | Got r ->
            R.write cell Free;
            r
          | Reserved ->
            let r = await_delivery t w in
            R.write cell Free;
            r
          | Pending | Withdrawn -> assert false
        end
      in
      poll 0
    end

  (* A published bound can go stale while its deleter waits: an element
     smaller than the bound may settle after publication, and an insert
     invoked after that settle must not rendezvous above it — the
     deleter would answer with a non-minimum, and the real-time order
     (small insert completed before this insert began, which began before
     the delete responded) admits no serialization.  So the inserter
     justifies the rendezvous with an observation of its own: the key
     must lie strictly below the published bound {e and} below a bound
     read here, inside the insert.  The matched pair then linearizes at
     this fresh read — an instant inside both operations' windows (the
     slot was seen occupied before the read, and the CAS finding
     [Pending] proves the deleter was still waiting after it) at which
     the key is smaller than every settled element.  The extra head-line
     read is paid only when the published bound already admits the key,
     i.e. only on actual rendezvous attempts. *)
  let insert t key value =
    let l = local_for t in
    match R.read t.slots.(Repro_util.Rng.int l.rng l.lwidth) with
    | Waiting w when key_within key w.bound ->
      if not (key_within key (fresh_bound t)) then begin
        t.stat_fresh_refusals <- t.stat_fresh_refusals + 1;
        SQ.insert t.q key value
      end
      else if R.cas w.answer Pending (Got (Some (key, value))) then begin
        t.stat_eliminated <- t.stat_eliminated + 1;
        `Inserted
      end
      else SQ.insert t.q key value
    | Waiting _ | Free -> SQ.insert t.q key value

  (* --- quiescent views -------------------------------------------------- *)

  let size t = SQ.size t.q
  let to_list t = SQ.to_list t.q

  let check_invariants t =
    match SQ.check_invariants t.q with
    | Error _ as e -> e
    | Ok () ->
      if
        Array.for_all
          (fun cell -> match R.read cell with Free -> true | Waiting _ -> false)
          t.slots
      then Ok ()
      else Error "elimination slot still occupied at quiescence"

  let stats t =
    [
      ("eliminated", float_of_int t.stat_eliminated);
      ("fresh_refusals", float_of_int t.stat_fresh_refusals);
      ("served", float_of_int t.stat_served);
      ("handoff_empties", float_of_int t.stat_handoff_empties);
      ("batches", float_of_int t.stat_batches);
      ("timeouts", float_of_int t.stat_timeouts);
      ("collisions", float_of_int t.stat_collisions);
      ("width", float_of_int t.width_now);
      ("window", float_of_int t.window_now);
    ]
    @ SQ.stats t.q
end

module Make (R : Repro_runtime.Runtime_intf.S) = Over (R) (Skipqueue.Make (R))
