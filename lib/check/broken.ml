(* A SkipQueue built over a runtime whose SWAP is deliberately torn into a
   read followed by a write — two separate scheduler points instead of one
   atomic step.  Two Delete-mins racing down the bottom level can then both
   observe a node's deleted-flag as [false] and both claim it.  Depending
   on the schedule the double-claim either returns one element twice (an
   oracle "deleted twice" violation) or corrupts the list structure —
   the second physical removal self-loops a level pointer or hunts for a
   key that no longer exists, and the simulation never terminates.  The
   runtime carries a generous access-budget watchdog so the wedged case
   surfaces as a [Wedged] exception (which the harness reports as an
   execution violation) instead of hanging the sweep.  Exists solely to
   prove the fuzzer + checkers actually detect races (ISSUE acceptance: a
   broken queue must be caught with a replayable seed). *)

exception Wedged of string

(* Host-side access counter, reset per instance; normal fuzz runs perform
   a few tens of thousands of reads, the budget is ~40x that. *)
let budget = 1_000_000
let reads = ref 0

module Torn_swap_runtime = struct
  include Repro_sim.Sim_runtime

  let read cell =
    incr reads;
    if !reads > budget then
      raise
        (Wedged
           (Printf.sprintf
              "torn-SWAP corruption: structure wedged after %d reads (unbounded hunt)" budget));
    Repro_sim.Sim_runtime.read cell

  let swap cell v =
    let old = read cell in
    Repro_sim.Sim_runtime.write cell v;
    old
end

module SQ = Repro_skipqueue.Skipqueue.Make (Torn_swap_runtime) (Repro_pqueue.Key.Int)

module QA = Repro_workload.Queue_adapter

(* The mutants report no structure counters of their own. *)
let instance ~insert ~try_delete_min = QA.Sim.instance ~insert ~try_delete_min ~stats:(fun () -> [])

let name = "BrokenSkipQueue"

let skipqueue () =
  {
    QA.name;
    dedups = true;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        reads := 0;
        let q = SQ.create ~mode:SQ.Strict () in
        instance
          ~insert:(fun k v -> ignore (SQ.insert q k v))
          ~try_delete_min:(fun () -> SQ.delete_min q));
  }

(* The elimination mutant: a runtime whose CAS is torn into a read, a
   scheduler point, and a write.  The front end's rendezvous cell relies
   on CAS for every transition out of [Pending]; torn, the classic
   lost-rendezvous schedules appear — an inserter's match and the
   waiter's withdrawal both read [Pending] and both "win", so the
   inserter believes its element was handed over while the deleter has
   already left for the structure (the binding evaporates); or two
   inserters match one waiter and only one element survives.  The
   conservation checker reports the lost element. *)
module Torn_cas_runtime = struct
  include Torn_swap_runtime

  (* Restore the real (atomic) SWAP: this mutant tears only CAS, so every
     violation it produces is elimination-specific. *)
  let swap = Repro_sim.Sim_runtime.swap

  let cas cell expected v =
    let current = read cell in
    if current == expected then begin
      Repro_sim.Sim_runtime.write cell v;
      true
    end
    else false
end

module Elim =
  Repro_skipqueue.Elimination.Make (Torn_cas_runtime) (Repro_pqueue.Key.Int)

let elim_name = "BrokenElimSkipQueue"

(* A single always-active slot and a long, fast-polling window keep the
   rendezvous rate high under the harness's small default profile, so the
   torn-CAS races fire within a few seeds. *)
let elim_skipqueue () =
  {
    QA.name = elim_name;
    dedups = true;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        reads := 0;
        let q =
          Elim.create ~mode:Elim.SQ.Strict ~slots:1 ~width:1 ~window:64
            ~max_window:64 ~poll_cycles:4 ~bound_every:1 ~adaptive:false ()
        in
        instance
          ~insert:(fun k v -> ignore (Elim.insert q k v))
          ~try_delete_min:(fun () -> Elim.delete_min q));
  }

(* The torn-claim mutant: the lock-free SkipQueue over the same torn-CAS
   runtime.  Every hot-path transition in the lock-free structure funnels
   through CAS — the claim that marks delete-min's victim, the bottom-level
   insert splice, the restructure's prefix unlink.  Torn into a read, a
   scheduler point, and a write, the claim stops being atomic: two racing
   Delete-mins both read the victim's bottom link as unmarked and both
   install the mark, so one element is returned twice (oracle "deleted
   twice"); torn insert splices lose one of two nodes CASed after the same
   predecessor (conservation violation). *)
module LfTorn =
  Repro_skipqueue.Skipqueue_lf.Make (Torn_cas_runtime) (Repro_pqueue.Key.Int)

let lf_claim_name = "BrokenLfClaimSkipQueue"

let lf_claim_skipqueue () =
  {
    QA.name = lf_claim_name;
    dedups = false;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        reads := 0;
        let q = LfTorn.create ~restructure_threshold:1 () in
        instance
          ~insert:(fun k v -> LfTorn.insert q k v)
          ~try_delete_min:(fun () -> LfTorn.delete_min q));
  }

(* The premature-free mutant: the (correct, atomic) lock-free SkipQueue
   with [broken_premature_free] planted — physical deletion frees nodes at
   unlink time, clobbering their cells, instead of waiting for epoch
   quiescence.  A delete-min that has claimed its victim but not yet read
   the binding races the restructurer's free: the read then returns the
   clobbered sentinel (an execution violation via the structure's own
   loud failure) — or a recycled node is reached through a stale reference
   and the walk misnavigates, losing elements (conservation violation).
   Threshold 1 keeps the unlink pressure maximal so the window is hit
   within a few seeds.  The runtime is atomic but keeps the access-budget
   watchdog: a stale traverser that walks into a recycled node can loop
   through the node's new chain position forever, and the watchdog turns
   that hang into a reported violation. *)
module Watchdog_runtime = struct
  include Repro_sim.Sim_runtime

  let read cell =
    incr reads;
    if !reads > budget then
      raise
        (Wedged
           (Printf.sprintf
              "premature-free corruption: structure wedged after %d reads (stale-edge cycle)"
              budget));
    Repro_sim.Sim_runtime.read cell
end

module LfGood =
  Repro_skipqueue.Skipqueue_lf.Make (Watchdog_runtime) (Repro_pqueue.Key.Int)

let lf_free_name = "BrokenLfFreeSkipQueue"

let lf_free_skipqueue () =
  {
    QA.name = lf_free_name;
    dedups = false;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        reads := 0;
        let q =
          LfGood.create ~restructure_threshold:1 ~broken_premature_free:true ()
        in
        instance
          ~insert:(fun k v -> LfGood.insert q k v)
          ~try_delete_min:(fun () -> LfGood.delete_min q));
  }

(* The torn-lockword mutant: the coalescing SkipQueue with
   [broken_torn_dec] planted — delete-min's count-decrementing release of
   the packed word decays from a CAS retry loop into a read, a scheduler
   point, and a plain write computed from the stale word.  Every lock for
   a node lives in that one word, so a level-lock transition falling into
   the window is clobbered: a bit released there is re-asserted (leaked —
   the next acquirer spins forever on a lock nobody holds, and the
   access-budget watchdog reports the wedge), or a bit acquired there is
   wiped (lost — the "holder" splices concurrently with a second acquirer
   and an element vanishes, which conservation reports; the true holder's
   own release then also trips {!Co_lockword}'s double-release check).
   Capacity 1 maximizes the pressure: every insert links, every delete
   decrements to zero and physically unlinks, so the hot head region is
   dense with level-lock traffic racing the torn releases. *)
module Co_watchdog_runtime = struct
  include Repro_sim.Sim_runtime

  let read cell =
    incr reads;
    if !reads > budget then
      raise
        (Wedged
           (Printf.sprintf
              "torn lock-word corruption: structure wedged after %d reads \
               (leaked level-lock bit)"
              budget));
    Repro_sim.Sim_runtime.read cell
end

module CoTorn =
  Repro_skipqueue.Skipqueue_co.Make (Co_watchdog_runtime) (Repro_pqueue.Key.Int)

let co_name = "BrokenCoSkipQueue"

let co_lockword () =
  {
    QA.name = co_name;
    dedups = false;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        reads := 0;
        let q =
          CoTorn.create ~mode:CoTorn.Strict ~capacity:1 ~broken_torn_dec:true
            ()
        in
        instance
          ~insert:(fun k v -> ignore (CoTorn.insert q k v))
          ~try_delete_min:(fun () -> CoTorn.delete_min q));
  }

(* The torn-spill mutant: the k-LSM with [broken_spill] planted — the
   buffer-to-SLSM block publish decays from a CAS retry loop into a plain
   read followed (one scheduler point later) by a plain write of the new
   block list.  Two processors publishing concurrently both read the same
   list and the second write overwrites the first block entirely: its
   elements become unreachable from every view (no merged block aliases
   their claim cells), so they are never delivered and never drained —
   the conservation checker reports "went in but never came out".  The
   configuration maximizes publish concurrency: k = 1 gives buffer
   capacity 0, so every single insert is its own torn singleton-block
   publish.  Its [rank_bound] is [Some 1], so the rank-envelope checker
   also holds the mutant to the k = 1 ceiling — lost small elements stay
   forever "live" in the envelope's replay and push later deletes over
   it. *)
module KlsmTorn = Repro_klsm.Klsm.Make (Repro_sim.Sim_runtime)

let klsm_spill_name = "Broken klsm:1 (torn spill)"

let klsm_spill () =
  {
    QA.name = klsm_spill_name;
    dedups = false;
    spec = QA.Rank_bounded;
    rank_bound = Some 1;
    create =
      (fun () ->
        reads := 0;
        let q = KlsmTorn.create ~k:1 ~procs:6 ~broken_spill:true () in
        instance
          ~insert:(fun k v -> KlsmTorn.insert q k v)
          ~try_delete_min:(fun () -> KlsmTorn.delete_min q));
  }

(* The lost-wakeup mutant: the bounded façade with [broken_wakeup] set —
   cross-side signals are sent without holding the waiter's lock and the
   same-side chain-signals are dropped.  A consumer that has observed
   [size = 0] but not yet parked misses the producer's signal forever;
   with every consumer parked and all producers finished, the simulator's
   deadlock detector fires, which the harness reports as an execution
   violation for the seed. *)
module GoodSQ =
  Repro_skipqueue.Skipqueue.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)

module Bounded = Repro_bounded.Bounded_queue.Make (Repro_sim.Sim_runtime)

let wakeup_name = "BrokenBoundedSkipQueue"

let bounded_skipqueue ?(capacity = 4) () =
  {
    QA.name = wakeup_name;
    dedups = true;
    spec = QA.Linearizable;
    rank_bound = None;
    create =
      (fun () ->
        let q = GoodSQ.create ~mode:GoodSQ.Strict () in
        let b =
          Bounded.create ~capacity ~dedups:true ~broken_wakeup:true
            ~name:"broken-bounded"
            ~insert:(fun k v -> ignore (GoodSQ.insert q k v))
            ~try_delete_min:(fun () -> GoodSQ.delete_min q)
            ()
        in
        QA.facade ~insert_wait:(Bounded.insert_wait b)
          ~try_delete_min:(fun () -> Bounded.try_delete_min b)
          ~delete_min_wait:(fun () -> Bounded.delete_min_wait b)
          ~stats:(fun () -> Bounded.stats b));
  }
