(* The planted mutants: deliberately broken queues that prove the fuzzer
   and the checkers catch real races.  All seven are correct structures
   over a [Faulty] runtime. *)

exception Wedged of string

module QA = Repro_workload.Queue_adapter

type harness = Plain | Blocking
type t = { name : string; harness : harness; impl : capacity:int -> QA.impl }

let wedged what cause =
  Wedged
    (Printf.sprintf "%s corruption: structure wedged after %d reads (%s)" what Faulty.budget
       cause)

(* The tears share one diagnosis: a double-claimed node sends some walk
   into an unbounded hunt. *)
let unbounded_hunt = wedged "torn-SWAP" "unbounded hunt"

module Torn_swap = Faulty.Make (struct
  let target = Some { Faulty.fault = Torn_swap; cells = None }
  let wedged = unbounded_hunt
end)

module Torn_cas = Faulty.Make (struct
  let target = Some { Faulty.fault = Torn_cas; cells = None }
  let wedged = unbounded_hunt
end)

(* The mutants report no structure counters of their own. *)
let impl ?(dedups = false) ?(spec = QA.Linearizable) name ~insert ~try_delete_min create =
  {
    QA.name;
    dedups;
    spec;
    create =
      (fun () ->
        Faulty.reset ();
        let q = create () in
        QA.Sim.instance ~insert:(insert q) ~try_delete_min:(fun () -> try_delete_min q)
          ~stats:(fun () -> []));
  }

(* Torn SWAP under the strict SkipQueue: two Delete-mins racing down the
   bottom level both read a node's deleted flag as [false] and both claim
   it — one element returned twice, or a second physical removal that
   self-loops a level pointer and wedges the next hunt. *)
let swap =
  let module Q = Repro_skipqueue.Skipqueue.Make (Torn_swap) in
  impl ~dedups:true "BrokenSkipQueue"
    ~insert:(fun q k v -> ignore (Q.insert q k v))
    ~try_delete_min:Q.delete_min
    (fun () -> Q.create ~mode:Q.Strict ())

(* Torn CAS under the elimination front end (the SWAP stays atomic, so
   every violation is the front end's): an inserter's match and the
   waiter's withdrawal both read [Pending] and both win, or two inserters
   match one waiter — an element is lost.  One always-active slot and a
   long fast-polling window keep the rendezvous rate high. *)
let elim =
  let module SQ = Repro_skipqueue.Skipqueue.Make (Torn_cas) in
  let module E = Repro_skipqueue.Elimination.Make (Torn_cas) in
  impl ~dedups:true "BrokenElimSkipQueue"
    ~insert:(fun q k v -> ignore (E.insert q k v))
    ~try_delete_min:E.delete_min
    (fun () ->
      E.create ~slots:1 ~width:1 ~window:64 ~max_window:64 ~poll_cycles:4 ~bound_every:1
        ~adaptive:false ~queue:(fun () -> SQ.create ~mode:SQ.Strict ()) ())

(* Torn CAS under the lock-free SkipQueue: two Delete-mins both read the
   victim's bottom link unmarked and both install the mark (one element
   delivered twice); two torn splices after one predecessor lose a node. *)
let lf_claim =
  let module Q = Repro_skipqueue.Skipqueue_lf.Make (Torn_cas) in
  impl "BrokenLfClaimSkipQueue" ~insert:Q.insert ~try_delete_min:Q.delete_min (fun () ->
      Q.create ~restructure_threshold:1 ())

(* Blind CAS on the k-LSM's block list: two concurrent publishes (or a
   publish and a merge) both read one list and the second write drops the
   first's block, whose elements become unreachable from every view.  At
   k = 1 the buffers hold nothing, so every insert publishes.  Conservation
   catches the loss; so does the rank check at the declared k = 1, as
   later deletes skip the lost small elements. *)
let klsm =
  let module Q =
    Repro_klsm.Klsm.Make
      (Faulty.Make (struct
        let target = Some { Faulty.fault = Blind_cas; cells = Some "klsm-blocks" }
        let wedged = wedged "blind block-list CAS" "unbounded hunt"
      end))
  in
  impl ~spec:(QA.spec_of (QA.plain (QA.Klsm 1))) "Broken klsm:1 (blind CAS)"
    ~insert:Q.insert ~try_delete_min:Q.delete_min (fun () -> Q.create ~k:1 ~procs:6 ())

(* The coalescing queue at capacity 1 (every delete goes down the unlink
   path) over a runtime that plants [fault] on its packed lock words. *)
let co_over fault name ~cause =
  let module Q =
    Repro_skipqueue.Skipqueue_co.Make
      (Faulty.Make (struct
        let target = Some { Faulty.fault; cells = Some "co.word" }
        let wedged = wedged cause "leaked level-lock bit"
      end))
  in
  impl name
    ~insert:(fun q k v -> ignore (Q.insert q k v))
    ~try_delete_min:Q.delete_min
    (fun () -> Q.create ~mode:Q.Strict ~capacity:1 ())

(* Blind CAS on the packed lock word, which reaches the acquires, the
   joins' admissions and the claims (a release is a fetch-and-add): a
   level-lock acquire succeeds on a held lock, a claim overwrites a
   concurrent claim's ticket or a concurrent release.  Two holders splice
   one pointer (conservation, or [Co_lockword]'s double-release check), a
   leaked bit wedges the next acquirer (watchdog), one ticket is delivered
   twice. *)
let co = co_over Blind_cas "BrokenCoSkipQueue" ~cause:"blind lock-word CAS"

(* Torn fetch-and-add on the packed lock word, which reaches exactly the
   releases (acquires and claims stay CASes): a release reads the word,
   lets a claim or another bit's acquire commit, then writes its stale
   word less its bit.  The lost claim delivers its element twice; the
   lost acquire leaves a second holder to take the bit. *)
let co_release = co_over Torn_swap "BrokenCoReleaseSkipQueue" ~cause:"torn lock-word release"

(* Torn condition waits under the bounded façade over the strict
   SkipQueue: a waiter releases the pop lock 200 cycles before it parks,
   and a credit's signal sent in that window finds no parked waiter.
   Once every consumer is parked with the credits landed and the
   producers are done, the simulator's deadlock detector fires. *)
let wakeup ~capacity =
  let module R = Faulty.Make (struct
    let target = Some { Faulty.fault = Torn_wait; cells = None }
    let wedged = wedged "torn condition wait" "unbounded hunt"
  end) in
  let module Q = Repro_skipqueue.Skipqueue.Make (R) in
  let module B = Repro_bounded.Bounded_queue.Make (R) in
  {
    QA.name = "BrokenBoundedSkipQueue";
    dedups = true;
    spec = QA.Linearizable;
    create =
      (fun () ->
        Faulty.reset ();
        let q = Q.create ~mode:Q.Strict () in
        let b =
          B.create ~capacity ~dedups:true ~name:"broken-bounded"
            ~insert:(fun k v -> ignore (Q.insert q k v))
            ~try_delete_min:(fun () -> Q.delete_min q)
            ()
        in
        QA.facade ~insert_wait:(B.insert_wait b)
          ~try_delete_min:(fun () -> B.try_delete_min b)
          ~delete_min_wait:(fun () -> B.delete_min_wait b)
          ~stats:(fun () -> B.stats b));
  }

let all =
  let plain name impl = { name; harness = Plain; impl = (fun ~capacity:_ -> impl) } in
  [
    plain "swap" swap;
    plain "elim" elim;
    { name = "wakeup"; harness = Blocking; impl = wakeup };
    plain "lf-claim" lf_claim;
    plain "klsm" klsm;
    plain "co" co;
    plain "co-release" co_release;
  ]
