(** The planted mutants: deliberately broken queues that prove the
    schedule fuzzer and the checkers catch real races.  None is part of
    {!Repro_workload.Queue_adapter.all}; all are simulator-only, and a
    sweep over each must produce violations ([bin/check --broken]).

    All seven are correct structures over a {!Faulty} runtime:
    - [swap]: the strict SkipQueue with every SWAP torn, so two
      Delete-mins claim one node;
    - [elim]: the elimination front end with every CAS torn (its
      rendezvous transitions race: lost or doubled hand-offs);
    - [lf-claim]: the lock-free SkipQueue with every CAS torn (one claim
      won twice, one of two splices lost);
    - [klsm]: the k-LSM at k = 1 with a blind CAS on its block list
      ([klsm-blocks]), so a concurrent publish is overwritten;
    - [co]: the coalescing SkipQueue at capacity 1 with a blind CAS on
      every node's packed lock word ([co.word]): acquires, admissions and
      claims, not the fetch-and-add releases;
    - [co-release]: the same queue with every release of the packed lock
      word torn (its fetch-and-add decays into a read and a write), so a
      claim or an acquire committed in between is overwritten;
    - [wakeup]: the strict SkipQueue behind the bounded façade with every
      condition wait torn, so a signal sent while a consumer is between
      releasing the pop lock and parking is lost. *)

exception Wedged of string
(** Raised from inside the simulation by a {!Faulty} watchdog once a
    corrupted structure has sent an operation into an unbounded hunt; the
    harness reports it as an execution violation for the seed. *)

type harness =
  | Plain  (** the mixed-op harness, under the sweep's profile *)
  | Blocking  (** the blocking producer/consumer harness *)

type t = {
  name : string;  (** the [--broken] argument *)
  harness : harness;
  impl : capacity:int -> Repro_workload.Queue_adapter.impl;
      (** [capacity] is the blocking harness's façade capacity; the plain
          mutants ignore it *)
}

val all : t list
(** swap, elim, wakeup, lf-claim, klsm, co, co-release. *)
