(** Uniform first-class view of the competing priority queues (plus
    variants), as used by the benchmark harness.

    Keys and values are [int] — the benchmarks draw integer priorities and
    use values as element identifiers, exactly like the paper's synthetic
    benchmark.

    Every implementation is named by a {!descriptor}: a base structure and
    the modifiers composed over it.  Names follow one grammar, matched
    case- and space-insensitively:

    {v
    name ::= ["bounded:"] ["Relaxed "] base ["-elim"]
    base ::= SkipQueue | SkipQueue-lf | SkipQueue-co
           | Heap | FunnelList | MultiQueue | klsm:<k> | BinQueue(<range>)
           | SkipQueue + delete funnel | SkipQueue + reclamation
    v}

    ["Relaxed "] is the paper's §5.4 flavor (timestamps off) and ["-elim"]
    the elimination–combining front end; both exist only where {!descriptor}
    says so.  ["bounded:"] wraps any base but the two ablations in the
    blocking façade.  {!Sim} and {!Native} build a descriptor on either
    runtime; the registry ({!all}/{!find}) serves callers — the CLI
    drivers, the bench suite — that select implementations by string. *)

type instance = {
  insert : int -> int -> unit;
      (** non-blocking insert — on unbounded backends it always succeeds;
          the bounded façade maps it to [insert_wait] (a bounded queue has
          no silent-drop insert) *)
  insert_wait : int -> int -> unit;
      (** blocking insert: parks under backpressure on the bounded façade;
          identical to [insert] on unbounded backends *)
  try_delete_min : unit -> (int * int) option;
      (** non-blocking delete-min: [None] when (observed) empty *)
  delete_min_wait : unit -> int * int;
      (** blocking delete-min: parks until an element is available.  The
          bounded façade parks on a condition variable; unbounded backends
          fall back to a yield-poll loop (no condition to park on — an
          unbounded structure cannot distinguish "empty now" from "empty
          forever"). *)
  stats : unit -> (string * float) list;
      (** name/value counters for the ablation reports.  Every instance
          built here starts with ["ops"] (calls through the instance),
          ["lock_acquisitions"] and ["lock_try_failures"] (differenced
          {!Repro_runtime.Runtime_intf.S.lock_stats}: process-wide, so
          attribute them only when one instance runs at a time, as in the
          bench/check harnesses).  The bounded façade prepends ["parks"],
          ["wakes"] and ["backpressure_stalls"]; structure-specific
          counters follow the core. *)
}

(** The rank ceilings a relaxed contract allows: at most [max_rank]
    certainly-present elements smaller than what a Delete-min returns, and
    a mean of at most [mean_rank] over a run's element-returning deletes,
    both along the serialization {!Repro_check.Checkers} finds. *)
type ceiling = { max_rank : int; mean_rank : float }

(** The correctness contract an implementation claims — which checker
    family {!Repro_check.Harness} (and any other history validator) holds
    its executions to. *)
type spec =
  | Linearizable
      (** Every Delete-min returns the minimum of the definitely-present
          elements: the timestamped SkipQueue (Definition 1), its
          lock-free and coalescing variants, the FunnelList and the bin
          queue. *)
  | Quiescent of ceiling
      (** Quiescently consistent only: operations separated by a quiescent
          point take effect in order, concurrent ones may reorder freely,
          within the rank ceiling.  The Hunt heap — its delete-min holds
          the detached replacement element outside any slot, invisible to
          concurrent operations, so strict (Definition 1) histories are not
          guaranteed; the schedule fuzzer finds counterexamples. *)
  | Relaxed
      (** The paper's §5.4 contract: Delete-min returns [min (I - D)] or a
          smaller element whose insert overlaps it (every ["Relaxed "]
          flavor). *)
  | Rank_bounded of ceiling
      (** No ordering promise beyond the rank ceiling: the MultiQueue's
          statistical one, and the k-LSM's hard bound [k]. *)

type impl = {
  name : string;
  dedups : bool;
      (** [true] when [insert] of an already-present key updates in place
          (the SkipQueue and its two ablations) rather than keeping both
          copies.  The benchmark's
          rank-error oracle mirrors this so duplicate random priorities
          don't read as phantom reordering. *)
  spec : spec;
  create : unit -> instance;
      (** must be called from inside the target runtime's execution context
          (e.g. within [Machine.run] for the simulator) *)
}

val max_key_range : int
(** 2^20: the widest key range a workload draws.  {!Benchmark} refuses a
    wider one, and it caps a [Bin] range. *)

(** {2 Descriptors} *)

type base =
  | Skipqueue  (** the paper's SkipQueue; relaxed and elim flavors *)
  | Lf  (** lock-free SkipQueue, CAS-marked claims (DESIGN.md S19) *)
  | Co
      (** coalescing SkipQueue (DESIGN.md §S21): bounded same-key multiset
          nodes under one packed lock word, 4 elements per node; relaxed
          or elim flavor, not both *)
  | Heap  (** Hunt et al.'s heap, 65536 elements *)
  | Funnel_list  (** the combining-funnel list *)
  | Multiqueue  (** c-way choice over try-locked sequential heaps *)
  | Klsm of int  (** the k-LSM with rank bound [k >= 1] *)
  | Bin of int
      (** the bounded-priority bin queue of [39]; only valid on workloads
          whose [key_range] does not exceed the range.  Simulator-only,
          like the two ablations. *)
  | Delete_funnel
      (** ablation A1: Delete-mins regulated by a combining funnel *)
  | Reclamation
      (** ablation A4: the §3 reclamation protocol with a collector
          processor *)

type descriptor = {
  base : base;
  relaxed : bool;
  elim : bool;
  bounded : int option;  (** the façade's capacity *)
}

val plain : base -> descriptor
(** The base with no modifier. *)

val name : descriptor -> string
(** The registry name.  The façade's capacity is not part of it. *)

val spec_of : descriptor -> spec
(** The contract {!make} declares for the descriptor; a ["bounded:"] one
    keeps its inner base's.  A [Klsm k] declares the ceiling [k] for both
    the per-delete rank and the mean; the MultiQueue and the heap declare
    128 per delete and a mean of 32. *)

val validate : descriptor -> (unit, string) result
(** [Ok ()] when the descriptor can be built: a positive [k], range and
    capacity, a range of at most 2^20, a modifier the base has, and no
    ["bounded:"] over an ablation.  [Error] names the first fault. *)

val parse : string -> (descriptor, string) result
(** The inverse of {!name}, case- and space-insensitive; ["bounded:"]
    parses to capacity 1024.  [Error] names the bad part: a malformed or
    non-positive [k] or range, a range above 2^20 (the widest key range a
    workload draws), a modifier the base lacks, a nested
    ["bounded:"], or an unknown base (listing the simulator's names). *)

(** {2 Construction} *)

(** What the runtimes differ in beyond {!Repro_runtime.Runtime_intf.S}. *)
module type HOST = sig
  val spawn : ((unit -> unit) -> unit) option
  (** Start an extra processor (the reclamation collector).  [None]
      natively, which also refuses the other simulator-only bases. *)
end

module type S = sig
  val make : procs:int -> descriptor -> impl
  (** Builds [descriptor] with every knob at the structure's default;
      [procs] sizes the MultiQueue's shards and the k-LSM's buffers.
      Raises [Invalid_argument] for a combination {!parse} would refuse,
      or for a simulator-only base on a host without [spawn]. *)

  val skipqueue : ?p:float -> ?max_level:int -> unit -> impl
  (** [plain Skipqueue] with its skiplist parameters (ablation A5). *)

  val relaxed_skipqueue : unit -> impl
  val skipqueue_lf : unit -> impl
  val skipqueue_co : unit -> impl

  val hunt_heap : ?capacity:int -> unit -> impl
  (** [plain Heap] with its slot array sized for [capacity] elements. *)

  val klsm : k:int -> procs:int -> unit -> impl

  val bounded : ?capacity:int -> impl -> impl
  (** [bounded ~capacity impl] wraps any [impl] in the two-lock
      bounded/blocking façade ({!Repro_bounded.Bounded_queue}): at most
      [capacity] (default 1024) elements admitted, [insert_wait] parks
      under backpressure, [delete_min_wait] parks on empty.  The wrapped
      implementation keeps its [spec] and [dedups]; the
      name becomes ["bounded:" ^ impl.name]. *)

  val instance :
    insert:(int -> int -> unit) ->
    try_delete_min:(unit -> (int * int) option) ->
    stats:(unit -> (string * float) list) ->
    instance
  (** The adapter's instance for a structure outside the registry (a
      mutant, a hand-configured one): the core counters and the yield-poll
      [delete_min_wait]. *)
end

module Over (R : Repro_runtime.Runtime_intf.S) (_ : HOST) : S

module Sim : S
(** Over the simulator runtime. *)

module Native : S
(** Over real domains. *)

val facade :
  insert_wait:(int -> int -> unit) ->
  try_delete_min:(unit -> (int * int) option) ->
  delete_min_wait:(unit -> int * int) ->
  stats:(unit -> (string * float) list) ->
  instance
(** The bounded façade's instance over its blocking entry points: [insert]
    is [insert_wait]. *)

(** {2 Name-keyed registry} *)

type backend = Sim | Native

val registry : backend -> descriptor list
(** Every descriptor {!validate} accepts over the canonical bases, in
    listing order: the SkipQueue in its four flavors, SkipQueue-lf,
    SkipQueue-co in its three, Heap, FunnelList, MultiQueue, klsm:256,
    then (simulator only) the two ablations and BinQueue(65536); then
    ["bounded:"] (capacity 1024) over each of those but the ablations.
    28 entries on the simulator, 24 natively. *)

val make : backend -> descriptor -> impl
(** [S.make] on that backend at the registry's 16 processors. *)

val all : backend -> impl list
(** {!registry}, built. *)

val names : backend -> string list

val find : backend -> string -> impl
(** [make] of the {!parse}d name, so any valid spelling resolves, not only
    the listed ones ("klsm:7", "bounded:klsm:64").  An unknown name raises
    [Invalid_argument] listing the backend's names in sorted order; any
    other {!parse} error is raised as it is. *)
