(** Sequential array-based binary min-heap.

    Single-threaded counterpart of the Hunt et al. concurrent heap and the
    per-shard queue of the MultiQueue.  (The simulator's event queue is
    its own 4-ary heap, [lib/sim/event_queue.ml].)  Grows automatically. *)

type 'v t

val create : unit -> 'v t
val length : 'v t -> int
val is_empty : 'v t -> bool

val insert : 'v t -> int -> 'v -> unit
(** Duplicate keys are allowed (unlike the skiplist, which follows the
    paper's update-in-place semantics); ties are broken arbitrarily. *)

val peek_min : 'v t -> (int * 'v) option
val delete_min : 'v t -> (int * 'v) option

val to_sorted_list : 'v t -> (int * 'v) list
(** Non-destructive; ascending key order. *)

val check_invariants : 'v t -> (unit, string) result
(** Verifies the heap order: every parent's key <= its children's. *)
