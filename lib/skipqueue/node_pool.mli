(** Free lists of skiplist nodes, one per node height (DESIGN.md §S17).

    The lock-free SkipQueue is the one user: it puts a node here only once
    reclamation guarantees no processor can still reach it, and [insert]
    takes one back before allocating.  Re-registering a taken node's cells
    stays with the skiplist, which must [R.refresh] them in the order its
    [make_node] allocated them for a recycled node to draw the line ids a
    fresh one would.  Host-side state behind a host mutex that is never
    held across a runtime operation, so the pool cannot perturb the
    simulator's schedule. *)

type 'n t

val create : max_level:int -> 'n t
(** An empty pool for nodes of heights [1 .. max_level]. *)

val put : 'n t -> level:int -> 'n -> unit
(** [put t ~level n] returns node [n], of height [level], to the pool. *)

val take : 'n t -> level:int -> 'n option
(** [take t ~level] removes and returns a pooled node of height [level],
    if there is one; never a node of another height. *)

type stats = {
  returned : int;  (** nodes put back (by the reclamation finalizer) *)
  recycled : int;  (** pooled nodes taken back out by inserts *)
  pooled : int;  (** nodes currently waiting in the free lists *)
}

val stats : 'n t -> stats
