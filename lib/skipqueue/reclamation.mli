(** Timestamp-based safe memory reclamation (paper §3, last paragraph).

    OCaml's garbage collector makes reclamation a non-issue for safety, but
    the protocol is part of the paper's system, so it is implemented and
    tested in full: each processor registers the time it enters the
    structure; deleted nodes are stamped with their deletion time and put
    on the deleting processor's garbage list; a collector reclaims a node
    only once its deletion time precedes the entry time of every processor
    currently inside the structure — at that point no live pointer to the
    node can exist.

    The locked SkipQueue's [?reclamation] option is the one user: the A4
    ablation ([SkipQueue + reclamation]) measures what the protocol costs.
    No structure reuses a node, so nothing else needs it.  "Reclaiming"
    runs a caller-supplied finalizer; the SkipQueue's finalizer poisons
    the node so the invariant checker catches any premature reclamation
    (a reachable poisoned node).  Actual memory is left to the OCaml GC. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type t

  val create : unit -> t
  (** Slots for processor ids [0 .. 1023]; any other caller of {!enter},
      {!exit} or {!retire} fails loudly. *)

  val enter : t -> unit
  (** Registers the calling processor as inside the structure (records the
      current time in its slot).  Must be balanced with {!exit}. *)

  val exit : t -> unit

  val retire : t -> (unit -> unit) -> unit
  (** [retire t finalizer] stamps the retired node with the current time
      and appends it to the calling processor's garbage list. *)

  val collect : t -> int
  (** One collector pass (the paper dedicates a processor to looping on
      this): computes the oldest entry time among registered processors and
      reclaims every garbage node deleted strictly before it.  Returns the
      number reclaimed. *)

  type stats = { retired : int; reclaimed : int; pending : int }

  val stats : t -> stats
end
