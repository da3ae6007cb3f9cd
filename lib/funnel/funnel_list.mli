(** The FunnelList baseline (paper §5): a sorted linked list whose single
    exclusion lock is fronted by a {!Combining_funnel}.

    Inserts combine with inserts and Delete-mins with Delete-mins; a
    representative applies its whole batch during one traversal under the
    list lock — one sorted merge for insertions, one prefix cut for
    deletions.  Per-operation latency is linear in the list length (the
    weakness Fig. 4 exposes), but the lock is taken once per {e batch},
    which is why the structure wins at low concurrency and small sizes
    (Fig. 3). *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  val create :
    ?layer_widths:int list -> ?collision_window:int -> unit -> 'v t

  val insert : 'v t -> int -> 'v -> unit
  (** Keeps duplicates (a plain list has no reason to update in place). *)

  val delete_min : 'v t -> (int * 'v) option

  val size : 'v t -> int
  (** Quiescent use only. *)

  val to_list : 'v t -> (int * 'v) list
  (** Ascending; quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent: ascending key order, length consistent. *)

  val stats : 'v t -> (string * float) list
  (** {!Combining_funnel.Make.stats} of the list's funnel. *)
end
