(** Skiplist keys extended with the head and tail sentinels: [Bottom] is
    below every key (the head's), [Top] above every key (the tail's).
    Shared by the three skiplists. *)

module Make (K : Repro_pqueue.Key.ORDERED) : sig
  type t = Bottom | Key of K.t | Top

  val compare : t -> t -> int
  (** Sentinels around the keys, which [K.compare] orders. *)
end
