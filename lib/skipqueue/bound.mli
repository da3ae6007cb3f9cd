(** Skiplist keys extended with the head and tail sentinels: [Bottom] is
    below every key (the head's), [Top] above every key (the tail's).
    Shared by the three skiplists. *)

type t = Bottom | Key of int | Top

val compare : t -> t -> int
(** Sentinels around the keys, which [Int.compare] orders. *)
