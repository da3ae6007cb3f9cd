(** Sequential sorted singly-linked list: linear-time insert,
    constant-time delete-min.  The tests' one independent sequential
    model: the FunnelList, heap and MultiQueue tests replay their
    operations against it. *)

type 'v t

val create : unit -> 'v t
val length : 'v t -> int
val is_empty : 'v t -> bool

val insert : 'v t -> int -> 'v -> unit
(** Keeps duplicates; equal keys sit adjacently in insertion order. *)

val delete_min : 'v t -> (int * 'v) option
val peek_min : 'v t -> (int * 'v) option

val to_list : 'v t -> (int * 'v) list
val check_invariants : 'v t -> (unit, string) result
