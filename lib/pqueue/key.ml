(** Ordered key types for priority queues.

    Smaller keys are higher priority throughout the repository, matching
    the paper's Delete-min. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Int : ORDERED with type t = int = struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end

module Float : ORDERED with type t = float = struct
  type t = float

  let compare = Float.compare
  let pp ppf v = Format.fprintf ppf "%g" v
end
