(** Streaming and batch statistics used by the benchmark harness. *)

type t
(** A streaming accumulator: count, mean, variance (Welford), min, max. *)

val create : unit -> t
val add : t -> float -> unit
val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having observed both
    streams. *)

val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the observations; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two observations. *)

val min_value : t -> float
(** Smallest observation; [infinity] when empty. *)

val max_value : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val percentile : float array -> float -> float
(** [percentile data q] with [q] in [0, 1]: linear-interpolation percentile
    of [data] (sorted internally; the array is not modified).  Raises
    [Invalid_argument] on an empty array or [q] outside [0, 1]. *)

val median : float array -> float
