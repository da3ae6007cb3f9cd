(** Logarithmically-bucketed latency histograms.

    Latencies under contention span several orders of magnitude; fixed-width
    buckets would either lose the tail or the head.  Buckets grow
    geometrically from [base] by [factor]. *)

type t

val create : ?base:float -> ?factor:float -> ?buckets:int -> unit -> t
(** Defaults: [base = 1.0], [factor = 1.5], [buckets = 64].  Bucket [i]
    covers [[base * factor^i, base * factor^(i+1))]; values below [base] go
    to bucket 0, values beyond the last boundary to the last bucket. *)

val add : t -> float -> unit
val count : t -> int
val bucket_counts : t -> int array
val quantile : t -> float -> float
(** [quantile t q] approximates the [q]-quantile as the lower bound of the
    bucket containing it.  Raises [Invalid_argument] when empty or [q]
    outside [0, 1]. *)

val pp : Format.formatter -> t -> unit
(** Renders a compact ASCII sparkline of non-empty buckets. *)
