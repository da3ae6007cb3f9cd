(** Minimal domain pool for embarrassingly-parallel sweeps.

    Simulation points are pure functions of their inputs, so sweeps can
    fan out over domains with no change in output: results come back in
    input order, and a failure re-raises the lowest-index exception — the
    same one a sequential run would have hit first.  DESIGN.md §S16 gives
    the determinism argument. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI drivers' default for
    their [--jobs] flag. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is observably [List.map f xs] (same results, same
    order) evaluated by up to [jobs] domains, and at most
    [Domain.recommended_domain_count ()], pulling items off a shared
    queue.  [jobs <= 1] (the default) runs inline with no domain spawned.
    [f] must not share unsynchronized mutable state across calls; side
    effects (e.g. progress printing) may interleave across items. *)
