(** Real-parallelism implementation of {!Runtime_intf.S} on OCaml 5 domains.

    Shared cells are [Atomic.t], locks are [Mutex.t], and the shared clock
    is a global atomic counter bumped on every read — which yields a total
    order on timestamps consistent with real time, the only property the
    paper's proof needs.

    This backend exists for correctness: stress tests run the same functor
    bodies under genuine preemption and weak-ish memory, complementing the
    simulator's deterministic schedules. *)

include Runtime_intf.S

val max_processors : int
(** 127: OCaml runs at most 128 domains at once, the calling one
    included. *)

val run_processors : int -> (int -> unit) -> unit
(** [run_processors n body] spawns [n] domains running [body i] for
    [i = 0..n-1] and joins them all.  Exceptions raised by any body are
    re-raised after all domains have been joined.  Raises
    [Invalid_argument] before spawning anything unless
    [1 <= n <= max_processors]. *)

val reset_clock : unit -> unit
(** Restarts the shared clock at 0 (between independent tests). *)
