(** A simulator runtime with one planted atomicity fault, from which the
    checkers' self-test mutants ({!Broken}) are built.

    [Make (C)] is {!Repro_sim.Sim_runtime} with two changes: the fault
    [C.target] names, and a read-budget watchdog that turns a wedged
    structure (an operation hunting forever through corrupted links) into
    an exception the harness reports, instead of a hung sweep.  With
    [C.target = None] it is a plain copy of the simulator runtime: every
    access charges exactly what {!Repro_sim.Sim_runtime} charges.
    Simulator-only, like the runtime it wraps. *)

type fault =
  | Torn_swap
      (** [swap] and [fetch_and_add] decay into a read, a scheduler
          point, and a write: two racing swaps can both return the old
          value, and two racing adds can lose one increment *)
  | Torn_cas
      (** [cas] decays into a read, a scheduler point, and a compare and
          write: two racing CASes can both succeed *)
  | Blind_cas
      (** [cas] becomes a plain write that always succeeds, whatever the
          cell holds *)
  | Torn_wait
      (** [cond_wait] decays into a release of the guarding lock, 200
          cycles of work, a re-acquire, and only then the atomic
          release-and-park: a signal sent in that window finds no parked
          waiter and is lost.  The lost-wakeup mutant's kill rate grows
          with the window (DESIGN.md §6). *)

type target = {
  fault : fault;
  cells : string option;
      (** [None]: every cell and condition; [Some n]: only cells allocated
          with [shared ~name:n], or conditions created with
          [cond_create ~name:n] *)
}

val budget : int
(** Reads one instance may perform before the watchdog fires: 1_000_000,
    about forty times what a fuzz run of a correct structure performs. *)

val reset : unit -> unit
(** Restarts the watchdog's read count; a mutant calls it when it creates
    an instance.  The count is per domain, so seeds swept on different
    domains never share it. *)

module type CONFIG = sig
  val target : target option
  (** The planted fault; [None] plants none. *)

  val wedged : exn
  (** Raised by the read that exceeds {!budget}: the mutant's own account
      of how its structure wedged. *)
end

module Make (_ : CONFIG) : Repro_runtime.Runtime_intf.S
