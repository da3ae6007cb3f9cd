(** Execution tracing for the simulator.

    Pass a sink to {!Machine.run} ([~tracer]) to observe every scheduling
    and memory event; {!Summary} is a ready-made sink that aggregates the
    profiles one actually wants when diagnosing a concurrent structure on
    the simulated machine: which locations are hot (the heap's size lock,
    a list head), which locks serialize, how long processors wait. *)

type event =
  | Spawned of { parent : int; child : int; at : int }
  | Exited of { proc : int; at : int }
  | Accessed of {
      proc : int;
      location : int;
      kind : Memory_model.kind;
      start : int;
      finish : int;
      hit : bool;
      queued : int;
    }
  | Acquired of { proc : int; lock : string; at : int }
  | Released of { proc : int; lock : string; at : int }
  | Parked of { proc : int; lock : string; at : int }
  | Woken of { proc : int; lock : string; at : int; waited : int }
  | Cond_parked of { proc : int; cond : string; lock : string; at : int }
      (** the processor released [lock] and parked on condition [cond] *)
  | Cond_woken of {
      proc : int;
      cond : string;
      lock : string;
      at : int;
      waited : int;
    }
      (** a signal delivered: [waited] cycles from park to wake
          (the guarding lock's re-acquisition may still park on the lock
          and is traced as an ordinary [Parked]/[Woken] pair) *)

type sink = event -> unit

val pp_event : Format.formatter -> event -> unit

(** Aggregating sink. *)
module Summary : sig
  type t

  val create : unit -> t
  val sink : t -> sink

  val events : t -> int

  val hottest_locations : t -> n:int -> (int * int * int) list
  (** [(location, misses, queued_cycles)] with the highest queueing, worst
      first; locations that never queued are omitted. *)

  val lock_profile : t -> (string * int * int * int) list
  (** [(name, acquisitions, parkings, waited_cycles)], sorted by waited
      cycles, worst first.  Locks created with the same [name] are
      aggregated — name locks meaningfully. *)

  val cond_profile : t -> (string * int * int) list
  (** [(name, parkings, waited_cycles)] per condition variable, sorted by
      waited cycles, worst first.  Same name-aggregation rule as
      {!lock_profile}. *)

  val processor_spans : t -> (int * int * int) list
  (** [(proc, spawned_at, exited_at)] for every processor seen. *)

  val pp : Format.formatter -> t -> unit
  (** Compact report: totals, top locations, lock table. *)
end
