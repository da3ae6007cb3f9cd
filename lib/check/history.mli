(** History recording for queue executions on the simulator.

    A recorder wraps any {!Repro_workload.Queue_adapter.instance} and logs
    one {!O.event} per completed insert / delete-min, timestamped with the
    calling virtual processor's clock at invocation and response.
    Timestamps are read with {!Repro_sim.Machine.probe_time} and the log is
    host-side state, so recording costs no simulated cycles and cannot
    change the schedule — the recorded run {e is} the measured run.

    Recording is allocation-free at steady state: events land in
    preallocated per-processor int buffers (ten columns per event) that
    grow geometrically, and are only materialized as {!O.event} records
    when {!events} flushes them at quiescence (DESIGN.md §S17).

    Blocking operations are first-class: every wrapped call differenced
    {!Repro_sim.Machine.probe_blocking} across its span, so operations
    that parked on a condition variable (the bounded façade's
    [insert_wait]/[delete_min_wait] under pressure) carry their park
    count and last park/wake clocks — the raw material for the
    blocking-aware checkers ({!park_spans}).

    The harness uses the element's payload value as its unique identity
    ([O.Insert.id]); callers of {!wrap} must insert unique values. *)

module O = Repro_pqueue.Oracle

type t

val create : unit -> t

val wrap : t -> Repro_workload.Queue_adapter.instance -> Repro_workload.Queue_adapter.instance
(** [wrap t q] is [q] with all four entry points recording into [t]
    (blocking and non-blocking inserts both record as inserts; a
    [delete_min_wait] records as a delete returning [Some]).  Must be
    used inside [Machine.run] (the timestamps are simulator clocks).
    [q.stats] passes through unrecorded. *)

val events : t -> O.event list
(** All recorded events in response (completion) order — the order the
    simulator serialized the host-side recording calls. *)

type span = {
  event : O.event;
  parks : int;  (** condition parks performed inside the operation *)
  parked_at : int;  (** clock of the operation's last park *)
  woken_at : int;  (** clock at which that park's wake was granted *)
}

val park_spans : t -> span list
(** The recorded operations that parked at least once, sorted by
    invocation.  Empty for any run that never hit backpressure or an
    empty-queue wait. *)

val length : t -> int
