(** One value per processor id, created on the processor's first use.

    The structures keep host-side state per processor (level streams,
    search scratch, local buffers).  A table holds one value per id in
    [\[0, slots)]: [get t id] returns the value for [id], running
    [init id] the first time that id asks.  Creation is guarded by
    a host mutex that is never held across a runtime operation, so the
    table is safe under native domains and invisible to the simulator's
    schedule.

    Processor ids are dense on both runtimes ({!Runtime_intf.S.self}), so
    a slot is never shared by two live processors. *)

type 'a t

val slots : int
(** Number of ids a table serves (4096). *)

val create : (int -> 'a) -> 'a t
(** [create init] is an empty table.  [init id] builds the value of
    processor [id]; it runs at most once per id, under the host mutex.  It
    may allocate runtime cells ([R.shared] performs no effect) but must not
    perform a runtime operation (read, write, lock, work...). *)

val get : 'a t -> int -> 'a
(** [get t id] is processor [id]'s value, created by [init id] on the
    first call for [id].
    @raise Invalid_argument naming [id] if [id] is outside [\[0, slots)]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to every value created so far, in ascending id
    order.  It does not take the mutex, so [f] may perform runtime
    operations; a value created concurrently may or may not be visited. *)
