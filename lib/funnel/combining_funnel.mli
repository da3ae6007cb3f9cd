(** Combining funnels (Shavit & Zemach, PODC 1998) — the request-combining
    front end of the FunnelList baseline.

    A funnel is a series of {e collision layers}, each an array of cells.
    A processor wraps its request in a token and walks the layers: at each
    layer it SWAPs its token into a random cell; if it swapped out another
    processor's token carrying the {e same kind} of request, the two
    combine — one token absorbs the other's request group and carries on,
    while the absorbed processor spins until its request is marked done.
    Whoever emerges from the last layer still owning its group acquires
    the exclusion lock and applies the whole batch at once.

    Compared to the original we make two simplifications, recorded in
    DESIGN.md: layer widths are static configuration rather than adapting
    on-line, and combining uses per-token locks (the original uses CAS;
    the paper's machine model provides SWAP and semaphores, from which our
    locks are built).  Neither changes the mechanism being measured:
    combining trades per-operation latency (walking the funnel) for a
    reduction in exclusive-lock acquisitions. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'req t

  val create :
    ?layer_widths:int list ->
    ?collision_window:int ->
    ?miss_tolerance:int ->
    apply:('req list -> unit) ->
    is_done:('req -> bool) ->
    kind_of:('req -> int) ->
    unit ->
    'req t
  (** [apply batch] is called with the combined request group under the
      funnel's exclusion lock; it must complete every request in [batch]
      (make [is_done] true).  Only requests with equal [kind_of] combine.
      [layer_widths] defaults to [[16; 8; 4; 2]]; [collision_window]
      (default 40 cycles) is how long a token lingers at a layer waiting
      to be hit; after [miss_tolerance] (default 0) consecutive
      collision-free layers the token leaves the funnel early — the static
      stand-in for the original's on-line width/depth adaptation, making
      an unloaded funnel nearly free. *)

  val perform : 'req t -> 'req -> unit
  (** Funnels the request; returns once it is done (either this processor
      became the representative and applied a batch containing it, or the
      request was absorbed and completed by another representative). *)

  val stats : 'req t -> (string * float) list
  (** Cumulative counters, in this order: [batches] (lock acquisitions =
      groups applied), [combines] (successful token captures) and
      [largest_batch] (the most requests one [apply] received). *)
end
