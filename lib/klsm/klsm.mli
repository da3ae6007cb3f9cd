(** The k-LSM relaxed priority queue (Wimmer, Gruber, Träff & Tsigas):
    log-structured merge of sorted flat int arrays with per-processor
    insertion buffers and a rank-error bound of [k].

    Two components, each individually linearizable:

    - the {b DLSM}: one thread-local insertion buffer per processor —
      append-only slot arrays whose published length is advanced through a
      shared cell, so any processor can {e read} (and claim from) a
      foreign buffer even though only the owner appends.  A full buffer is
      sorted and flushed into the shared component as one block; the
      flushed block {e aliases} the buffer's per-element claim cells, so
      an element is claimable exactly once no matter how many views hold
      it.
    - the {b SLSM}: a CAS-published immutable list of sorted flat blocks,
      merged log-structurally (binary-counter rule: a newly published
      block is merged with its successor while it has grown at least as
      large).  Each block carries a CAS-advanced pivot past its
      observed-taken prefix, and per-element claim cells — again aliased
      across merges, which is what makes the claim CAS the single
      linearization point of every Delete-min.

    The relaxation contract: Delete-min returns an element with at most
    [k] live elements smaller than it at claim time.  The budget is split
    as [b = k / (2 * (procs - 1))] elements per foreign insertion buffer
    (invisible to a normal delete — worst case [(procs-1) * b]) plus a
    shared-component allowance [s = k - (procs-1) * b] for the relaxed
    choice among block heads (eligible heads have a conservative rank
    estimate of at most [s]; the true minimum head is always eligible).
    The deleting processor always weighs its own buffer's minimum against
    the shared candidate, so its own buffer never contributes error.  On
    apparent emptiness a delete {e spies}: it sweeps every foreign buffer
    and every block for the global minimum, so a drained structure returns
    exactly the untaken elements regardless of which processor drains. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type t

  val create : ?seed:int64 -> k:int -> procs:int -> unit -> t
  (** [create ~k ~procs ()] builds a k-LSM with rank-error bound [k]
      (>= 1) sized for [procs] (>= 1) processors.  Each processor's buffer
      holds [min 256 (k / (2 * (procs - 1)))] elements (its [procs = 1]
      divisor is 1); a capacity of 0 publishes every insert as a
      singleton block.  The host-side binary searches of rank estimation
      and merging are billed through [R.charge] at 2 cycles per level,
      which the simulator charges and the native runtime ignores.  [seed]
      feeds the per-processor streams for the relaxed choice. *)

  val insert : t -> int -> int -> unit
  val delete_min : t -> (int * int) option

  val stats : t -> (string * float) list
  (** Cumulative counters, in this order: [flushes] (buffer-to-SLSM
      publishes), [merges] (log-structured block merges), [spy_sweeps]
      (emptiness-triggered sweeps over foreign buffers) and [cas_failures]
      (lost claim / publish / pivot races); then the gauge [blocks]
      (blocks currently published in the SLSM, one read of the list
      head). *)

  val live_length : t -> int
  (** Unclaimed elements across all buffers and blocks.  Reads every claim
      cell — a debugging/test helper, not an O(1) operation. *)
end
