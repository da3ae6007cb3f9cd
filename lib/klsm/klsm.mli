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

  val create :
    ?seed:int64 ->
    ?search_cycles:int ->
    ?buffer_capacity:int ->
    k:int ->
    procs:int ->
    unit ->
    t
  (** [create ~k ~procs ()] builds a k-LSM with rank-error bound [k]
      (>= 1) sized for [procs] processors.  [buffer_capacity] overrides
      the default per-processor buffer split [min 256 (k / (2 * (procs -
      1)))]; capacity 0 publishes every insert as a singleton block.
      [search_cycles] is the simulated charge per binary-search level
      during rank estimation and merges (host arrays cost no simulated
      memory traffic; default 2 — set 0 on the native runtime, where the
      walks cost real time).  [seed] feeds the per-processor streams for
      the relaxed choice. *)

  val insert : t -> int -> int -> unit
  val delete_min : t -> (int * int) option

  val insert_batch : t -> (int * int) array -> unit
  (** Sorts the batch host-side and publishes it as a single SLSM block,
      bypassing the insertion buffer — the log-structured bulk path. *)

  val delete_min_batch : t -> want:int -> (int * int) list
  (** Up to [want] claims through one per-processor state acquisition, in
      claim order; shorter when the structure runs (observably) empty. *)

  type op_stats = {
    inserts : int;
    deletes : int;
    flushes : int;  (** buffer-to-SLSM publishes *)
    merges : int;  (** log-structured block merges *)
    spy_sweeps : int;  (** emptiness-triggered sweeps over foreign buffers *)
    cas_failures : int;  (** lost claim / publish / pivot races *)
    batch_inserts : int;
    batch_deletes : int;
  }

  val stats : t -> op_stats

  val block_count : t -> int
  (** Blocks currently published in the SLSM (reads the list head only). *)

  val live_length : t -> int
  (** Unclaimed elements across all buffers and blocks.  Reads every claim
      cell — a debugging/test helper, not an O(1) operation. *)
end
