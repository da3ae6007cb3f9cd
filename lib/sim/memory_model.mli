(** Cost model of the simulated ccNUMA shared-memory system.

    The model captures the three effects the paper's evaluation hinges on:

    + {b Latency hierarchy} — a cache hit is much cheaper than a fetch from
      the local memory node, which is cheaper than a remote node (Alewife's
      defining property).
    + {b Cache coherence} — a line read by many processors is cheap to
      re-read (shared state) but a write or SWAP invalidates all sharers
      and costs a full fetch for the next reader.
    + {b Hot-spot queueing} — each location's memory module serves one
      miss at a time ([busy_until]); [k] processors hammering one location
      (a heap's size lock, a list head) serialize and each pays O(k) —
      exactly the contention that limits centralized structures.

    All costs are in simulated machine cycles. *)

type config = {
  cache_hit : int;  (** load/store satisfied by the local cache *)
  local_fetch : int;  (** miss served by the processor's own NUMA node *)
  remote_fetch : int;  (** miss served by another node *)
  occupancy : int;
      (** cycles the location's line is busy per miss; the queueing
          quantum behind hot-spot contention *)
  node_occupancy : int;
      (** cycles a miss occupies the home node's memory module, shared by
          every location living on that node — the finite-bandwidth term
          that makes the whole machine saturate as processors multiply *)
  swap_extra : int;  (** additional cycles for the atomic read-modify-write *)
  numa_nodes : int;  (** locations are distributed round-robin across nodes *)
  max_procs : int;
      (** how many processors [Machine.spawn] may start, the root
          included; the directory's sharer sets size themselves to the
          processor ids that actually access a line *)
}

val default : config
(** Alewife-flavoured constants: cache_hit 2, local_fetch 11, remote_fetch
    38, occupancy 6, node_occupancy 12, swap_extra 6, 16 NUMA nodes, 512
    processors. *)

val sequential : config
(** Degenerate uniform-cost config (every access 1 cycle, no queueing) for
    tests that want logical time only. *)

type system
(** One simulated memory system: the config, the per-node module queues,
    and the line directory — one flat int array with a row per line id,
    [writer; busy_until; sharer words], the sharer set packed 63
    processors to a word.  The home node is computed (the line id modulo
    [numa_nodes]), not stored.  Rows start one sharer word wide and widen,
    in place, the first time {!access_into} adds a sharer past the current
    width; the array grows geometrically when an id outruns it.  Registering a line
    or charging an access otherwise never allocates (DESIGN.md §S17). *)

val make_system : config -> system
(** Raises [Invalid_argument] naming the field when [numa_nodes] or
    [max_procs] is below 1 or any cycle cost is negative. *)

type meta
(** A location's handle: its line id into the system's directory.  An
    immediate value — allocating a location costs nothing on the host. *)

val make_meta : system -> id:int -> meta
(** Registers line [id] in the directory (growing it if needed) with
    fresh coherence state: no writer, no sharers, line free. *)

val location_id : meta -> int

type kind = Read | Write | Swap

type charge = {
  start : int;  (** when the access begins service (>= request time) *)
  finish : int;  (** when the processor may continue *)
  hit : bool;
  queued : int;  (** cycles spent waiting for the memory module *)
}

type scratch = {
  mutable c_start : int;
  mutable c_finish : int;
  mutable c_hit : bool;
  mutable c_queued : int;
}
(** Mutable destination for {!access_into} — the scheduler reuses one per
    simulation so the per-access hot path allocates nothing. *)

val make_scratch : unit -> scratch

val access_into : scratch -> system -> meta -> proc:int -> now:int -> kind -> unit
(** [access_into out sys meta ~proc ~now kind] charges one access by
    processor [proc] whose local clock reads [now], updating the
    location's coherence and queueing state and writing the resulting
    charge into [out].  Must be called in nondecreasing [now] order across
    all processors (the simulator scheduler guarantees this). *)

val access : system -> meta -> proc:int -> now:int -> kind -> charge
(** Allocating wrapper over {!access_into}, for tests and diagnostics. *)

(** {2 Directory inspection}

    Plain-data views of one line's coherence state, for the model tests
    (test_sim drives the directory and a record-based reference through
    identical access sequences and asserts equal state). *)

val writer_of : system -> meta -> int
(** Exclusive owner's processor id, or [-1] when the line is shared/idle. *)

val sharers_of : system -> meta -> int list
(** Processors holding the line in shared state, ascending. *)

val busy_until_of : system -> meta -> int
(** The line-level queue: when the line's module is next free. *)
