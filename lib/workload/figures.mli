(** One entry per table/figure of the paper's evaluation (§5), plus the
    ablations listed in DESIGN.md.  Each runner regenerates its figure's
    data on the simulator and renders it in the paper's row/column layout,
    followed by automatically computed shape indicators (who wins, by what
    factor, where the crossover falls) for comparison with the paper's
    claims in EXPERIMENTS.md. *)

type result = {
  id : string;  (** "fig3", "ablation-skiplist-params", ... *)
  title : string;
  body : string;  (** rendered tables *)
  indicators : (string * float) list;
      (** named shape metrics, e.g. ("heap/skipqueue deletion @256", 2.9) *)
  data : (string * (float * float * float) list) list;
      (** machine-readable series: (name, [(x, delete latency, insert
          latency)]) — x is the processor count (or, for fig2, the work
          amount).  Empty for purely textual experiments. *)
}

val render : result -> string

val to_csv : result -> string
(** "series,x,delete_latency,insert_latency" rows of {!result.data}. *)

type options = {
  scale : float;  (** multiplies operation counts; 1.0 = paper scale *)
  max_procs_log2 : int;  (** sweep 2^0 .. 2^max; the paper uses 8 *)
  progress : string -> unit;
      (** called before each simulator run; with [jobs > 1] calls may
          interleave across concurrent points *)
  jobs : int;
      (** domains running independent sweep points concurrently (see
          {!Jobs.map}); results are identical for any value *)
}

val max_scale : float
(** The largest {!options.scale} every experiment honours: the
    ["scheduler"] tags each of its [6000 * scale] jobs in 20 key bits, so
    about 174.8. *)

val all : (string * (options -> result)) list
(** Every runner, keyed by id, in presentation order:

    - ["fig2"]: Insert/Delete-min latency vs. local work (100..6000
      cycles), 256 processors, 1000 initial elements.
    - ["fig3"]: small structure (50 initial, 70000 ops, 50% inserts); Heap
      vs SkipQueue vs FunnelList across the whole concurrency range.
    - ["fig4"]: large structure (1000 initial), otherwise as fig3; the
      FunnelList runs a tenth of the operations.
    - ["fig5"]: 70% deletions (27000 initial, 60000 ops, 30% inserts);
      Heap vs SkipQueue.
    - ["fig6"], ["fig7"], ["fig8"]: SkipQueue vs Relaxed SkipQueue on the
      small (50 initial, 7000 ops), large (1000 initial, 7000 ops) and
      70%-deletions (27000 initial, 60000 ops) structures.
    - ["multiqueue"]: beyond the paper, the MultiQueue (c-way choice over
      try-locked shards, PAPERS.md "Engineering MultiQueues") against the
      Relaxed SkipQueue on the fig6/fig7/fig8 workloads, reporting both
      latency and Delete-min rank error.
    - ["ablation-funnel-front"] (A1): plain SkipQueue vs a funnel-regulated
      Delete-min — the design §5 reports rejecting.
    - ["ablation-skiplist-params"] (A2): sensitivity of the SkipQueue to
      the level-promotion probability [p] and [max_level].
    - ["ablation-timestamp"] (A3): cost decomposition of the timestamp
      mechanism — hunt lengths, SWAP losses and stale skips for strict vs
      relaxed.
    - ["ablation-reclamation"] (A4): overhead of the §3 timestamp-based
      reclamation protocol (entry/exit registration, retirement, a
      dedicated collector processor).
    - ["ablation-bounded-range"] (A5): the bounded-range bin queue of
      Shavit & Zemach [39] against the SkipQueue on dense (range 256) and
      sparse (range 65536) priorities.
    - ["ablation-memory-model"] (A6): the fig3 workload at up to 64
      processors under reduced memory models (no line queueing, no node
      bandwidth, flat memory), attributing each phenomenon to a model
      ingredient.
    - ["ablation-elimination"] (A9): the elimination–combining front end
      ({!Repro_skipqueue.Elimination}) against the plain SkipQueue on the
      fig7/fig8 workloads, strict and relaxed, with a traced head-of-list
      probe ({!Benchmark.probe}) at up to 64 processors and the front
      end's rendezvous counters.
    - ["ablation-lockfree"] (A13): the lock-free SkipQueue against the
      locked original and the elimination front end on the fig7 and
      fig5/fig8 workloads, with the head-of-list probe and the lock-free
      counters (CAS failures, marked-node hops).
    - ["scheduler"] (A12): an earliest-deadline-first task scheduler for a
      2,000,000-user id space on the bounded/blocking façade
      ({!Repro_bounded.Bounded_queue}): bursty producers push
      deadline-keyed jobs through [insert_wait], half as many workers
      drain through [delete_min_wait].  Sweeps the worker count over four
      backends and reports mean sojourn, deadline-miss rate, worker parks
      and backpressure stalls; its {!result.data} y-columns are mean
      sojourn (cycles) and miss rate (%), keyed by worker count.
    - ["klsm-shootout"] (A14): the Relaxed SkipQueue, the MultiQueue and
      the k-LSM ({!Repro_klsm.Klsm}, k = 256) on the fig6/fig7/fig8
      workloads plus a duplicate-heavy one (256-value key range), with the
      rank-error oracle per relaxation and the k-LSM's flush/merge/spy
      counters.
    - ["duplicate-heavy"] (A15): the coalescing SkipQueue, alone and
      behind the elimination front end, against the locked and lock-free
      SkipQueues at key ranges 64, 256 and 4096, with the coalescing
      counters and the head-of-list probe on the 256 range.

    Every experiment but fig2, A3, A6 and A12 is a processor sweep run by
    one engine; one with several workloads suffixes each CSV series with
    its workload's tag ("SkipQueue/fig7"), so series names are distinct. *)
