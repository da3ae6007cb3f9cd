type config = {
  cache_hit : int;
  local_fetch : int;
  remote_fetch : int;
  occupancy : int;
  node_occupancy : int;
  swap_extra : int;
  numa_nodes : int;
  max_procs : int;
}

let default =
  {
    cache_hit = 2;
    local_fetch = 11;
    remote_fetch = 38;
    occupancy = 6;
    node_occupancy = 12;
    swap_extra = 6;
    numa_nodes = 16;
    max_procs = 512;
  }

let sequential =
  {
    cache_hit = 1;
    local_fetch = 1;
    remote_fetch = 1;
    occupancy = 0;
    node_occupancy = 0;
    swap_extra = 0;
    numa_nodes = 1;
    max_procs = 512;
  }

(* The line directory is a structure of arrays indexed by line id: one
   int per line for the exclusive writer (-1 when none), the home node,
   and the line-level queue, plus [words_per_line] packed bitmap words
   per line for the sharer set.  Registering or touching a line never
   allocates; the columns grow geometrically when an id outruns them.
   (Before §S17 each line was a heap record owning a Bitset — ~18 minor
   words per [make_meta], promoted wholesale because lines live as long
   as the structures that own them.) *)
type system = {
  config : config;
  node_busy : int array;
  words_per_line : int;
  mutable dir_capacity : int; (* lines the columns can hold *)
  mutable writer : int array;
  mutable home : int array;
  mutable busy_until : int array;
  mutable sharers : int array; (* dir_capacity rows of words_per_line *)
}

(* Large enough that the benchmark-scale workloads (tens of thousands of
   locations per run) pay at most one or two doublings; still only a few
   hundred KB per column at 64 procs. *)
let initial_capacity = 16384

let make_system config =
  let words_per_line = ((config.max_procs + 62) / 63) in
  {
    config;
    node_busy = Array.make config.numa_nodes 0;
    words_per_line;
    dir_capacity = initial_capacity;
    writer = Array.make initial_capacity (-1);
    home = Array.make initial_capacity 0;
    busy_until = Array.make initial_capacity 0;
    sharers = Array.make (initial_capacity * words_per_line) 0;
  }

type meta = int (* line id into the directory *)

let home_node config ~id = id mod config.numa_nodes
let proc_node config ~proc = proc mod config.numa_nodes

let grow sys ~id =
  let cap = ref sys.dir_capacity in
  while !cap <= id do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 sys.dir_capacity;
    b
  in
  sys.writer <- extend sys.writer (-1);
  sys.home <- extend sys.home 0;
  sys.busy_until <- extend sys.busy_until 0;
  let sh = Array.make (cap * sys.words_per_line) 0 in
  Array.blit sys.sharers 0 sh 0 (sys.dir_capacity * sys.words_per_line);
  sys.sharers <- sh;
  sys.dir_capacity <- cap

let make_meta sys ~id =
  if id < 0 then invalid_arg "Memory_model.make_meta: negative id";
  if id >= sys.dir_capacity then grow sys ~id;
  sys.writer.(id) <- -1;
  sys.home.(id) <- home_node sys.config ~id;
  sys.busy_until.(id) <- 0;
  Array.fill sys.sharers (id * sys.words_per_line) sys.words_per_line 0;
  id

let location_id (meta : meta) = meta

(* Sharer-set rows: the same packed representation [Repro_util.Bitset]
   uses, inlined over the flat column.  Processor ids are bounded by
   [config.max_procs] (the machine enforces the spawn limit), so the
   word index is always inside the line's row. *)
let[@inline] sharer_mem sys line proc =
  Array.unsafe_get sys.sharers ((line * sys.words_per_line) + (proc / 63))
  land (1 lsl (proc mod 63))
  <> 0

let[@inline] sharer_add sys line proc =
  let w = (line * sys.words_per_line) + (proc / 63) in
  Array.unsafe_set sys.sharers w
    (Array.unsafe_get sys.sharers w lor (1 lsl (proc mod 63)))

let[@inline] sharer_clear sys line =
  Array.fill sys.sharers (line * sys.words_per_line) sys.words_per_line 0

type kind = Read | Write | Swap

type charge = { start : int; finish : int; hit : bool; queued : int }

(* Mutable destination for [access_into]: the scheduler charges one of
   these per simulated access, so the hot path must not allocate a fresh
   [charge] record each time. *)
type scratch = {
  mutable c_start : int;
  mutable c_finish : int;
  mutable c_hit : bool;
  mutable c_queued : int;
}

let make_scratch () = { c_start = 0; c_finish = 0; c_hit = false; c_queued = 0 }

let[@inline] fetch_latency config ~home ~proc =
  if proc_node config ~proc = home then config.local_fetch
  else config.remote_fetch

(* A miss queues twice: behind other misses to the same line (hot spots)
   and behind other misses served by the same home node (bandwidth). *)
let[@inline] miss_start sys line ~home ~now =
  let start =
    Int.max now (Int.max sys.busy_until.(line) sys.node_busy.(home))
  in
  sys.node_busy.(home) <- start + sys.config.node_occupancy;
  start

let[@inline] hit_into out ~now latency =
  out.c_start <- now;
  out.c_finish <- now + latency;
  out.c_hit <- true;
  out.c_queued <- 0

let[@inline] miss_into out ~now ~start latency =
  out.c_start <- start;
  out.c_finish <- start + latency;
  out.c_hit <- false;
  out.c_queued <- start - now

let access_into out sys (line : meta) ~proc ~now kind =
  let config = sys.config in
  let writer = sys.writer.(line) in
  match kind with
  | Read ->
    if writer = proc || (writer = -1 && sharer_mem sys line proc) then
      (* Hit: served by the processor's cache, no module traffic. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = sys.home.(line) in
      let start = miss_start sys line ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.busy_until.(line) <- start + config.occupancy;
      (* Line becomes shared: a previous exclusive owner is downgraded. *)
      if writer >= 0 then begin
        sharer_add sys line writer;
        sys.writer.(line) <- -1
      end;
      sharer_add sys line proc;
      miss_into out ~now ~start latency
    end
  | Write ->
    if writer = proc then
      (* Exclusive owner writes in cache. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = sys.home.(line) in
      let start = miss_start sys line ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.busy_until.(line) <- start + config.occupancy;
      sharer_clear sys line;
      sys.writer.(line) <- proc;
      miss_into out ~now ~start latency
    end
  | Swap ->
    (* RMW always serializes at the module, even for the owner: it is the
       point where concurrent SWAPs order themselves. *)
    let home = sys.home.(line) in
    let start = miss_start sys line ~home ~now in
    let latency =
      (if writer = proc then config.cache_hit
       else fetch_latency config ~home ~proc)
      + config.swap_extra
    in
    sys.busy_until.(line) <- start + config.occupancy + config.swap_extra;
    sharer_clear sys line;
    sys.writer.(line) <- proc;
    miss_into out ~now ~start latency

let access sys meta ~proc ~now kind =
  (* Allocating convenience wrapper; tests and diagnostics only — the
     scheduler goes through [access_into]. *)
  let out = make_scratch () in
  access_into out sys meta ~proc ~now kind;
  { start = out.c_start; finish = out.c_finish; hit = out.c_hit; queued = out.c_queued }

(* Directory inspection, for the model tests: the coherence state of one
   line as plain data. *)
let writer_of sys (line : meta) = sys.writer.(line)
let busy_until_of sys (line : meta) = sys.busy_until.(line)

let sharers_of sys (line : meta) =
  let acc = ref [] in
  for p = sys.config.max_procs - 1 downto 0 do
    if sharer_mem sys line p then acc := p :: !acc
  done;
  !acc
