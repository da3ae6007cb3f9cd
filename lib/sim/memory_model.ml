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

(* The line directory is one flat int array with one row per line id:
   [writer; busy_until; sharer words...], stride [2 + words].  [writer]
   is the exclusive owner (-1 when none), [busy_until] the line-level
   queue, and the sharer words a packed bitmap of 63 processors each.
   An access touches one row, so one or two host cache lines.  The home
   node is not stored: it is [home_node config ~id].  [words] starts at 1
   and widens the first time a sharer id outruns it, so a run pays for the
   processors that ran, not for [max_procs].  Registering or touching a
   line never allocates; the array is relaid out (one function) when an
   id outruns the rows or a sharer outruns the words. *)
type system = {
  config : config;
  node_busy : int array;
  mutable words : int; (* sharer words per row *)
  mutable capacity : int; (* rows *)
  mutable dir : int array; (* [capacity] rows of [2 + words] ints *)
}

(* Enough rows that the benchmark-scale workloads (tens of thousands of
   locations per run) pay at most one or two doublings: 384 KB while
   every processor id is below 63. *)
let initial_capacity = 16384

let[@inline] stride sys = 2 + sys.words
let[@inline] row sys line = line * stride sys

(* Copies every row into a fresh array of [capacity] rows of [words]
   sharer words each; the added sharer words are zero.  Rows past the old
   capacity are left zero: [make_meta] writes a fresh row before any
   access reads it. *)
let relayout sys ~capacity ~words =
  let old_stride = stride sys and new_stride = 2 + words in
  let dir = Array.make (capacity * new_stride) 0 in
  if new_stride = old_stride then Array.blit sys.dir 0 dir 0 (sys.capacity * old_stride)
  else
    for line = 0 to sys.capacity - 1 do
      Array.blit sys.dir (line * old_stride) dir (line * new_stride) old_stride
    done;
  sys.dir <- dir;
  sys.capacity <- capacity;
  sys.words <- words

let make_system config =
  let fail fmt = Printf.ksprintf invalid_arg ("Memory_model.make_system: " ^^ fmt) in
  if config.numa_nodes < 1 then fail "numa_nodes %d must be at least 1" config.numa_nodes;
  if config.max_procs < 1 then fail "max_procs %d must be at least 1" config.max_procs;
  let cost name cycles = if cycles < 0 then fail "%s %d must not be negative" name cycles in
  cost "cache_hit" config.cache_hit;
  cost "local_fetch" config.local_fetch;
  cost "remote_fetch" config.remote_fetch;
  cost "occupancy" config.occupancy;
  cost "node_occupancy" config.node_occupancy;
  cost "swap_extra" config.swap_extra;
  let sys =
    { config; node_busy = Array.make config.numa_nodes 0; words = 1; capacity = 0; dir = [||] }
  in
  relayout sys ~capacity:initial_capacity ~words:1;
  sys

type meta = int (* line id into the directory *)

let home_node config ~id = id mod config.numa_nodes
let proc_node config ~proc = proc mod config.numa_nodes

let make_meta sys ~id =
  if id < 0 then invalid_arg "Memory_model.make_meta: negative id";
  if id >= sys.capacity then begin
    let capacity = ref sys.capacity in
    while !capacity <= id do
      capacity := 2 * !capacity
    done;
    relayout sys ~capacity:!capacity ~words:sys.words
  end;
  let r = row sys id in
  sys.dir.(r) <- -1;
  Array.fill sys.dir (r + 1) (stride sys - 1) 0;
  id

let location_id (meta : meta) = meta

(* Sharer words: the same packed representation [Repro_util.Bitset]
   uses, inlined over the row.  A processor whose word lies past the
   row's [words] has never been added, so it is not a sharer; adding one
   widens every row first. *)
let[@inline] sharer_mem sys line proc =
  let w = proc / 63 in
  w < sys.words
  && Array.unsafe_get sys.dir (row sys line + 2 + w) land (1 lsl (proc mod 63)) <> 0

let[@inline] sharer_add sys line proc =
  let w = proc / 63 in
  if w >= sys.words then relayout sys ~capacity:sys.capacity ~words:(w + 1);
  let i = row sys line + 2 + w in
  Array.unsafe_set sys.dir i (Array.unsafe_get sys.dir i lor (1 lsl (proc mod 63)))

let[@inline] sharer_clear sys line = Array.fill sys.dir (row sys line + 2) sys.words 0

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
let[@inline] miss_start sys r ~home ~now =
  let start = Int.max now (Int.max sys.dir.(r + 1) sys.node_busy.(home)) in
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
  let r = row sys line in
  let writer = sys.dir.(r) in
  match kind with
  | Read ->
    if writer = proc || (writer = -1 && sharer_mem sys line proc) then
      (* Hit: served by the processor's cache, no module traffic. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = home_node config ~id:line in
      let start = miss_start sys r ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.dir.(r + 1) <- start + config.occupancy;
      (* Line becomes shared: a previous exclusive owner is downgraded.
         [sharer_add] may widen the rows, so [r] is stale after it. *)
      if writer >= 0 then begin
        sys.dir.(r) <- -1;
        sharer_add sys line writer
      end;
      sharer_add sys line proc;
      miss_into out ~now ~start latency
    end
  | Write ->
    if writer = proc then
      (* Exclusive owner writes in cache. *)
      hit_into out ~now config.cache_hit
    else begin
      let home = home_node config ~id:line in
      let start = miss_start sys r ~home ~now in
      let latency = fetch_latency config ~home ~proc in
      sys.dir.(r + 1) <- start + config.occupancy;
      sharer_clear sys line;
      sys.dir.(r) <- proc;
      miss_into out ~now ~start latency
    end
  | Swap ->
    (* RMW always serializes at the module, even for the owner: it is the
       point where concurrent SWAPs order themselves. *)
    let home = home_node config ~id:line in
    let start = miss_start sys r ~home ~now in
    let latency =
      (if writer = proc then config.cache_hit
       else fetch_latency config ~home ~proc)
      + config.swap_extra
    in
    sys.dir.(r + 1) <- start + config.occupancy + config.swap_extra;
    sharer_clear sys line;
    sys.dir.(r) <- proc;
    miss_into out ~now ~start latency

let access sys meta ~proc ~now kind =
  (* Allocating convenience wrapper; tests and diagnostics only — the
     scheduler goes through [access_into]. *)
  let out = make_scratch () in
  access_into out sys meta ~proc ~now kind;
  { start = out.c_start; finish = out.c_finish; hit = out.c_hit; queued = out.c_queued }

(* Directory inspection, for the model tests: the coherence state of one
   line as plain data. *)
let writer_of sys (line : meta) = sys.dir.(row sys line)
let busy_until_of sys (line : meta) = sys.dir.(row sys line + 1)

let sharers_of sys (line : meta) =
  let acc = ref [] in
  for p = (63 * sys.words) - 1 downto 0 do
    if sharer_mem sys line p then acc := p :: !acc
  done;
  !acc
