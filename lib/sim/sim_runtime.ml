type 'a shared = { mutable v : 'a; meta : Memory_model.meta }

let shared ?name v =
  ignore name;
  { v; meta = Machine.alloc_meta () }

let read cell =
  Machine.access cell.meta Memory_model.Read;
  cell.v

let write cell v =
  Machine.access cell.meta Memory_model.Write;
  cell.v <- v

let swap cell v =
  Machine.access cell.meta Memory_model.Swap;
  let old = cell.v in
  cell.v <- v;
  old

(* The compare and the conditional write happen after the access step
   returns, i.e. between two scheduler points — one atomic step, exactly
   like [swap].  Physical equality mirrors [Atomic.compare_and_set]. *)
let cas cell expected v =
  Machine.access cell.meta Memory_model.Swap;
  if cell.v == expected then begin
    cell.v <- v;
    true
  end
  else false

(* One atomic step, like [swap]: the add lands when the access returns. *)
let fetch_and_add cell d =
  Machine.access cell.meta Memory_model.Swap;
  let old = cell.v in
  cell.v <- old + d;
  old

type lock = Machine.lock

let lock_create ?name () = Machine.lock_create ?name ()
let acquire = Machine.lock_acquire
let release = Machine.lock_release
let try_acquire = Machine.lock_try_acquire
let lock_stats = Machine.probe_lock_stats

type cond = Machine.cond

let cond_create ?name lock = Machine.cond_create ?name lock
let cond_wait = Machine.cond_wait
let cond_signal = Machine.cond_signal
let get_time = Machine.get_time
let work = Machine.work
let self = Machine.self
let yield () = Machine.work 1
