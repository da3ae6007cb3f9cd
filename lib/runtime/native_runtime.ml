type 'a shared = 'a Atomic.t

let shared ?name v =
  ignore name;
  Atomic.make v

let read = Atomic.get
let write = Atomic.set
let swap = Atomic.exchange
let cas = Atomic.compare_and_set
let fetch_and_add = Atomic.fetch_and_add

type lock = Mutex.t

let lock_create ?name () =
  ignore name;
  Mutex.create ()

(* Dense processor ids: a domain takes the smallest id no live domain
   holds on its first [self] and gives it back when it exits, so ids stay
   below the number of live domains however many have come and gone. *)
let ids_mutex = Mutex.create ()
let next_id = ref 0
let free_ids = ref [] (* ascending, all below [!next_id] *)

let take_id () =
  Mutex.protect ids_mutex (fun () ->
      match !free_ids with
      | id :: rest ->
        free_ids := rest;
        id
      | [] ->
        let id = !next_id in
        incr next_id;
        id)

let give_back id =
  Mutex.protect ids_mutex (fun () -> free_ids := List.merge Int.compare [ id ] !free_ids)

let proc_key =
  Domain.DLS.new_key (fun () ->
      let id = take_id () in
      Domain.at_exit (fun () -> give_back id);
      id)

let self () = Domain.DLS.get proc_key

(* Process-global lock counters, one slot per dense id (OCaml caps the
   live domains, hence the ids, well below [stat_slots]).  Per-domain
   slots (plain stores, no RMW) keep the accounting off the lock fast
   path's contention profile; the summed reading is monotonic and exact
   once the writing domains have joined, approximate mid-run — all the
   stats consumers need. *)
let stat_slots = 256
let acq_counts = Array.make stat_slots 0
let try_fail_counts = Array.make stat_slots 0

let acquire m =
  Mutex.lock m;
  let s = self () in
  acq_counts.(s) <- acq_counts.(s) + 1

let release = Mutex.unlock

let try_acquire m =
  let got = Mutex.try_lock m in
  let s = self () in
  if got then acq_counts.(s) <- acq_counts.(s) + 1
  else try_fail_counts.(s) <- try_fail_counts.(s) + 1;
  got

let lock_stats () =
  let sum a = Array.fold_left ( + ) 0 a in
  (sum acq_counts, sum try_fail_counts)

type cond = { cv : Condition.t; cmx : Mutex.t }

let cond_create ?name m =
  ignore name;
  { cv = Condition.create (); cmx = m }

let cond_wait c = Condition.wait c.cv c.cmx
let cond_signal c = Condition.signal c.cv

let clock = Atomic.make 1

(* [fetch_and_add] makes every reader see a distinct, monotonically
   increasing value; the returned values are totally ordered consistently
   with the atomic-operation order, hence with real time. *)
let get_time () = Atomic.fetch_and_add clock 1
let reset_clock () = Atomic.set clock 1

let work n =
  (* Burn roughly [n] cycles of local work without touching shared state. *)
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc lxor i
  done;
  ignore (Sys.opaque_identity !acc)

let yield () = Domain.cpu_relax ()

let max_processors = 127

let run_processors n body =
  if n <= 0 then invalid_arg "Native_runtime.run_processors";
  if n > max_processors then
    invalid_arg
      (Printf.sprintf
         "Native_runtime.run_processors: %d domains, at most %d (OCaml's limit of 128 counts \
          the main domain)"
         n max_processors);
  let domains = Array.init n (fun i -> Domain.spawn (fun () -> body i)) in
  let failure = ref None in
  Array.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> if !failure = None then failure := Some e)
    domains;
  match !failure with None -> () | Some e -> raise e
