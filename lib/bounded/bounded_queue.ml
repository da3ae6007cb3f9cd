(* Bounded/blocking façade over any int-keyed priority queue.

   Shape: the classic counting-semaphore bounded buffer.  Two credit
   counters stand between producers and consumers:

   - [admitted], room credits in use: a producer takes one under
     [push_lock], waiting on [not_full] while [admitted >= capacity], and
     a consumer returns one once its pop has removed an element;
   - [items], item credits: a producer adds one once its element is in the
     backend, and a consumer takes one under [pop_lock], parking on
     [not_empty] while [items <= 0].

   The end locks guard only the credits; both conditions are tied to
   [pop_lock].  Producers queue on [push_lock] and only its holder ever
   waits for room, so at most one producer is parked on [not_full], and
   a consumer announces room under [pop_lock] without queueing behind
   the producers.  The backend's insert and pop run outside every
   façade lock, so producers insert concurrently with each other and
   consumers pop concurrently with each other, as the backend allows.
   The two invariants that make this lost-wakeup-free:

   - A waiter mark ([room_waiter]/[empty_waiters]) is only mutated by a
     processor holding [pop_lock], and [cond_wait] releases that lock
     only at the instant it parks — so a signaler holding the same lock
     either sees the waiter already parked or sees the mark before it
     is set, never a half-armed waiter.
   - Cross-side notifications ([notify_not_empty], [return_room])
     signal under [pop_lock], and only once the credit they announce
     has landed.  A signal sent without that lock races the waiter's
     test-then-park window.  So does a [cond_wait] whose release and
     park are torn apart, which is how the fuzzer's lost-wakeup mutant
     breaks this façade (a [Torn_wait] runtime, lib/check/faulty.ml).

   Edge transitions signal ([items] leaving zero, [admitted] leaving
   [capacity]); consumers chain-signal [not_empty] while credits and
   waiters remain — without the chain, two parked consumers woken by a
   single empty->nonempty transition would strand one of them forever
   (see DESIGN.md §18 for the argument).  [not_full] needs no chain: it
   has at most one waiter.

   Lock ordering: the producer waiting for room holds [push_lock] while
   it takes [pop_lock]; no processor takes [push_lock] while holding
   [pop_lock] (consumers never take it), so the nesting is acyclic. *)

module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type counters = {
    mutable parks : int; (* consumer parks on not_empty *)
    mutable wakes : int; (* signals actually sent, both conditions *)
    mutable backpressure_stalls : int; (* producer parks on not_full *)
  }

  type t = {
    capacity : int;
    dedups : bool;
    backend_insert : int -> int -> unit;
    backend_pop : unit -> (int * int) option;
    push_lock : R.lock;
    pop_lock : R.lock;
    not_full : R.cond; (* tied to pop_lock *)
    not_empty : R.cond; (* tied to pop_lock *)
    (* Each counter moves under one end's lock in one direction and with
       no lock in the other, so every update is a [fetch_and_add]. *)
    admitted : int R.shared; (* room credits in use *)
    items : int R.shared; (* item credits; below zero while overdrawn *)
    mutable room_waiter : bool; (* guarded by pop_lock; only push_lock's holder waits *)
    mutable empty_waiters : int; (* guarded by pop_lock *)
    c : counters;
  }

  let create ~capacity ?(dedups = false) ?(name = "bounded") ~insert ~try_delete_min () =
    if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
    let push_lock = R.lock_create ~name:(name ^ ".push") () in
    let pop_lock = R.lock_create ~name:(name ^ ".pop") () in
    {
      capacity;
      dedups;
      backend_insert = insert;
      backend_pop = try_delete_min;
      push_lock;
      pop_lock;
      not_full = R.cond_create ~name:(name ^ ".not_full") pop_lock;
      not_empty = R.cond_create ~name:(name ^ ".not_empty") pop_lock;
      admitted = R.shared ~name:(name ^ ".admitted") 0;
      items = R.shared ~name:(name ^ ".items") 0;
      room_waiter = false;
      empty_waiters = 0;
      c = { parks = 0; wakes = 0; backpressure_stalls = 0 };
    }

  let capacity t = t.capacity

  let size t = R.read t.items

  (* Cross-side notifications: sent under [pop_lock], after the credit
     they announce has landed. *)
  let notify_not_empty t =
    R.acquire t.pop_lock;
    if t.empty_waiters > 0 then begin
      t.c.wakes <- t.c.wakes + 1;
      R.cond_signal t.not_empty
    end;
    R.release t.pop_lock

  let signal_room t =
    if t.room_waiter then begin
      t.c.wakes <- t.c.wakes + 1;
      R.cond_signal t.not_full
    end

  (* Give back the room of one removed (or never-present) element; a
     caller that holds [pop_lock] says so with [locked]. *)
  let return_room ?(locked = false) t =
    if R.fetch_and_add t.admitted (-1) = t.capacity then
      if locked then signal_room t
      else begin
        R.acquire t.pop_lock;
        signal_room t;
        R.release t.pop_lock
      end

  (* The caller holds [push_lock], so no other producer takes room until
     it is done: only [admitted]'s fall can end the wait. *)
  let wait_room t =
    R.acquire t.pop_lock;
    while R.read t.admitted >= t.capacity do
      t.room_waiter <- true;
      t.c.backpressure_stalls <- t.c.backpressure_stalls + 1;
      R.cond_wait t.not_full;
      t.room_waiter <- false
    done;
    R.release t.pop_lock

  let insert_wait t k v =
    R.acquire t.push_lock;
    if R.read t.admitted >= t.capacity then wait_room t;
    ignore (R.fetch_and_add t.admitted 1);
    R.release t.push_lock;
    t.backend_insert k v;
    if R.fetch_and_add t.items 1 = 0 then notify_not_empty t

  (* Take one element; the caller holds [pop_lock] and [block] decides the
     empty behaviour.  An item credit is taken under the lock and the pop
     runs outside it; a miss is settled under the lock again ([settle]).

     [items <= 0] does not prove the backend empty: an insert puts its
     element in the backend before it credits, and a consumer may pop
     that in-flight element on a completed insert's credit, so the
     completed insert's element sits in the backend with no credit left
     for it.  A non-blocking take therefore asks the backend once before
     answering empty, and a hit overdraws [items] until the in-flight
     credits land.  (The hit may instead be an element a credit holder
     has yet to pop; that holder's pop then misses, and [settle] gives
     its credit back.)  A blocking take parks instead: an in-flight
     credit will wake it.

     The credit is taken speculatively, with one [fetch_and_add (-1)]; when
     there was none, a [+1] undoes it.  Only [pop_lock]'s holder ever
     lowers [items], so between the two the count can only grow, and an
     undo whose old value is [>= 0] proves that a producer credited in
     between: the holder takes again.  That producer may have seen the
     transient [-1] instead of [0] and skipped its empty-edge signal; the
     holder's retry takes the credit it would have announced and chains
     any surplus (DESIGN.md §18). *)
  let rec take t ~block =
    let n = R.fetch_and_add t.items (-1) in
    if n > 0 then begin
      if t.empty_waiters > 0 && n > 1 then begin
        (* chain the wake to the next parked consumer *)
        t.c.wakes <- t.c.wakes + 1;
        R.cond_signal t.not_empty
      end;
      R.release t.pop_lock;
      match t.backend_pop () with
      | Some _ as got ->
        return_room t;
        got
      | None ->
        R.acquire t.pop_lock;
        settle t ~block
    end
    else if R.fetch_and_add t.items 1 >= 0 then
      take t ~block (* a producer credited in between *)
    else if block then begin
      t.empty_waiters <- t.empty_waiters + 1;
      t.c.parks <- t.c.parks + 1;
      R.cond_wait t.not_empty;
      t.empty_waiters <- t.empty_waiters - 1;
      take t ~block
    end
    else begin
      let got = t.backend_pop () in
      if Option.is_some got then ignore (R.fetch_and_add t.items (-1));
      R.release t.pop_lock;
      if Option.is_some got then return_room t;
      got
    end

  (* The caller holds [pop_lock] and an item credit whose pop missed.  A
     pop outside the lock can miss for a reason that passes: a concurrent
     consumer took the element this credit counted, while the element that
     replaces it was not yet visible to this pop.  So the pop is retried
     under the lock, where no consumer can take a new credit and every
     credit already issued, stale ones aside, counts an element this pop
     can see (DESIGN.md §18 counts them).  A miss there is read against
     [n], the credits the lock has frozen from below (producers only
     add):

     - [n < 0]: overdrawn, so an overdrawing take may have removed the
       element this credit counted; give the credit back and wait for
       the next one;
     - a deduplicating backend: a credit with no element behind it exists
       (an insert absorbed as an in-place update) — burn one, freeing its
       room, and take another;
     - otherwise a transient miss (e.g. a try-locked shard mid-insert)
       that resolves under retry. *)
  and settle t ~block =
    let n = R.read t.items in
    match t.backend_pop () with
    | Some _ as got ->
      R.release t.pop_lock;
      return_room t;
      got
    | None when n < 0 ->
      ignore (R.fetch_and_add t.items 1);
      take t ~block
    | None when t.dedups ->
      return_room ~locked:true t;
      take t ~block
    | None ->
      R.yield ();
      settle t ~block

  let try_delete_min t =
    R.acquire t.pop_lock;
    take t ~block:false

  let delete_min_wait t =
    R.acquire t.pop_lock;
    match take t ~block:true with
    | Some kv -> kv
    | None -> assert false (* blocking take never returns None *)

  let stats t =
    [
      ("parks", float_of_int t.c.parks);
      ("wakes", float_of_int t.c.wakes);
      ("backpressure_stalls", float_of_int t.c.backpressure_stalls);
    ]
end
