(* The coalescing SkipQueue (DESIGN.md §S21): the paper's locked skiplist
   with duplicate-key coalescing nodes, after the polymlb exemplars of the
   source paper (SNIPPETS.md 1-2).

   Two changes against {!Skipqueue}:

   - A node holds a bounded multiset of same-key elements: a value slab
     (one shared cell holding the element list, newest first, append-only)
     plus the born/claimed ticket accounting.  Duplicate bursts *shorten*
     the bottom level instead of lengthening it.

   - The per-level lock array and the whole-node lock collapse into one
     packed word ({!Co_lockword}): low [max_level] bits are the level
     locks, the next bit the full-node insert/delete lock, the high bits
     the two element tickets.  Every acquisition is a CAS retry loop on
     that single cell and every release one fetch-and-add of the negated
     bit, so all of a node's lock traffic charges one memory line in the
     simulator's flat model — the property the duplicate-heavy figure
     measures against the lock-array layout.

   Lock protocol: identical in shape to Fig. 9-11 — getLock walks with
   revalidation at each level, insert links bottom-up while holding the
   new node's full bit (the node-lock role), physical removal unlinks
   top-down holding predecessor-then-victim level bits and redirecting the
   victim's pointers backwards.  The deadlock-freedom argument of the
   original carries over unchanged: the full bit is only ever held while
   acquiring level bits of *other* nodes in the same
   predecessor-before-victim order, and level bits of one word are
   independent (a CAS that loses to a neighbouring bit's change just
   retries).

   Coalescing protocol: insert first walks the run of equal-key nodes at
   the bottom level and tries to join the first live one (count > 0) under
   its full bit, admitting the element as a distinct instance up to
   [capacity].  A full, busy or logically deleted (count = 0) node refuses
   the join; only then does the insert link a fresh node *after* every
   equal-key node (getLock with <= instead of <).

   The delete path never takes a lock.  The word's high bits are two
   monotone tickets (born | claimed — {!Co_lockword}); a claim is ONE
   lock-free CAS advancing [claimed], and the pre-claim ticket names the
   claimed element's position, oldest first, in the node's append-only
   slab.  The slab only ever grows, and always BEFORE the admitting
   join's ticket CAS commits, so a won claim ticket k always finds
   element k in the slab it then reads — joins prepend (newest first),
   which leaves oldest-first positions stable.  Hunters step over dead
   nodes (claimed = born) with one word read; they no longer queue on the
   full bit of a node whose remover is mid-unlink, which is what makes
   the claim path cheaper than the lock-array queue's per-node SWAP hunt
   plus full unlink.  The claim that exhausts the node (claimed reaches
   born; final — joins refuse dead nodes, and a mid-join admission aborts
   and unwinds when it finds the node died under its full bit) publishes
   the death through the original SWAP-marking of the [deleted] flag and
   unlinks it.  No node is ever reused, so a hunter's lock-free slab read
   after its claim needs no epoch: the GC keeps every node it can still
   reach alive and unchanged (§S21).  Joins never touch the node's
   completion stamp: the stamp orders *nodes*, and an element joined
   into an old node only becomes claimable earlier than a fresh node
   would — same key, so no smaller settled element is ever skipped and
   Definition-1 strictness is preserved (§S21 discusses why the checkers
   cannot tell coalescing from the flat layout). *)

module Make (R : Repro_runtime.Runtime_intf.S) = struct
  module W = Co_lockword

  type mode = Strict | Relaxed

  type bound = Bound.t = Bottom | Key of int | Top

  let bound_compare = Bound.compare

  type 'v node = {
    key : bound R.shared;
    slab : 'v list R.shared; (* newest first, append-only; length = born *)
    level : int;
    next : 'v node R.shared array; (* length = level; tail has none *)
    word : int R.shared; (* {!Co_lockword}: [born | claimed | full | levels] *)
    sentinel_locks : R.lock array;
        (* Empty on element nodes (their level locks are the word's low
           bits).  The HEAD keeps the base queue's per-level fair locks:
           it is the predecessor of every front node at most levels, so
           folding its level locks into one word would funnel every
           front link/unlink through a single memory line — measurably
           the hottest line of the whole structure.  Spreading the one
           node that never coalesces costs nothing the paper's layout
           didn't already pay. *)
    deleted : bool R.shared; (* the SWAP target, set once at count = 0 *)
    stamp : int R.shared; (* completion timestamp; max_int while in flight *)
  }

  (* Per-processor level stream and [find_preds] scratch, as in the base
     queue. *)
  type 'v proc = { rng : Repro_util.Rng.t; preds : 'v node array }

  type 'v t = {
    head : 'v node;
    tail : 'v node;
    max_level : int;
    layout : W.layout;
    capacity : int;
    p : float;
    mode : mode;
    procs : 'v proc Repro_runtime.Per_proc.t;
    mutable hunt_steps : int;
    mutable swap_losses : int;
    mutable stale_skips : int;
    mutable hunt_passes : int;
    mutable coalesced_inserts : int;
    mutable node_splits : int;
  }

  (* Simulated line ids follow registration order, so the explicit lets
     pin the order of a node's shared locations against record-field
     evaluation order. *)
  let make_node ?(deleted = false) ~layout ~key ~slab ~born ~full ~level () =
    let key = R.shared key in
    let slab = R.shared slab in
    let word =
      R.shared ~name:"co.word"
        (W.encode layout { W.born; claimed = 0; full; levels = [] })
    in
    let deleted = R.shared deleted in
    let stamp = R.shared max_int in
    {
      key;
      slab;
      level;
      next = [||];
      word;
      sentinel_locks = [||];
      deleted;
      stamp;
    }

  let create ?(mode = Strict) ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL)
      ?(capacity = 4) () =
    if p <= 0.0 || p >= 1.0 then
      invalid_arg "Skipqueue_co.create: p outside (0, 1)";
    if max_level < 1 then invalid_arg "Skipqueue_co.create: max_level < 1";
    let layout = W.make ~max_level in
    if capacity < 1 || capacity > W.count_capacity layout then
      invalid_arg
        (Printf.sprintf "Skipqueue_co.create: capacity outside [1, %d]"
           (W.count_capacity layout));
    let tail =
      make_node ~deleted:true ~layout ~key:Top ~slab:[] ~born:0 ~full:false
        ~level:0 ()
    in
    let head =
      make_node ~deleted:true ~layout ~key:Bottom ~slab:[] ~born:0
        ~full:false ~level:max_level ()
    in
    let head =
      {
        head with
        next = Array.init max_level (fun _ -> R.shared tail);
        sentinel_locks =
          Array.init max_level (fun _ -> R.lock_create ~name:"sq-co-head" ());
      }
    in
    {
      head;
      tail;
      max_level;
      layout;
      capacity;
      p;
      mode;
      procs =
        Repro_runtime.Per_proc.create (fun id ->
            {
              rng =
                Repro_util.Rng.of_seed
                  (Int64.add seed
                     (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (id + 1))));
              preds = Array.make max_level head;
            });
      hunt_steps = 0;
      swap_losses = 0;
      stale_skips = 0;
      hunt_passes = 0;
      coalesced_inserts = 0;
      node_splits = 0;
    }

  let stats t =
    [
      ("hunt_steps", float_of_int t.hunt_steps);
      ("swap_losses", float_of_int t.swap_losses);
      ("stale_skips", float_of_int t.stale_skips);
      ("hunt_passes", float_of_int t.hunt_passes);
      ("coalesced_inserts", float_of_int t.coalesced_inserts);
      ("node_splits", float_of_int t.node_splits);
    ]

  let proc t = Repro_runtime.Per_proc.get t.procs (R.self ())

  let random_level t =
    Repro_util.Rng.geometric_level (proc t).rng ~p:t.p ~max_level:t.max_level

  let read_key node = R.read node.key
  let read_next node i = R.read node.next.(i - 1)
  let write_next node i v = R.write node.next.(i - 1) v

  (* ---- packed-word locking ----------------------------------------------

     TTAS CAS-spin on the single word.  Safe on the simulator: every read
     and CAS is a charged effect, so a spinning processor advances
     simulated time and the holder gets scheduled.  A CAS lost to a
     *neighbouring* field's change (another level's bit, the count) just
     retries — that cross-field interference is the single-line cost the
     layout deliberately accepts. *)

  let rec acquire_level_packed t node i =
    let w = R.read node.word in
    if W.level_locked t.layout w i then acquire_level_packed t node i
    else if not (R.cas node.word w (W.lock_level t.layout w i)) then
      acquire_level_packed t node i

  let acquire_level t node i =
    if Array.length node.sentinel_locks > 0 then
      R.acquire node.sentinel_locks.(i - 1)
    else acquire_level_packed t node i

  (* A release is one blind fetch-and-add: only the holder clears its
     bit, and acquirers only CAS from a clear bit, so subtracting the set
     bit cannot borrow and leaves every other field as it stands — the
     transition a successful CAS would make.  The old word still goes
     through the discipline check, so a double release raises. *)
  let release_level_packed t node i =
    let w = R.fetch_and_add node.word (-W.level_bit t.layout i) in
    ignore (W.unlock_level t.layout w i)

  let release_level t node i =
    if Array.length node.sentinel_locks > 0 then
      R.release node.sentinel_locks.(i - 1)
    else release_level_packed t node i

  let rec acquire_full t node =
    let w = R.read node.word in
    if W.full_locked t.layout w then acquire_full t node
    else if not (R.cas node.word w (W.lock_full t.layout w)) then
      acquire_full t node

  (* One-shot acquire for callers with a fallback: a single observation
     and at most one CAS, so a busy or contended word costs two accesses
     instead of a spin on what is typically the structure's hottest
     line. *)
  let try_acquire_full t node =
    let w = R.read node.word in
    (not (W.full_locked t.layout w))
    && R.cas node.word w (W.lock_full t.layout w)

  (* Release the full bit, leaving the tickets alone: one fetch-and-add,
     as [release_level_packed]. *)
  let release_full t node =
    let w = R.fetch_and_add node.word (-W.full_bit t.layout) in
    ignore (W.unlock_full t.layout w)

  (* Release the full bit and admit one element in the same CAS: a join's
     admission and its lock release are one atomic word transition.  The
     claim path is lock-free, so the node can die (claimed catches born)
     even while we hold the full bit; death is final, so the loop refuses
     with [false] — WITHOUT releasing the bit, because the caller must
     unwind its slab append before any other join can see the slab. *)
  let rec release_full_admitting t node =
    let w = R.read node.word in
    if W.count t.layout w = 0 then false
    else
      let w' = W.unlock_full t.layout (W.admit t.layout w) in
      R.cas node.word w w' || release_full_admitting t node

  (* Born holding its own full bit: the linking insert releases it once
     every level is spliced (the node-lock role of Fig. 10). *)
  let alloc_node t ~key ~slab ~level =
    let n = make_node ~layout:t.layout ~key ~slab ~born:1 ~full:true ~level () in
    { n with next = Array.init level (fun _ -> R.shared t.tail) }

  (* Fig. 9's getLock on the packed word: lock the level-[i] pointer of
     the rightmost node whose key is below [bkey], revalidating after
     acquisition.  [le] widens "below" to <=, which is what links a fresh
     duplicate *after* every equal-key node. *)
  let get_lock t bkey node1 i ~le =
    let below k =
      let c = bound_compare k bkey in
      if le then c <= 0 else c < 0
    in
    let node1 = ref node1 in
    let node2 = ref (read_next !node1 i) in
    while below (read_key !node2) do
      node1 := !node2;
      node2 := read_next !node1 i
    done;
    acquire_level t !node1 i;
    node2 := read_next !node1 i;
    while below (read_key !node2) do
      release_level t !node1 i;
      node1 := !node2;
      acquire_level t !node1 i;
      node2 := read_next !node1 i
    done;
    !node1

  (* Physical removal's predecessor lock must identify the predecessor of
     one *specific* node: with duplicate keys a key-bounded getLock can
     stop one equal-key node short (or late).  Identity walk with the same
     acquire-revalidate shape; the victim stays linked at this level until
     its (unique) remover unlinks it, so the walk terminates.

     Each step MUST reuse the one successor value it tested: re-reading
     the pointer between the test and the step opens a window in which a
     concurrent removal redirects it to the victim itself — the walk then
     stands on the victim, steps through its forward pointer, and runs
     past it to the tail.  With the single read, every node the walk
     stands on was observed strictly before the victim, whose level-[i]
     linkage only its (unique) remover can change. *)
  let get_pred_lock t node2 start i =
    let node1 = ref start in
    let rec walk () =
      let next = read_next !node1 i in
      if next != node2 then begin
        node1 := next;
        walk ()
      end
    in
    walk ();
    acquire_level t !node1 i;
    let rec revalidate () =
      let next = read_next !node1 i in
      if next != node2 then begin
        release_level t !node1 i;
        node1 := next;
        acquire_level t !node1 i;
        revalidate ()
      end
    in
    revalidate ();
    !node1

  let find_preds t bkey =
    let saved = (proc t).preds in
    let node1 = ref t.head in
    for i = t.max_level downto 1 do
      let node2 = ref (read_next !node1 i) in
      while bound_compare (read_key !node2) bkey < 0 do
        node1 := !node2;
        node2 := read_next !node1 i
      done;
      saved.(i - 1) <- !node1
    done;
    saved

  (* Fig. 11 lines 15-37 on the packed word: the victim's full bit plays
     the node-lock role.  The walk to the victim and the per-level
     predecessor locks go by identity (see [get_pred_lock]). *)
  let physically_remove t node2 bkey =
    let saved = find_preds t bkey in
    let walker = ref saved.(0) in
    while !walker != node2 do
      walker := read_next !walker 1
    done;
    acquire_full t node2;
    for i = node2.level downto 1 do
      let node1 = get_pred_lock t node2 saved.(i - 1) i in
      acquire_level t node2 i;
      write_next node1 i (read_next node2 i);
      write_next node2 i node1;
      release_level t node2 i;
      release_level t node1 i
    done;
    release_full t node2

  (* The join pass: walk the bottom-level run of equal-key nodes and try
     to coalesce into the first live admissible one.  No node is reused,
     so the key read before the full-bit acquisition stays valid.  Death
     (claimed = born) is final — joining would revive a node whose
     exhausting claimant already serialized its emptiness — so a dead node
     just refuses and the walk continues; because tickets are monotone, so
     does a node whose born ticket reached [capacity], even if claims have
     since drained part of it.  A join appends its value to the slab FIRST
     and only then commits the admit in the full-bit release CAS
     ([release_full_admitting]); claims are lock-free, so the node can die
     under our held full bit, in which case the commit refuses and the
     join unwinds the append and walks on.  Returns [`Link saw_full] when a
     fresh node is needed; [saw_full] records whether a live node whose
     tickets ran out (or whose full bit was busy) forced the split (the
     [node_splits] counter). *)
  let rec try_join t bkey value node ~saw_full =
    match bound_compare (read_key node) bkey with
    | c when c > 0 -> `Link saw_full
    | c when c < 0 ->
      (* Concurrent motion: a backward pointer of a removed node, or a
         smaller-key node linked since our search.  Walk on. *)
      try_join t bkey value (read_next node 1) ~saw_full
    | _ ->
      let peek = R.read node.word in
      if W.count t.layout peek = 0 then
        (* Dead (or mid-removal): refuse with ONE read, without touching
           the full bit — its remover may be holding the bit across the
           whole unlink, and queueing behind it would stall both. *)
        try_join t bkey value (read_next node 1) ~saw_full
      else if W.born t.layout peek >= t.capacity then
        (* Monotone tickets: born at capacity can never admit again, so
           no need to take the lock to confirm. *)
        try_join t bkey value (read_next node 1) ~saw_full:true
      else if not (try_acquire_full t node) then
        (* Joining is an optimization, not an obligation: a busy full bit
           means another join (or this node's unlinking remover) already
           owns the hottest line in the neighbourhood, and walking on to
           link fresh is cheaper than spinning there. *)
        try_join t bkey value (read_next node 1) ~saw_full:true
      else begin
        let w = R.read node.word in
        if W.count t.layout w = 0 then begin
          release_full t node;
          try_join t bkey value (read_next node 1) ~saw_full
        end
        else if W.born t.layout w >= t.capacity then begin
          release_full t node;
          try_join t bkey value (read_next node 1) ~saw_full:true
        end
        else begin
          let old_slab = R.read node.slab in
          R.write node.slab (value :: old_slab);
          if release_full_admitting t node then begin
            t.coalesced_inserts <- t.coalesced_inserts + 1;
            `Joined
          end
          else begin
            R.write node.slab old_slab;
            release_full t node;
            try_join t bkey value (read_next node 1) ~saw_full
          end
        end
      end

  let insert t key value =
    let bkey = Key key in
    let saved = find_preds t bkey in
    match try_join t bkey value (read_next saved.(0) 1) ~saw_full:false with
    | `Joined -> `Inserted
    | `Link saw_full ->
      if saw_full then t.node_splits <- t.node_splits + 1;
      let level = random_level t in
      let new_node = alloc_node t ~key:bkey ~slab:[ value ] ~level in
      (* Born holding its own full bit (node-lock role); link bottom-up
         after all equal keys, then open for joins and claims. *)
      let node1 = ref (get_lock t bkey saved.(0) 1 ~le:true) in
      for i = 1 to level do
        if i <> 1 then node1 := get_lock t bkey saved.(i - 1) i ~le:true;
        write_next new_node i (read_next !node1 i);
        write_next !node1 i new_node;
        release_level t !node1 i
      done;
      release_full t new_node;
      (match t.mode with
      | Strict -> R.write new_node.stamp (R.get_time ())
      | Relaxed -> ());
      `Inserted

  (* The hunt, generalized twice: up to [want] *elements* (not nodes), and
     a claim is ONE lock-free CAS advancing the claimed ticket — possibly
     by several from one node, which is how a combiner's whole batch can
     be served by a single coalesced node.  The pre-claim ticket names the
     won elements' oldest-first slab positions (stable from the end of the
     newest-first append-only slab), so the winner reads the slab AFTER
     the CAS with no lock and no slab write.  Dead nodes (claimed = born)
     cost their word read plus [next] to step over; a lost CAS moves on
     within the node's equal-key run (some other claim or join committed,
     so the system made progress).  Only the claim that exhausts the node
     marks it (through the original SWAP, asserting sole ownership) and
     schedules physical removal.  Elements pop oldest-first, so within one
     key delivery is FIFO. *)
  (* Slab position helpers: [list_drop]/[list_take] index the bounded slab
     (length <= capacity, so the O(n) walk is cheap and lock-free). *)
  let rec list_drop n l =
    if n = 0 then l
    else match l with _ :: tl -> list_drop (n - 1) tl | [] -> assert false

  let rec list_take n l =
    if n = 0 then []
    else match l with v :: tl -> v :: list_take (n - 1) tl | [] -> assert false

  let hunt t ~want =
    t.hunt_passes <- t.hunt_passes + 1;
    let time =
      match t.mode with Strict -> R.get_time () | Relaxed -> max_int
    in
    let claims = ref [] in
    let dead = ref [] in
    let got = ref 0 in
    let node = ref (read_next t.head 1) in
    (* Equal-key run spreading: a lost claim CAS does NOT pin us to the
       node (the plain queue's lost SWAP moves on because the node is
       then taken; here the node may hold more live elements).  Every
       node of the same key is equally minimal, so a loser advances
       within the run — spreading the hunters racing for a hot key over
       the run's words instead of convoying on one line — and only
       loops back once the run ends claimless.  It loops back to the
       node of its first loss, [lost_at]: every node of the run before
       it was dead (final) or too young for this hunt when passed.

       Keys are read lazily: the walk stops at the tail by identity, a
       claim reads the key it returns, and only a hunter tracking a run
       (from its first loss on) reads each successor's key to see where
       the run ends.  Keys are stable (no node is reused), so the run's
       key is read once, at the first loss, and reused.  [lost_at] is the
       tail while the hunter tracks no run (the walk never stands on the
       tail), so a loss allocates nothing. *)
    let lost_at = ref t.tail and run_key = ref Top in
    let continue = ref (want > 0) in
    let advance () =
      let next = read_next !node 1 in
      if !lost_at == t.tail then node := next
      else if next != t.tail && bound_compare (read_key next) !run_key = 0 then
        node := next
      else begin
        (* The run ended and a claim we lost may have left live elements
           behind us: those are still the minimum, so go around again. *)
        node := !lost_at;
        lost_at := t.tail
      end
    in
    while !continue do
      if !node == t.tail then continue := false
      else begin
        (* Deadness first, with ONE word read — before the stamp: most
           steps under contention land on not-yet-unlinked dead nodes,
           and they should cost neither a stamp-line read nor a CAS. *)
        let try_claim w =
          let c = W.count t.layout w in
          if c = 0 then `Dead
          else if
            match t.mode with
            | Relaxed -> false
            | Strict -> R.read !node.stamp >= time
          then `Stale
          else begin
            t.hunt_steps <- t.hunt_steps + 1;
            let take = Int.min c (want - !got) in
            let w' = W.claim_n t.layout w take in
            if R.cas !node.word w w' then
              `Claimed (take, W.claimed t.layout w, W.born t.layout w)
            else `Lost
          end
        in
        match try_claim (R.read !node.word) with
        | `Dead ->
          (* Logically deleted (or the head reached through a backward
             pointer): the claim is lost, as the SWAP loss was — at the
             cost of one word read, no CAS. *)
          t.swap_losses <- t.swap_losses + 1;
          advance ()
        | `Stale ->
          t.stale_skips <- t.stale_skips + 1;
          advance ()
        | `Lost ->
          (* Another claim or join committed on this word — global
             progress.  Spread: try the run's next node before coming
             back to this line.  The few local cycles of per-processor
             stagger break the lockstep the loss itself witnesses:
             claimants that arrived in phase (the workload's uniform
             think time keeps them in phase) would otherwise convoy on
             the same word's line queue indefinitely. *)
          t.swap_losses <- t.swap_losses + 1;
          if !lost_at == t.tail then begin
            lost_at := !node;
            run_key := read_key !node
          end;
          R.work ((R.self () * 7) land 63);
          advance ()
        | `Claimed (take, claimed_at, born) ->
          let bk = if !lost_at == t.tail then read_key !node else !run_key in
          let k = match bk with Key k -> k | Bottom | Top -> assert false in
          (* Our elements are oldest-first positions claimed_at + 1
             .. claimed_at + take, i.e. stable positions from the END of
             the newest-first slab.  The slab may transiently carry an
             uncommitted join's element at the front; it sits past the
             born ticket we claimed against and never shifts ours. *)
          let slab = R.read !node.slab in
          let len = List.length slab in
          let ours_newest_first =
            list_take take (list_drop (len - claimed_at - take) slab)
          in
          List.iter
            (fun v -> claims := (k, v) :: !claims)
            (List.rev ours_newest_first);
          got := !got + take;
          if claimed_at + take = born then begin
            (* Our CAS moved claimed onto born: death, which is final
               (joins refuse dead nodes; a join holding the full bit
               right now will detect this and unwind).  Sole ownership
               of the transition, asserted through the original SWAP. *)
            let marked = R.swap !node.deleted true in
            assert (not marked);
            dead := (!node, bk) :: !dead
          end;
          if !got >= want then continue := false else advance ()
      end
    done;
    (List.rev !claims, List.rev !dead)

  type 'v batch = {
    bclaims : (int * 'v) list;
    bdead : ('v node * bound) list;
  }

  let hunt_batch t ~want =
    let claims, dead = hunt t ~want in
    { bclaims = claims; bdead = dead }

  let batch_claims b = b.bclaims
  let finish_batch t b = List.iter (fun (n, bk) -> physically_remove t n bk) b.bdead

  let first_bound t =
    match read_key (read_next t.head 1) with
    | Top -> `Empty
    | Key k -> `Min_at_most k
    | Bottom -> assert false (* head is the only Bottom node *)

  let delete_min t =
    let claims, dead = hunt t ~want:1 in
    List.iter (fun (n, bk) -> physically_remove t n bk) dead;
    match claims with [] -> None | kv :: _ -> Some kv

  (* Quiescent views: a live node contributes its unclaimed elements,
     oldest first (matching delivery order).  The slab is append-only and
     holds every element ever admitted; the live ones are the newest
     [born - claimed]. *)
  let fold_live t f acc =
    let rec go acc node =
      match read_key node with
      | Top -> acc
      | Bottom -> go acc (read_next node 1)
      | Key k ->
        let acc =
          let w = R.read node.word in
          let c = W.count t.layout w in
          if c = 0 then acc
          else
            List.fold_left (fun acc v -> f acc k v) acc
              (List.rev (list_take c (R.read node.slab)))
        in
        go acc (read_next node 1)
    in
    go acc t.head

  let size t = fold_live t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_live t (fun acc k v -> (k, v) :: acc) [])

  let check_invariants t =
    let ( let* ) = Result.bind in
    (* Bottom level: non-decreasing keys (equal keys are legal residue of
       splits), every reachable node live, word quiescent (no lock bits),
       slab length equal to the born ticket, born within capacity. *)
    let rec check_bottom prev node =
      match read_key node with
      | Top -> Ok ()
      | key ->
        let* () =
          if bound_compare prev key <= 0 then Ok ()
          else Error "bottom level keys decreasing"
        in
        let w = R.read node.word in
        let decoded = W.decode t.layout w in
        let* () =
          if decoded.W.full || decoded.W.levels <> [] then
            Error "lock bits held at quiescence"
          else Ok ()
        in
        let* () =
          match key with
          | Key _ ->
            if decoded.W.born = decoded.W.claimed then
              Error "empty (logically deleted) node still linked"
            else if decoded.W.born > t.capacity then
              Error "born ticket above capacity"
            else if List.length (R.read node.slab) <> decoded.W.born then
              Error "slab length disagrees with the born ticket"
            else if R.read node.deleted then
              Error "marked node still reachable at quiescence"
            else Ok ()
          | Bottom | Top -> Ok ()
        in
        check_bottom key (read_next node 1)
    in
    let* () = check_bottom Bottom (read_next t.head 1) in
    (* Upper levels: every linked node must be tall enough, appear in the
       bottom list (by identity — keys cannot distinguish duplicates), and
       keys must be non-decreasing.  Unlike the unique-key queue we do not
       demand that level i be an exact subsequence of level i-1: two
       concurrent inserts of the same key may splice their nodes into an
       equal-key run in different relative orders at different levels,
       which no search can observe (searches stop strictly before, or
       strictly after, a whole run). *)
    let bottom_nodes =
      let rec go acc node =
        if node == t.tail then acc else go (node :: acc) (read_next node 1)
      in
      go [] (read_next t.head 1)
    in
    let rec check_level i prev node =
      if node == t.tail then Ok ()
      else if node.level < i then
        Error (Printf.sprintf "level %d links through a height-%d node" i node.level)
      else if not (List.memq node bottom_nodes) then
        Error (Printf.sprintf "level %d node missing from the bottom level" i)
      else
        let key = read_key node in
        let* () =
          if bound_compare prev key <= 0 then Ok ()
          else Error (Printf.sprintf "level %d keys decreasing" i)
        in
        check_level i key (read_next node i)
    in
    let rec check_levels i =
      if i > t.max_level then Ok ()
      else
        let* () = check_level i Bottom (read_next t.head i) in
        check_levels (i + 1)
    in
    check_levels 2
end
