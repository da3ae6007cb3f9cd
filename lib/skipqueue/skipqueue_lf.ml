(* Lock-free SkipQueue in the Sundell–Tsigas / Lindén–Jonsson style.
   Insert CAS-links bottom-up; Delete-min claims the first live node with
   one CAS mark (its linearization point).  No operation ever takes a
   lock on the hot path — the only lock in the structure is the
   restructurer's try-lock, which is never waited on.

   The classical algorithms steal the low tag bit of the successor pointer
   to make (successor, deleted?) one atomic word.  OCaml cannot tag
   pointers, so each next cell holds an immutable {!link} record instead:
   CAS by physical equality over a fresh record per state transition gives
   exactly the packed word's atomicity — the mark and the successor change
   together or not at all, and a stale expected record can never match.

   Logical deletion: Delete-min claims the first unmarked node by CASing
   its own bottom link from {succ; marked = false} to {succ; marked =
   true}; the successful CAS is the linearization point.  Marked nodes
   stay physically linked until {!try_restructure} unlinks the maximal
   marked prefix with one CAS on the head's bottom link and retires the
   nodes through the epoch reclamation + node pool of S17, so a traverser
   that entered before the unlink can still walk them safely.  Only that
   head-adjacent run can be collected, and an insert that links in front
   of it buries it for good; so both walks that start from the head
   restructure once they have stepped over [restructure_threshold] of it
   — the claim on its way to a victim, and the insert about to link at
   the head (see {!insert}).

   The structural invariant is deliberately weaker than the locked
   SkipQueue's: only LIVE nodes are kept in key order along the bottom
   level.  A marked node is a tombstone — its key no longer participates
   in the ordering, every traversal steps over it no matter what it says,
   and an insert may legitimately place a smaller live key in front of a
   larger dead one (that is what inserting "at the list head" next to the
   uncollected prefix means).  Trying to keep tombstones sorted too would
   force inserts to link after marked predecessors, which races the
   prefix unlink (lost elements) or livelocks behind interior tombstone
   runs that only future delete-mins can clear.

   Physical-deletion safety rests on a chain-forward edge discipline:
   every next pointer ever written points from a node to one that sat
   later in the bottom chain when the edge was created.  Consequently all
   in-edges of a collected prefix come from the head (purged before
   retirement) or from prefix members retired in the same batch, so a
   traversal entering after the unlink can never reach a retired node,
   and the epoch guard covers every traversal that entered before it.
   Upper-level links preserve the discipline by refusing a successor that
   is already marked (such a tombstone may sit bottom-earlier than the
   new node; the tower is simply truncated at that level). *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  module Reclaim = Reclamation.Make (R)

  module B = Bound.Make (K)

  type bound = B.t = Bottom | Key of K.t | Top

  let bound_compare = B.compare

  (* The marked reference.  Never mutated: every state change writes a
     fresh record, so a CAS whose expected record was superseded — by a
     competing insert *or* by the deletion mark — reliably fails. *)
  type 'v link = { succ : 'v node; marked : bool }

  and 'v node = {
    key : bound R.shared;
    value : 'v option R.shared; (* None only in sentinels *)
    level : int;
    next : 'v link R.shared array; (* length = level; index 0 carries the mark *)
    mutable poisoned : bool; (* set by the reclamation finalizer *)
  }

  type stats = {
    cas_failures : int; (* claim/link CAS attempts lost to a race *)
    marked_hops : int; (* bottom-level tombstones stepped over, all walks *)
    insert_marked_hops : int; (* ... of which by insert searches *)
    restructures : int; (* batched prefix unlinks performed *)
    restructure_skips : int; (* restructures ceded to the current holder *)
    unlinked : int; (* nodes physically removed by restructures *)
  }

  (* Per-processor level stream and search scratch: the predecessor at
     every level plus the exact link record read from it (the CAS expected
     value), like the locked SkipQueue's. *)
  type 'v proc = { rng : Repro_util.Rng.t; preds : 'v node array; plinks : 'v link array }

  type 'v t = {
    head : 'v node;
    tail : 'v node;
    max_level : int;
    p : float;
    reclaim : Reclaim.t;
    broken_premature_free : bool; (* mutant: free at unlink, no quiescence wait *)
    restructure_threshold : int; (* tombstones a head walk hops before restructuring *)
    collect_every : int; (* reclamation pass every N restructures *)
    restructure_lock : R.lock;
    procs : 'v proc Repro_runtime.Per_proc.t;
    pool : 'v node Node_pool.t;
    highwater : int Atomic.t;
    (* Largest processor id seen by [enter].  A host atomic, bumped
       monotonically: a plain field could lose a racing update under
       native domains and [collect ~upto] would then skip the slot of a
       processor still inside the epoch — an unsafe free. *)
    mutable since_collect : int;
    mutable cas_failures : int;
    mutable marked_hops : int;
    mutable insert_marked_hops : int;
    mutable restructures : int;
    mutable restructure_skips : int;
    mutable unlinked : int;
  }

  (* Registration order (key, value, next.(0..level-1)) is fixed by
     explicit lets so the pooled-reuse path in [alloc_node] can re-register
     the same cells in the same order: a recycled node then draws the same
     fresh line ids a newly allocated one would, and pooling stays
     invisible to the simulation (S17). *)
  let make_node ~key ~value ~level ~link () =
    let key = R.shared key in
    let value = R.shared value in
    let next = Array.init level (fun _ -> R.shared (link ())) in
    { key; value; level; next; poisoned = false }

  let create ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL) ?(restructure_threshold = 16)
      ?(collect_every = 4) ?(broken_premature_free = false) () =
    if p <= 0.0 || p >= 1.0 then invalid_arg "Skipqueue_lf.create: p outside (0, 1)";
    if max_level < 1 then invalid_arg "Skipqueue_lf.create: max_level < 1";
    if restructure_threshold < 1 then
      invalid_arg "Skipqueue_lf.create: restructure_threshold < 1";
    if collect_every < 1 then invalid_arg "Skipqueue_lf.create: collect_every < 1";
    let tail =
      { key = R.shared Top; value = R.shared None; level = 0; next = [||]; poisoned = false }
    in
    let head =
      make_node ~key:Bottom ~value:None ~level:max_level
        ~link:(fun () -> { succ = tail; marked = false })
        ()
    in
    {
      head;
      tail;
      max_level;
      p;
      reclaim = Reclaim.create ();
      broken_premature_free;
      restructure_threshold;
      collect_every;
      restructure_lock = R.lock_create ~name:"sq-lf-restructure" ();
      procs =
        Repro_runtime.Per_proc.create (fun id ->
            {
              rng =
                Repro_util.Rng.of_seed
                  (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (id + 1))));
              preds = Array.make max_level head;
              plinks = Array.make max_level { succ = tail; marked = false };
            });
      pool = Node_pool.create ~max_level;
      highwater = Atomic.make 0;
      since_collect = 0;
      cas_failures = 0;
      marked_hops = 0;
      insert_marked_hops = 0;
      restructures = 0;
      restructure_skips = 0;
      unlinked = 0;
    }

  let stats t =
    {
      cas_failures = t.cas_failures;
      marked_hops = t.marked_hops;
      insert_marked_hops = t.insert_marked_hops;
      restructures = t.restructures;
      restructure_skips = t.restructure_skips;
      unlinked = t.unlinked;
    }

  type pool_stats = Node_pool.stats = { returned : int; recycled : int; pooled : int }

  let pool_stats t = Node_pool.stats t.pool

  let reclaim_stats t = Reclaim.stats t.reclaim

  (* --- epoch guard -------------------------------------------------------- *)

  let enter t =
    let p = R.self () in
    let rec bump () =
      let cur = Atomic.get t.highwater in
      if p > cur && not (Atomic.compare_and_set t.highwater cur p) then bump ()
    in
    bump ();
    Reclaim.enter t.reclaim

  let exit t = Reclaim.exit t.reclaim

  (* --- per-processor state ------------------------------------------------- *)

  let proc t = Repro_runtime.Per_proc.get t.procs (R.self ())

  let random_level t =
    Repro_util.Rng.geometric_level (proc t).rng ~p:t.p ~max_level:t.max_level

  (* --- node pool ----------------------------------------------------------- *)

  (* Runs only once no traverser that could still reach the node remains
     inside the structure (reclamation's guarantee — unless
     [broken_premature_free], the checker-validation mutant, which runs it
     right at unlink time and additionally clobbers the node the way a
     real [free] would, so any use-after-free READ returns garbage instead
     of stale-but-consistent data). *)
  let free_now t node =
    if node.poisoned then failwith "Lockfree_skiplist: node freed twice";
    if t.broken_premature_free then begin
      R.write node.key Top;
      R.write node.value None;
      for i = 0 to node.level - 1 do
        R.write node.next.(i) { succ = t.tail; marked = false }
      done
    end;
    node.poisoned <- true;
    Node_pool.put t.pool ~level:node.level node

  let retire t node =
    if t.broken_premature_free then free_now t node
    else Reclaim.retire t.reclaim (fun () -> free_now t node)

  (* Same fresh-line-id discipline as the locked SkipQueue's [alloc_node]:
     a pooled node re-registers (key, value, next cells) in exactly
     [make_node]'s registration order. *)
  let alloc_node t ~key ~value ~level =
    match Node_pool.take t.pool ~level with
    | Some n ->
      if not n.poisoned then failwith "Lockfree_skiplist: pooled node not poisoned";
      R.refresh n.key key;
      R.refresh n.value value;
      for i = 0 to level - 1 do
        R.refresh n.next.(i) { succ = t.tail; marked = false }
      done;
      n.poisoned <- false;
      n
    | None ->
      make_node ~key ~value ~level ~link:(fun () -> { succ = t.tail; marked = false }) ()

  (* --- search -------------------------------------------------------------- *)

  let node_key node = R.read node.key
  let is_deleted node = node.level > 0 && (R.read node.next.(0)).marked

  (* Top-down search: at every level, the LAST LIVE node visited whose key
     is < [bkey], together with the link record read from it — the CAS
     expected value for linking right after it.

     Tombstones are traversed no matter what their keys say: a marked
     node's key is dead, and stopping at (or committing) one would either
     leave the predecessor unusable for linking or park the walk behind a
     tombstone run that only future delete-mins can clear.  Committing
     only live nodes also means an insert's predecessor was live when its
     record was read — if it is claimed before the insert's CAS, the CAS
     fails by record inequality and the insert retries.  At the bottom
     level the walked link doubles as the liveness bit, so the walk costs
     one shared read per hop; upper levels pay one extra read per hop for
     the candidate's bottom link.  Also returns how many tombstones the
     bottom-level walk stepped over. *)
  let find_preds t bkey =
    let { preds; plinks; _ } = proc t in
    let pred = ref t.head in
    for i = t.max_level downto 2 do
      let clink = ref (R.read !pred.next.(i - 1)) in
      let cpred = ref !pred and cplink = ref !clink in
      let continue = ref true in
      while !continue do
        let cand = !clink.succ in
        if cand == t.tail then continue := false
        else begin
          let cand_dead = is_deleted cand in
          if cand_dead || bound_compare (node_key cand) bkey < 0 then begin
            let cand_link = R.read cand.next.(i - 1) in
            clink := cand_link;
            if not cand_dead then begin
              cpred := cand;
              cplink := cand_link
            end
          end
          else continue := false
        end
      done;
      preds.(i - 1) <- !cpred;
      plinks.(i - 1) <- !cplink;
      pred := !cpred
    done;
    let clink = ref (R.read !pred.next.(0)) in
    let cpred = ref !pred and cplink = ref !clink in
    let hops = ref 0 in
    let continue = ref true in
    while !continue do
      let cand = !clink.succ in
      if cand == t.tail then continue := false
      else begin
        let cand_link = R.read cand.next.(0) in
        if cand_link.marked || bound_compare (node_key cand) bkey < 0 then begin
          clink := cand_link;
          if cand_link.marked then incr hops
          else begin
            cpred := cand;
            cplink := cand_link
          end
        end
        else continue := false
      end
    done;
    preds.(0) <- !cpred;
    plinks.(0) <- !cplink;
    t.marked_hops <- t.marked_hops + !hops;
    t.insert_marked_hops <- t.insert_marked_hops + !hops;
    (preds, plinks, !hops)

  (* --- restructure: batched physical deletion ------------------------------ *)

  (* Move the head's level-[i] pointer past logically deleted nodes until
     its first target is live (or the tail).  Loops because a claim can
     mark the fresh target, and an insert can relink the head concurrently;
     every retry either advances the head or follows someone else's
     progress, so it terminates in any finite execution. *)
  let rec advance_level t i =
    let hlink = R.read t.head.next.(i - 1) in
    let first = hlink.succ in
    if first != t.tail && is_deleted first then begin
      let target = ref first in
      while !target != t.tail && is_deleted !target do
        target := (R.read !target.next.(i - 1)).succ
      done;
      if not (R.cas t.head.next.(i - 1) hlink { succ = !target; marked = false })
      then t.cas_failures <- t.cas_failures + 1;
      advance_level t i
    end

  (* One batched physical-deletion pass; caller holds [restructure_lock].
     Serializing restructures (the try-lock is never waited on, so the
     CAS-only insert/claim paths stay non-blocking) gives the retire step
     a clean argument: after the bottom-level unlink and the upper-level
     purge below, no head pointer can be re-aimed at a collected node —
     inserts only CAS a *live* predecessor's cells, every prefix member is
     permanently marked, and the only other writer of the head's links is
     the (single) restructurer.  By the chain-forward edge discipline the
     collected nodes' remaining in-edges come from nodes that sat earlier
     in the chain: other members of this same batch, already-retired nodes
     (unreachable to fresh traversals by induction), or the head (purged).
     A traverser that was already past the head when the prefix came off
     entered the epoch before the retire stamp, so reclamation holds the
     nodes until it leaves. *)
  let restructure_locked t =
    let hlink = R.read t.head.next.(0) in
    let prefix = ref [] in
    let cursor = ref hlink.succ in
    let continue = ref true in
    while !continue && !cursor != t.tail do
      let link = R.read !cursor.next.(0) in
      if link.marked then begin
        prefix := !cursor :: !prefix;
        cursor := link.succ
      end
      else continue := false
    done;
    match !prefix with
    | [] -> ()
    | nodes ->
      if R.cas t.head.next.(0) hlink { succ = !cursor; marked = false } then begin
        (* Purge the upper head pointers *after* the bottom unlink: every
           collected node is permanently marked, so once each level's first
           target reads live, none of them is head-reachable anywhere. *)
        for i = t.max_level downto 2 do
          advance_level t i
        done;
        List.iter (retire t) nodes;
        t.unlinked <- t.unlinked + List.length nodes;
        t.restructures <- t.restructures + 1;
        t.since_collect <- t.since_collect + 1;
        if t.since_collect >= t.collect_every then begin
          t.since_collect <- 0;
          ignore (Reclaim.collect ~upto:(Atomic.get t.highwater + 1) t.reclaim)
        end
      end
      else
        (* An insert landed a new front node between our scan and the CAS;
           the prefix is no longer head-adjacent.  Cede — the next
           threshold crossing retries. *)
        t.cas_failures <- t.cas_failures + 1

  (* Non-blocking: if another processor is already restructuring, skip —
     its pass removes the same prefix.  Returns whether a pass ran. *)
  let try_restructure t =
    if R.try_acquire t.restructure_lock then begin
      restructure_locked t;
      R.release t.restructure_lock;
      true
    end
    else begin
      t.restructure_skips <- t.restructure_skips + 1;
      false
    end

  (* Final reclamation sweep for quiescent callers (tests, drains). *)
  let collect_garbage t = Reclaim.collect ~upto:(Atomic.get t.highwater + 1) t.reclaim

  (* --- claim (logical delete-min) ------------------------------------------ *)

  type 'v claim_result =
    | Claimed of 'v node * int (* node, marked nodes hopped on the way *)
    | Empty of int

  (* Walk the bottom level from the head, hopping logically deleted nodes,
     and claim the first live one by CASing the mark into its bottom link.
     The successful CAS is Delete-min's linearization point: the claimed
     node was the minimum unmarked element at that instant, because live
     nodes are chain-ordered and every node walked over carried its mark
     when read (marks are permanent).  A failed CAS re-reads the same node
     — either a racing claim marked it (hop on) or an insert changed its
     successor (claim again). *)
  let try_claim t =
    let hops = ref 0 in
    let rec walk node =
      if node == t.tail then Empty !hops
      else
        let link = R.read node.next.(0) in
        if link.marked then begin
          incr hops;
          t.marked_hops <- t.marked_hops + 1;
          walk link.succ
        end
        else if R.cas node.next.(0) link { succ = link.succ; marked = true } then
          Claimed (node, !hops)
        else begin
          t.cas_failures <- t.cas_failures + 1;
          walk node
        end
    in
    walk (R.read t.head.next.(0)).succ

  (* Read a claimed node's binding.  Safe between the claim and the
     caller's [exit]: the node cannot be reclaimed while the claimant is
     inside the epoch — unless the premature-free mutant broke exactly
     that promise, which the explicit failure below turns into a loud,
     checkable violation instead of a silent wrong answer. *)
  let claimed_binding node =
    match R.read node.key with
    | Key k -> (
      match R.read node.value with
      | Some v -> (k, v)
      | None ->
        failwith
          "Skipqueue-lf: claimed node lost its value in flight (premature free)")
    | Bottom | Top ->
      failwith "Skipqueue-lf: claimed node was reclaimed in flight (premature free)"

  let poisoned node = node.poisoned

  (* --- insert -------------------------------------------------------------- *)

  (* CAS-link bottom-up, inside the epoch.  Duplicate keys are kept: the
     new node lands before existing equal keys, so the structure is a
     multiset ordered by (key, recency) among live nodes.  The new node
     goes immediately after the last live node with a smaller key — in
     front of any tombstone run that follows it, which keeps live nodes
     chain-ordered without ever linking after a marked predecessor.

     Linking in front of a head-adjacent tombstone run re-roots it: the
     run stops being the prefix {!try_restructure} can unlink, and the
     next claim hops none of it, so no delete-min ever sees the run's
     length.  A run only grows while it is head-adjacent, so the insert
     that is about to bury one — its bottom walk still at the head after
     [restructure_threshold] tombstones — unlinks it first and searches
     again.  The walk already read those tombstones; the trigger adds no
     shared reads. *)
  let insert t key value =
    enter t;
    let bkey = Key key in
    let level = random_level t in
    let node = alloc_node t ~key:bkey ~value:(Some value) ~level in
    (* Bottom level: the linearization point of the insert. *)
    let rec link_bottom () =
      let preds, plinks, hops = find_preds t bkey in
      let pred = preds.(0) and plink = plinks.(0) in
      if pred == t.head && hops >= t.restructure_threshold && try_restructure t then
        link_bottom ()
      else if plink.marked then begin
        (* Only the walk's entry node can surface here: it was committed
           live at level 2 but claimed before its bottom link was read.  A
           marked record is frozen — the CAS below would SUCCEED on the
           dead (possibly already retired) node, resurrecting its cell as
           unmarked and stranding the new element.  Re-search instead; the
           fresh walk sees the node dead and commits a live predecessor. *)
        t.cas_failures <- t.cas_failures + 1;
        link_bottom ()
      end
      else begin
        R.write node.next.(0) { succ = plink.succ; marked = false };
        if R.cas pred.next.(0) plink { succ = node; marked = false } then ()
        else begin
          (* The predecessor's bottom record moved: a racing insert, claim
             or unlink superseded it.  Re-search. *)
          t.cas_failures <- t.cas_failures + 1;
          link_bottom ()
        end
      end
    in
    link_bottom ();
    (* Upper levels, best effort.  Stop once the node is claimed (a dormant
       tower would only cost traversals), and skip a level whose successor
       is already a tombstone: a tombstone may sit bottom-earlier than the
       new node, and an edge to it would break the chain-forward discipline
       the retirement proof needs.  (If the successor is marked only after
       the check, it was live — hence bottom-later — when observed, and the
       edge stays forward.) *)
    (* The deletion mark lives in the bottom cell, so an upper-level record
       CAS cannot see it: if the node is claimed AND prefix-collected
       between the liveness guard below and the CAS, the CAS would re-link
       an already retired node into a reachable chain.  Hence the
       post-CAS validation: re-read the bottom mark and, if set, unlink
       the node right back out of this level.  The undo restores the
       predecessor's previous (forward) edge; racing inserts can only
       prepend a LIVE node in front of ours — which, sitting
       bottom-earlier, blocks any collection of ours until it too is
       marked, so finding someone else in the predecessor's cell means the
       hazard is gone.  The inserter still holds the epoch, so the node
       cannot be reclaimed before the undo completes. *)
    (* Not the stored successor: that snapshot may itself belong to an
       already collected batch.  Walk to the first currently-live target,
       like the restructurer's own purge — if that target is collected
       later, either a live predecessor still blocks its collection, or
       the (serialized) collecting restructurer re-purges this level
       before retiring it. *)
    let unlink_level pred i =
      let rec undo () =
        let plink = R.read pred.next.(i - 1) in
        if plink.succ == node then begin
          let target = ref (R.read node.next.(i - 1)).succ in
          while !target != t.tail && is_deleted !target do
            target := (R.read !target.next.(i - 1)).succ
          done;
          if not
               (R.cas pred.next.(i - 1) plink
                  { succ = !target; marked = plink.marked })
          then begin
            t.cas_failures <- t.cas_failures + 1;
            undo ()
          end
        end
      in
      undo ()
    in
    for i = 2 to level do
      let rec link_level () =
        if not (R.read node.next.(0)).marked then begin
          let preds, plinks, _ = find_preds t bkey in
          let pred = preds.(i - 1) and plink = plinks.(i - 1) in
          let succ = plink.succ in
          if succ == t.tail || not (is_deleted succ) then begin
            R.write node.next.(i - 1) { succ; marked = false };
            if R.cas pred.next.(i - 1) plink { succ = node; marked = false } then begin
              if (R.read node.next.(0)).marked then unlink_level pred i
            end
            else begin
              t.cas_failures <- t.cas_failures + 1;
              link_level ()
            end
          end
        end
      in
      link_level ()
    done;
    exit t

  (* Claim, then restructure once the claim's walk has hopped
     [restructure_threshold] tombstones (the claimed node counts: it is
     one more).  The binding is read before leaving the epoch: the claim
     made the node garbage-eligible, and only the epoch keeps it intact. *)
  let delete_min t =
    enter t;
    let result =
      match try_claim t with
      | Empty hops ->
        if hops >= t.restructure_threshold then ignore (try_restructure t);
        None
      | Claimed (node, hops) ->
        let binding = claimed_binding node in
        if hops + 1 >= t.restructure_threshold then ignore (try_restructure t);
        Some binding
    in
    exit t;
    result

  (* --- read-only views ----------------------------------------------------- *)

  let fold_live t f acc =
    let rec go acc node =
      if node == t.tail then acc
      else
        let link = R.read node.next.(0) in
        let acc =
          if link.marked then acc
          else
            match node_key node with
            | Key k -> f acc k (Option.get (R.read node.value))
            | Bottom | Top -> acc
        in
        go acc link.succ
    in
    go acc (R.read t.head.next.(0)).succ

  let peek_min t =
    let rec walk node =
      if node == t.tail then None
      else
        let link = R.read node.next.(0) in
        if link.marked then walk link.succ
        else
          match node_key node with
          | Key k -> Some (k, Option.get (R.read node.value))
          | Bottom | Top -> None
    in
    walk (R.read t.head.next.(0)).succ

  let size t = fold_live t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_live t (fun acc k v -> (k, v) :: acc) [])

  (* Length of the logically-deleted prefix still physically linked at the
     bottom level (test instrumentation for the batching threshold). *)
  let marked_prefix_len t =
    let rec go n node =
      if node == t.tail then n
      else
        let link = R.read node.next.(0) in
        if link.marked then go (n + 1) link.succ else n
    in
    go 0 (R.read t.head.next.(0)).succ

  (* --- quiescent invariant check ------------------------------------------- *)

  let check_invariants t =
    let ( let* ) = Result.bind in
    (* Bottom level: LIVE keys non-descending (duplicates are kept),
       nothing poisoned.  Marked nodes may linger anywhere — they are
       tombstones whose keys are dead, and an insert legitimately places
       a smaller live key in front of a larger dead one. *)
    let visited = ref [] in
    let rec check_bottom prev node =
      if node == t.tail then Ok ()
      else if List.memq node !visited then
        Error "bottom chain revisits a node (stale edge cycle)"
      else if node.poisoned then
        Error "reachable node is poisoned (reclaimed too early)"
      else begin
        visited := node :: !visited;
        let link = R.read node.next.(0) in
        let* prev =
          match node_key node with
          | Bottom | Top -> Error "interior node carries a sentinel key"
          | Key _ when link.marked -> Ok prev
          | key ->
            if bound_compare prev key <= 0 then Ok key
            else Error "live bottom nodes not sorted"
        in
        check_bottom prev link.succ
      end
    in
    let* () = check_bottom Bottom (R.read t.head.next.(0)).succ in
    (* Every node on an upper head chain must sit in the bottom chain:
       nothing is ever unlinked except whole marked prefixes, which leave
       every level before they are retired. *)
    let bottom_nodes =
      let rec go acc node =
        if node == t.tail then acc else go (node :: acc) (R.read node.next.(0)).succ
      in
      go [] (R.read t.head.next.(0)).succ
    in
    let rec check_level i node =
      if node == t.tail then Ok ()
      else if List.memq node bottom_nodes then
        check_level i (R.read node.next.(i - 1)).succ
      else
        Error
          (Printf.sprintf "level-%d node missing from the bottom level (marked=%b)"
             i (is_deleted node))
    in
    let rec check_levels i =
      if i > t.max_level then Ok ()
      else
        let* () = check_level i (R.read t.head.next.(i - 1)).succ in
        check_levels (i + 1)
    in
    check_levels 2
end
