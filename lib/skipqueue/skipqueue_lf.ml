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
   marked prefix with one CAS on the head's bottom link.  No node is ever
   reused, so an unlinked node needs no reclamation epoch: a traverser
   that stood on it before the unlink walks on over its frozen links, and
   the GC keeps it alive for as long as anyone can reach it.  Only that
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

   Physical deletion rests on a chain-forward edge discipline: every next
   pointer ever written points from a node to one that sat later in the
   bottom chain when the edge was created.  Consequently all in-edges of
   a collected prefix come from the head (purged by the pass) or from
   members of the same or an earlier batch, so a traversal entering after
   the unlink can never reach a collected node: the pass really removes
   its tombstones, and no walk pays for them again.  Upper-level links
   preserve the discipline by refusing a successor that is already marked
   (such a tombstone may sit bottom-earlier than the new node; the tower
   is simply truncated at that level). *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
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
  }

  type stats = {
    cas_failures : int; (* claim/link CAS attempts lost to a race *)
    marked_hops : int; (* bottom-level tombstones stepped over, all walks *)
    insert_marked_hops : int; (* ... of which by insert searches *)
    restructures : int; (* batched prefix unlinks performed *)
    restructure_skips : int; (* restructures ceded to the current holder *)
    unlinked : int; (* nodes physically removed by restructures *)
    searches : int; (* top-down searches from the head, every level's *)
    resumed_walks : int; (* bottom walks resumed from a lost CAS's predecessor *)
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
    restructure_threshold : int; (* tombstones a head walk hops before restructuring *)
    restructure_lock : R.lock;
    procs : 'v proc Repro_runtime.Per_proc.t;
    mutable cas_failures : int;
    mutable marked_hops : int;
    mutable insert_marked_hops : int;
    mutable restructures : int;
    mutable restructure_skips : int;
    mutable unlinked : int;
    mutable searches : int;
    mutable resumed_walks : int;
  }

  (* Explicit lets fix the cells' allocation order, and with it their
     line ids: a record literal would evaluate its fields right to left. *)
  let make_node ~key ~value ~level ~succ =
    let key = R.shared key in
    let value = R.shared value in
    let next = Array.init level (fun _ -> R.shared { succ; marked = false }) in
    { key; value; level; next }

  let create ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL) ?(restructure_threshold = 16)
      () =
    if p <= 0.0 || p >= 1.0 then invalid_arg "Skipqueue_lf.create: p outside (0, 1)";
    if max_level < 1 then invalid_arg "Skipqueue_lf.create: max_level < 1";
    if restructure_threshold < 1 then
      invalid_arg "Skipqueue_lf.create: restructure_threshold < 1";
    let tail = { key = R.shared Top; value = R.shared None; level = 0; next = [||] } in
    let head = make_node ~key:Bottom ~value:None ~level:max_level ~succ:tail in
    {
      head;
      tail;
      max_level;
      p;
      restructure_threshold;
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
      cas_failures = 0;
      marked_hops = 0;
      insert_marked_hops = 0;
      restructures = 0;
      restructure_skips = 0;
      unlinked = 0;
      searches = 0;
      resumed_walks = 0;
    }

  let stats t =
    {
      cas_failures = t.cas_failures;
      marked_hops = t.marked_hops;
      insert_marked_hops = t.insert_marked_hops;
      restructures = t.restructures;
      restructure_skips = t.restructure_skips;
      unlinked = t.unlinked;
      searches = t.searches;
      resumed_walks = t.resumed_walks;
    }

  (* --- per-processor state ------------------------------------------------- *)

  let proc t = Repro_runtime.Per_proc.get t.procs (R.self ())

  let random_level t =
    Repro_util.Rng.geometric_level (proc t).rng ~p:t.p ~max_level:t.max_level

  (* --- search -------------------------------------------------------------- *)

  let node_key node = R.read node.key
  let is_deleted node = node.level > 0 && (R.read node.next.(0)).marked

  (* Bottom-level walk from [pred] (the head, or a node committed live
     with a key below [bkey]) whose bottom record was just read as
     [plink]: commits the LAST LIVE node visited whose key is < [bkey],
     with the record read from it, into the processor's
     [preds.(0)]/[plinks.(0)] — the CAS expected value for linking right
     after it.  [pred] itself stays committed if nothing live follows it,
     even if [plink] is marked; the insert checks.  The walked link
     doubles as the liveness bit, so each hop is one shared read.  Returns
     how many tombstones it stepped over.  Allocates nothing, so an
     insert whose bottom CAS lost can resume here from its predecessor. *)
  let walk_bottom t bkey pred plink =
    let { preds; plinks; _ } = proc t in
    let clink = ref plink in
    let cpred = ref pred and cplink = ref plink in
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
    !hops

  (* Top-down search: at every level, the LAST LIVE node visited whose key
     is < [bkey], together with the link record read from it, into the
     processor's [preds]/[plinks]; the bottom level is {!walk_bottom} from
     the level-2 predecessor.

     Tombstones are traversed no matter what their keys say: a marked
     node's key is dead, and stopping at (or committing) one would either
     leave the predecessor unusable for linking or park the walk behind a
     tombstone run that only future delete-mins can clear.  Committing
     only live nodes also means an insert's predecessor was live when its
     record was read — if it is claimed before the insert's CAS, the CAS
     fails by record inequality and the insert retries.  Upper levels pay
     one extra read per hop for the candidate's bottom link.  Returns how
     many tombstones the bottom-level walk stepped over. *)
  let find_preds t bkey =
    let { preds; plinks; _ } = proc t in
    t.searches <- t.searches + 1;
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
    walk_bottom t bkey !pred (R.read !pred.next.(0))

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
     CAS-only insert/claim paths stay non-blocking) gives the removal a
     clean argument: after the bottom-level unlink and the upper-level
     purge below, no head pointer can be re-aimed at a collected node —
     inserts only CAS a *live* predecessor's cells, every prefix member is
     permanently marked, and the only other writer of the head's links is
     the (single) restructurer.  By the chain-forward edge discipline the
     collected nodes' remaining in-edges come from nodes that sat earlier
     in the chain: other members of this same batch, nodes collected by an
     earlier pass (unreachable to fresh traversals by induction), or the
     head (purged).  A traverser that was already past the head when the
     prefix came off keeps walking the collected nodes' forward links,
     which still lead to the live chain. *)
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
        t.unlinked <- t.unlinked + List.length nodes;
        t.restructures <- t.restructures + 1
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

  (* --- insert -------------------------------------------------------------- *)

  (* CAS-link bottom-up.  Duplicate keys are kept: the new node lands
     before existing equal keys, so the structure is a multiset ordered
     by (key, recency) among live nodes.  The new node
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
    let bkey = Key key in
    let level = random_level t in
    let node = make_node ~key:bkey ~value:(Some value) ~level ~succ:t.tail in
    let { preds; plinks; _ } = proc t in
    (* Bottom level: the linearization point of the insert.  [hops] counts
       the tombstones the walk that committed [preds.(0)] stepped over. *)
    let rec link_bottom hops =
      let pred = preds.(0) and plink = plinks.(0) in
      if pred == t.head && hops >= t.restructure_threshold && try_restructure t then
        search ()
      else if plink.marked then begin
        (* Only the walk's entry node can surface here: it was committed
           live at level 2 but claimed before its bottom link was read.  A
           marked record is frozen — the CAS below would SUCCEED on the
           dead (possibly already unlinked) node, clearing the mark of an
           element a delete-min already returned and, once the node is off
           the chain, stranding the new element.  Re-search instead; the
           fresh walk sees the node dead and commits a live predecessor. *)
        t.cas_failures <- t.cas_failures + 1;
        search ()
      end
      else begin
        R.write node.next.(0) { succ = plink.succ; marked = false };
        if not (R.cas pred.next.(0) plink { succ = node; marked = false }) then begin
          (* The predecessor's bottom record moved: a racing insert, claim
             or unlink superseded it.  If the fresh record is unmarked the
             predecessor is still live, its record is a valid expected
             value, and live nodes are chain-ordered, so walking on from it
             lands where a search from the head would (DESIGN.md §S19).  A
             marked record means the predecessor is dead: search again. *)
          t.cas_failures <- t.cas_failures + 1;
          let fresh = R.read pred.next.(0) in
          if fresh.marked then search ()
          else begin
            t.resumed_walks <- t.resumed_walks + 1;
            link_bottom (walk_bottom t bkey pred fresh)
          end
        end
      end
    and search () = link_bottom (find_preds t bkey) in
    search ();
    (* Upper levels, best effort.  Stop once the node is claimed (a dormant
       tower would only cost traversals), and skip a level whose successor
       is already a tombstone: a tombstone may sit bottom-earlier than the
       new node, and an edge to it would break the chain-forward
       discipline the restructure's removal argument needs.  (If the
       successor is marked only after the check, it was live — hence
       bottom-later — when observed, and the edge stays forward.) *)
    (* The deletion mark lives in the bottom cell, so an upper-level record
       CAS cannot see it: if the node is claimed AND prefix-collected
       between the liveness guard below and the CAS, the CAS would re-link
       an already collected node into a reachable chain, where it would
       sit off the bottom chain as a tombstone no later pass can remove.
       Hence the post-CAS validation: re-read the bottom mark and, if set,
       unlink the node right back out of this level.  The undo restores
       the predecessor's previous (forward) edge; racing inserts can only
       prepend a LIVE node in front of ours — which, sitting
       bottom-earlier, blocks any collection of ours until it too is
       marked, so finding someone else in the predecessor's cell means the
       hazard is gone. *)
    (* Not the stored successor: that snapshot may itself belong to an
       already collected batch.  Walk to the first currently-live target,
       like the restructurer's own purge — if that target is collected
       later, either a live predecessor still blocks its collection, or
       the (serialized) collecting restructurer re-purges this level
       when it unlinks it. *)
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
          ignore (find_preds t bkey : int);
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
    done

  (* Claim, then restructure once the claim's walk has hopped
     [restructure_threshold] tombstones (the claimed node counts: it is
     one more).  A claimed node is never written again, so its binding
     reads the same before or after the pass unlinks it. *)
  let delete_min t =
    match try_claim t with
    | Empty hops ->
      if hops >= t.restructure_threshold then ignore (try_restructure t);
      None
    | Claimed (node, hops) ->
      let binding =
        match R.read node.key with
        | Key k -> (k, Option.get (R.read node.value))
        | Bottom | Top -> assert false (* only interior nodes are claimed *)
      in
      if hops + 1 >= t.restructure_threshold then ignore (try_restructure t);
      Some binding

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
    (* Bottom level: LIVE keys non-descending (duplicates are kept).
       Marked nodes may linger anywhere — they are tombstones whose keys
       are dead, and an insert legitimately places a smaller live key in
       front of a larger dead one. *)
    let visited = ref [] in
    let rec check_bottom prev node =
      if node == t.tail then Ok ()
      else if List.memq node !visited then
        Error "bottom chain revisits a node (stale edge cycle)"
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
       every level in the same pass. *)
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
