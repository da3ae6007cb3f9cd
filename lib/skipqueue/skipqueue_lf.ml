(* Lock-free SkipQueue: the priority-queue facade over
   [Lockfree_skiplist].  Insert CAS-links bottom-up; Delete-min claims the
   first live node with one CAS mark (its linearization point).  Either
   walk, once it has hopped over [restructure_threshold] head-adjacent
   logically deleted nodes, triggers the batched physical unlink.  No
   operation ever takes a lock on the hot path — the only lock in the
   structure is the restructurer's try-lock, which is never waited on. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) =
struct
  module SL = Lockfree_skiplist.Make (R) (K)

  type 'v t = { sl : 'v SL.t; restructure_threshold : int }

  let create ?p ?max_level ?seed ?(restructure_threshold = 16)
      ?collect_every ?broken_premature_free:(unsafe_free = false) () =
    if restructure_threshold < 1 then
      invalid_arg "Skipqueue_lf.create: restructure_threshold < 1";
    {
      sl = SL.create ?p ?max_level ?seed ?collect_every ~unsafe_free ();
      restructure_threshold;
    }

  let insert t key value =
    SL.enter t.sl;
    SL.insert ~restructure_threshold:t.restructure_threshold t.sl key value;
    SL.exit t.sl

  let delete_min t =
    SL.enter t.sl;
    let result =
      match SL.try_claim t.sl with
      | SL.Empty hops ->
        if hops >= t.restructure_threshold then ignore (SL.try_restructure t.sl);
        None
      | SL.Claimed (node, hops) ->
        (* Read the binding before leaving the epoch: the claim made the
           node garbage-eligible, and only the epoch keeps it intact. *)
        let binding = SL.claimed_binding t.sl node in
        if hops + 1 >= t.restructure_threshold then
          ignore (SL.try_restructure t.sl);
        Some binding
    in
    SL.exit t.sl;
    result

  let peek_min t = SL.peek_min t.sl
  let size t = SL.size t.sl
  let to_list t = SL.to_list t.sl
  let check_invariants t = SL.check_invariants t.sl

  type stats = {
    cas_failures : int;
    marked_hops : int;
    insert_marked_hops : int;
    restructures : int;
    restructure_skips : int;
    unlinked : int;
  }

  let stats t =
    let s = SL.stats t.sl in
    {
      cas_failures = s.SL.cas_failures;
      marked_hops = s.SL.marked_hops;
      insert_marked_hops = s.SL.insert_marked_hops;
      restructures = s.SL.restructures;
      restructure_skips = s.SL.restructure_skips;
      unlinked = s.SL.unlinked;
    }

  type pool_stats = SL.pool_stats = { returned : int; recycled : int; pooled : int }

  let pool_stats t = SL.pool_stats t.sl
  let reclaim_stats t = SL.reclaim_stats t.sl
  let collect_garbage t = SL.collect_garbage t.sl
  let marked_prefix_len t = SL.marked_prefix_len t.sl
  let restructure_threshold t = t.restructure_threshold
  let skiplist t = t.sl
end
