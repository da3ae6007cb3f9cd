module Make (R : Repro_runtime.Runtime_intf.S) = struct
  module Reclaim = Reclamation.Make (R)

  type mode = Strict | Relaxed

  (* Keys extended with sentinels for the head (-oo) and tail (+oo). *)
  type bound = Bound.t = Bottom | Key of int | Top

  let bound_compare = Bound.compare

  type 'v node = {
    key : bound R.shared;
    value : 'v option R.shared; (* None only in sentinels *)
    level : int;
    next : 'v node R.shared array; (* length = level; tail has none *)
    level_locks : R.lock array; (* one per level, Fig. 9's lock(node, i) *)
    node_lock : R.lock; (* Fig. 10 line 20 / Fig. 11 line 27 *)
    deleted : bool R.shared; (* the SWAP target of Delete-min *)
    stamp : int R.shared; (* completion timestamp; max_int while in flight *)
    mutable poisoned : bool; (* set by the reclamation finalizer *)
  }

  (* Per-processor state: the level stream, derived deterministically
     from the queue seed and the processor id, and the [find_preds]
     scratch.  One scratch buffer per processor suffices: an operation's
     search result is consumed before the same processor can start
     another search (operations on one processor are sequential, and no
     callee of a search's consumer re-enters [find_preds]). *)
  type 'v proc = { rng : Repro_util.Rng.t; preds : 'v node array }

  type 'v t = {
    head : 'v node;
    tail : 'v node;
    max_level : int;
    p : float;
    mode : mode;
    reclamation : Reclaim.t option;
    procs : 'v proc Repro_runtime.Per_proc.t;
    mutable hunt_steps : int;
    mutable swap_losses : int;
    mutable stale_skips : int;
    mutable hunt_passes : int;
  }

  let make_node ?(deleted = false) ~key ~value ~level () =
    {
      key = R.shared key;
      value = R.shared value;
      level;
      next = [||]; (* patched below for non-tail nodes *)
      level_locks = Array.init level (fun _ -> R.lock_create ~name:"sq-level" ());
      node_lock = R.lock_create ~name:"sq-node" ();
      (* Sentinels are born marked: a Delete-min hunt that wanders onto the
         head through a removed node's backward pointer must lose the SWAP
         and move on, never claim the sentinel. *)
      deleted = R.shared deleted;
      stamp = R.shared max_int;
      poisoned = false;
    }

  let create ?(mode = Strict) ?(p = 0.5) ?(max_level = 20) ?(seed = 0x5EEDL)
      ?reclamation () =
    if p <= 0.0 || p >= 1.0 then invalid_arg "Skipqueue.create: p outside (0, 1)";
    if max_level < 1 then invalid_arg "Skipqueue.create: max_level < 1";
    let tail = make_node ~deleted:true ~key:Top ~value:None ~level:0 () in
    let head = make_node ~deleted:true ~key:Bottom ~value:None ~level:max_level () in
    let head = { head with next = Array.init max_level (fun _ -> R.shared tail) } in
    {
      head;
      tail;
      max_level;
      p;
      mode;
      reclamation;
      procs =
        Repro_runtime.Per_proc.create (fun id ->
            {
              rng =
                Repro_util.Rng.of_seed
                  (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (id + 1))));
              preds = Array.make max_level head;
            });
      hunt_steps = 0;
      swap_losses = 0;
      stale_skips = 0;
      hunt_passes = 0;
    }

  let stats t =
    [
      ("hunt_steps", float_of_int t.hunt_steps);
      ("swap_losses", float_of_int t.swap_losses);
      ("stale_skips", float_of_int t.stale_skips);
      ("hunt_passes", float_of_int t.hunt_passes);
    ]

  let proc t = Repro_runtime.Per_proc.get t.procs (R.self ())

  let random_level t =
    Repro_util.Rng.geometric_level (proc t).rng ~p:t.p ~max_level:t.max_level

  let read_key node = R.read node.key
  let read_next node i = R.read node.next.(i - 1)
  let write_next node i v = R.write node.next.(i - 1) v
  let level_lock node i = node.level_locks.(i - 1)

  let enter t = match t.reclamation with None -> () | Some r -> Reclaim.enter r
  let exit t = match t.reclamation with None -> () | Some r -> Reclaim.exit r

  (* The finalizer runs only once no processor inside the structure can
     still hold a pointer to the node (reclamation's guarantee).  The node
     goes back to the host allocator; poisoning it lets the invariant
     checker catch a hunter that could still reach it. *)
  let retire t node =
    match t.reclamation with
    | None -> ()
    | Some r -> Reclaim.retire r (fun () -> node.poisoned <- true)

  let alloc_node t ~key ~value ~level =
    let n = make_node ~key ~value ~level () in
    { n with next = Array.init level (fun _ -> R.shared t.tail) }

  (* Fig. 9's getLock: lock the level-[i] pointer of the rightmost node
     whose key is smaller than [bkey], revalidating after acquisition. *)
  let get_lock t bkey node1 i =
    ignore t;
    let node1 = ref node1 in
    let node2 = ref (read_next !node1 i) in
    while bound_compare (read_key !node2) bkey < 0 do
      node1 := !node2;
      node2 := read_next !node1 i
    done;
    R.acquire (level_lock !node1 i);
    node2 := read_next !node1 i;
    while bound_compare (read_key !node2) bkey < 0 do
      R.release (level_lock !node1 i);
      node1 := !node2;
      R.acquire (level_lock !node1 i);
      node2 := read_next !node1 i
    done;
    !node1

  (* Top-down search recording the rightmost node with key < bkey at every
     level (Fig. 10 lines 1-9, Fig. 11 lines 15-23).  Fills and returns
     the calling processor's scratch buffer — no per-search allocation. *)
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

  let insert t key value =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let node1 = get_lock t bkey saved.(0) 1 in
    let node2 = read_next node1 1 in
    let result =
      if bound_compare (read_key node2) bkey = 0 then begin
        (* Key present: overwrite in place under the predecessor's lock. *)
        R.write node2.value (Some value);
        R.release (level_lock node1 1);
        `Updated
      end
      else begin
        let level = random_level t in
        let new_node = alloc_node t ~key:bkey ~value:(Some value) ~level in
        R.acquire new_node.node_lock;
        let node1 = ref node1 in
        for i = 1 to level do
          if i <> 1 then node1 := get_lock t bkey saved.(i - 1) i;
          write_next new_node i (read_next !node1 i);
          write_next !node1 i new_node;
          R.release (level_lock !node1 i)
        done;
        R.release new_node.node_lock;
        (match t.mode with
        | Strict -> R.write new_node.stamp (R.get_time ())
        | Relaxed -> ());
        `Inserted
      end
    in
    exit t;
    result

  (* Fig. 11 lines 15-37: physical removal of an already-marked node.  The
     predecessor search and the line 24-26 re-walk are kept (their memory
     traffic is part of the algorithm's cost) even though we already hold
     the node pointer. *)
  let physically_remove t node2 bkey =
    let saved = find_preds t bkey in
    let walker = ref saved.(0) in
    while bound_compare (read_key !walker) bkey <> 0 do
      walker := read_next !walker 1
    done;
    assert (!walker == node2);
    R.acquire node2.node_lock;
    for i = node2.level downto 1 do
      let node1 = get_lock t bkey saved.(i - 1) i in
      R.acquire (level_lock node2 i);
      (* Unlink first, then point the victim back at its predecessor so
         that processors still holding a pointer to it fall back safely. *)
      write_next node1 i (read_next node2 i);
      write_next node2 i node1;
      R.release (level_lock node2 i);
      R.release (level_lock node1 i)
    done;
    R.release node2.node_lock;
    retire t node2

  (* Fig. 11 lines 1-10, generalized from one victim to up-to-[want]: a
     single bottom-level pass that races to claim the first [want]
     unmarked, old-enough nodes.  With [want = 1] this is exactly the
     paper's Delete-min hunt; larger batches share the walk over the
     (possibly long) prefix of marked nodes, which is what the combining
     front end in [Elimination] exploits.  Claims come back in list
     (ascending-key) order.

     Like Fig. 11's loop, a step reads only the stamp (strict mode), the
     SWAP target and [next]; the walk ends when the pointer is the tail.
     No key is read: a hunter led back onto the head by a removed node's
     backward pointer loses the SWAP on the born-marked sentinel. *)
  let hunt t ~want =
    t.hunt_passes <- t.hunt_passes + 1;
    let time = match t.mode with Strict -> R.get_time () | Relaxed -> max_int in
    let claimed = ref [] in
    let count = ref 0 in
    let node = ref (read_next t.head 1) in
    let continue = ref (want > 0) in
    while !continue do
      if !node == t.tail then continue := false
      else begin
        let eligible =
          match t.mode with
          | Relaxed -> true
          | Strict -> R.read !node.stamp < time
        in
        if eligible then begin
          t.hunt_steps <- t.hunt_steps + 1;
          let marked = R.swap !node.deleted true in
          if not marked then begin
            claimed := !node :: !claimed;
            incr count;
            if !count >= want then continue := false
            else node := read_next !node 1
          end
          else begin
            t.swap_losses <- t.swap_losses + 1;
            node := read_next !node 1
          end
        end
        else begin
          t.stale_skips <- t.stale_skips + 1;
          node := read_next !node 1
        end
      end
    done;
    List.rev !claimed

  type 'v claim = { cnode : 'v node; ckey : int; cvalue : 'v }
  type 'v batch = 'v claim list

  let claim_of_node node =
    let key =
      match read_key node with
      | Key k -> k
      | Bottom | Top -> assert false (* sentinels are born marked *)
    in
    { cnode = node; ckey = key; cvalue = Option.get (R.read node.value) }

  let hunt_batch t ~want =
    enter t;
    List.map claim_of_node (hunt t ~want)

  let batch_claims batch = List.map (fun c -> (c.ckey, c.cvalue)) batch

  let finish_batch t batch =
    List.iter (fun c -> physically_remove t c.cnode (Key c.ckey)) batch;
    exit t

  let first_bound t =
    (* The first node can be retired by a concurrent physical removal, so
       even this two-read peek must hold the reclamation critical section:
       outside it, a collector pass may reclaim the node between the
       [next] read and the [key] read. *)
    enter t;
    let result =
      match read_key (read_next t.head 1) with
      | Top -> `Empty
      | Key k -> `Min_at_most k
      | Bottom -> assert false (* head is the only Bottom node *)
    in
    exit t;
    result

  let delete_min t =
    enter t;
    let result =
      match hunt t ~want:1 with
      | [] -> None
      | node2 :: _ ->
        let { ckey; cvalue; _ } = claim_of_node node2 in
        physically_remove t node2 (Key ckey);
        Some (ckey, cvalue)
    in
    exit t;
    result

  let delete t key =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let candidate = read_next saved.(0) 1 in
    let result =
      if bound_compare (read_key candidate) bkey <> 0 then None
      else begin
        let marked = R.swap candidate.deleted true in
        if marked then None
        else begin
          let value = R.read candidate.value in
          physically_remove t candidate bkey;
          Some (Option.get value)
        end
      end
    in
    exit t;
    result

  let find t key =
    enter t;
    let bkey = Key key in
    let saved = find_preds t bkey in
    let candidate = read_next saved.(0) 1 in
    let result =
      if bound_compare (read_key candidate) bkey = 0 && not (R.read candidate.deleted)
      then R.read candidate.value
      else None
    in
    exit t;
    result

  let peek_min t =
    enter t;
    let rec walk node =
      match read_key node with
      | Top -> None
      | Bottom -> walk (read_next node 1)
      | Key k ->
        if R.read node.deleted then walk (read_next node 1)
        else Some (k, Option.get (R.read node.value))
    in
    let result = walk (read_next t.head 1) in
    exit t;
    result

  let fold_live t f acc =
    let rec go acc node =
      match read_key node with
      | Top -> acc
      | Bottom -> go acc (read_next node 1)
      | Key k ->
        let acc =
          if R.read node.deleted then acc
          else f acc k (Option.get (R.read node.value))
        in
        go acc (read_next node 1)
    in
    go acc t.head

  let size t = fold_live t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_live t (fun acc k v -> (k, v) :: acc) [])

  let check_invariants t =
    let ( let* ) = Result.bind in
    (* Bottom level: strictly ascending, nothing marked, nothing poisoned. *)
    let rec check_bottom prev node =
      if node.poisoned then Error "reachable node is poisoned (reclaimed too early)"
      else
        match read_key node with
        | Top -> Ok ()
        | key ->
          let* () =
            if bound_compare prev key < 0 then Ok ()
            else Error "bottom level not strictly ascending"
          in
          let* () =
            match key with
            | Key _ when R.read node.deleted ->
              Error "marked node still reachable at quiescence"
            | _ -> Ok ()
          in
          check_bottom key (read_next node 1)
    in
    let* () = check_bottom Bottom (read_next t.head 1) in
    (* Level i must be a sub-sequence of level i-1. *)
    let rec sublist i upper lower =
      match read_key upper with
      | Top -> Ok ()
      | ukey -> (
        match read_key lower with
        | Top -> Error (Printf.sprintf "level %d node missing from level %d" i (i - 1))
        | lkey ->
          let c = bound_compare ukey lkey in
          if c = 0 then sublist i (read_next upper i) (read_next lower (i - 1))
          else if c > 0 then sublist i upper (read_next lower (i - 1))
          else Error (Printf.sprintf "level %d node missing from level %d" i (i - 1)))
    in
    let rec check_levels i =
      if i > t.max_level then Ok ()
      else
        let* () = sublist i (read_next t.head i) (read_next t.head (i - 1)) in
        check_levels (i + 1)
    in
    check_levels 2
end
