module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type tag = Empty | Available | Moving of int (* processor id *)

  type 'v slot = {
    lock : R.lock;
    tag : tag R.shared;
    key : int option R.shared; (* None only while Empty *)
    value : 'v option R.shared;
  }

  type 'v t = {
    slots : 'v slot array; (* 1-based; slot 0 unused *)
    capacity : int; (* max element count *)
    heap_lock : R.lock;
    heap_size : int R.shared; (* protected by heap_lock *)
    (* Every insert tags its item [Moving pid]; the tag value is compared
       structurally, never by identity, so one cached block per processor
       serves all of that processor's inserts instead of a fresh
       allocation per operation. *)
    moving : tag Repro_runtime.Per_proc.t;
  }

  exception Full

  let create ?(capacity = 65536) () =
    if capacity < 1 then invalid_arg "Hunt_heap.create: capacity < 1";
    let make_slot i =
      ignore i;
      {
        lock = R.lock_create ~name:"heap-slot" ();
        tag = R.shared Empty;
        key = R.shared None;
        value = R.shared None;
      }
    in
    (* Bit-reversed filling scatters the last level across its whole
       power-of-two range, so the array covers full levels: indices up to
       2^(floor(log2 capacity) + 1) - 1. *)
    let slot_count =
      let rec round p = if p > capacity then 2 * p else round (2 * p) in
      round 1
    in
    {
      slots = Array.init slot_count make_slot;
      capacity;
      heap_lock = R.lock_create ~name:"heap" ();
      heap_size = R.shared 0;
      moving = Repro_runtime.Per_proc.create (fun pid -> Moving pid);
    }

  let size t = R.read t.heap_size

  let slot_key t i =
    match R.read t.slots.(i).key with
    | Some k -> k
    | None -> failwith "Hunt_heap: reading key of an empty slot"

  (* Move the item (key, value, tag) of slot [j] into slot [i]; both slots
     must be locked by the caller. *)
  let swap_slots t i j =
    let si = t.slots.(i) and sj = t.slots.(j) in
    let ki = R.read si.key and vi = R.read si.value and ti = R.read si.tag in
    R.write si.key (R.read sj.key);
    R.write si.value (R.read sj.value);
    R.write si.tag (R.read sj.tag);
    R.write sj.key ki;
    R.write sj.value vi;
    R.write sj.tag ti

  let insert t key value =
    let pid = R.self () in
    (* Claim the next slot in bit-reversed order under the heap lock; lock
       the slot before releasing the heap lock so a racing delete_min that
       picks it as its "last" blocks until the item is in place. *)
    R.acquire t.heap_lock;
    let n = R.read t.heap_size in
    if n >= t.capacity then begin
      R.release t.heap_lock;
      raise Full
    end;
    R.write t.heap_size (n + 1);
    let i = ref (Repro_util.Bitrev.position_of_size (n + 1)) in
    R.acquire t.slots.(!i).lock;
    R.release t.heap_lock;
    R.write t.slots.(!i).key (Some key);
    R.write t.slots.(!i).value (Some value);
    R.write t.slots.(!i).tag (Repro_runtime.Per_proc.get t.moving pid);
    R.release t.slots.(!i).lock;
    (* Bubble up, chasing the item if a concurrent delete moved it. *)
    while !i > 1 do
      let parent = !i / 2 in
      R.acquire t.slots.(parent).lock;
      R.acquire t.slots.(!i).lock;
      let old_i = !i in
      let ptag = R.read t.slots.(parent).tag in
      let itag = R.read t.slots.(!i).tag in
      (match (ptag, itag) with
      | Available, Moving m when m = pid ->
        if Int.compare (slot_key t !i) (slot_key t parent) < 0 then begin
          swap_slots t !i parent;
          i := parent
        end
        else begin
          R.write t.slots.(!i).tag Available;
          i := 0
        end
      | Empty, _ ->
        (* The item was consumed (extracted as "last") by a delete. *)
        i := 0
      | _, Moving m when m = pid ->
        (* Parent in transit by another insert; retry at the same position
           (the published algorithm spins here too). *)
        ()
      | _, _ ->
        (* Someone swapped our item upwards; chase it. *)
        i := parent);
      R.release t.slots.(old_i).lock;
      R.release t.slots.(parent).lock
    done;
    if !i = 1 then begin
      R.acquire t.slots.(1).lock;
      (match R.read t.slots.(1).tag with
      | Moving m when m = pid -> R.write t.slots.(1).tag Available
      | Empty | Available | Moving _ -> ());
      R.release t.slots.(1).lock
    end

  let delete_min t =
    R.acquire t.heap_lock;
    let bound = R.read t.heap_size in
    if bound < 1 then begin
      R.release t.heap_lock;
      None
    end
    else begin
      R.write t.heap_size (bound - 1);
      let last = Repro_util.Bitrev.position_of_size bound in
      R.acquire t.slots.(last).lock;
      R.release t.heap_lock;
      let lkey = Option.get (R.read t.slots.(last).key) in
      let lvalue = Option.get (R.read t.slots.(last).value) in
      R.write t.slots.(last).tag Empty;
      R.write t.slots.(last).key None;
      R.write t.slots.(last).value None;
      R.release t.slots.(last).lock;
      R.acquire t.slots.(1).lock;
      if R.read t.slots.(1).tag = Empty then begin
        (* We extracted the root itself (the heap had one element), or a
           concurrent delete drained it; the detached item is the answer. *)
        R.release t.slots.(1).lock;
        Some (lkey, lvalue)
      end
      else begin
        (* Replace the root with the detached item and sift down with
           hand-over-hand locking; the lock on the current slot is held
           across iterations. *)
        let rkey = Option.get (R.read t.slots.(1).key) in
        let rvalue = Option.get (R.read t.slots.(1).value) in
        R.write t.slots.(1).key (Some lkey);
        R.write t.slots.(1).value (Some lvalue);
        R.write t.slots.(1).tag Available;
        let i = ref 1 in
        let continue = ref true in
        let capacity = Array.length t.slots - 1 in
        while !continue do
          let l = 2 * !i and r = (2 * !i) + 1 in
          if l > capacity then continue := false
          else begin
            R.acquire t.slots.(l).lock;
            let ltag = R.read t.slots.(l).tag in
            if ltag = Empty then begin
              R.release t.slots.(l).lock;
              continue := false
            end
            else begin
              let child =
                if r > capacity then l
                else begin
                  R.acquire t.slots.(r).lock;
                  if R.read t.slots.(r).tag = Empty then begin
                    R.release t.slots.(r).lock;
                    l
                  end
                  else if Int.compare (slot_key t r) (slot_key t l) < 0 then begin
                    R.release t.slots.(l).lock;
                    r
                  end
                  else begin
                    R.release t.slots.(r).lock;
                    l
                  end
                end
              in
              if Int.compare (slot_key t child) (slot_key t !i) < 0 then begin
                swap_slots t child !i;
                R.release t.slots.(!i).lock;
                i := child
              end
              else begin
                R.release t.slots.(child).lock;
                continue := false
              end
            end
          end
        done;
        R.release t.slots.(!i).lock;
        Some (rkey, rvalue)
      end
    end

  let to_sorted_list t =
    let rec drain acc =
      match delete_min t with None -> List.rev acc | Some kv -> drain (kv :: acc)
    in
    drain []

  let check_invariants t =
    let n = R.read t.heap_size in
    let capacity = Array.length t.slots - 1 in
    let occupied_slots = Array.make (capacity + 1) false in
    for s = 1 to n do
      occupied_slots.(Repro_util.Bitrev.position_of_size s) <- true
    done;
    let rec check i =
      if i > capacity then Ok ()
      else begin
        let tag = R.read t.slots.(i).tag in
        let occupied = occupied_slots.(i) in
        if occupied then begin
          match tag with
          | Available ->
            let parent = i / 2 in
            if parent >= 1 && R.read t.slots.(parent).tag = Available
               && Int.compare (slot_key t parent) (slot_key t i) > 0
            then Error (Printf.sprintf "heap order violated at slot %d" i)
            else check (i + 1)
          | Empty -> Error (Printf.sprintf "slot %d should be occupied but is Empty" i)
          | Moving _ -> Error (Printf.sprintf "slot %d still in transit at quiescence" i)
        end
        else if tag <> Empty then
          Error (Printf.sprintf "slot %d beyond size %d is not Empty" i n)
        else check (i + 1)
      end
    in
    check 1
end
