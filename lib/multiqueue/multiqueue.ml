module Rng = Repro_util.Rng

module Make (R : Repro_runtime.Runtime_intf.S) = struct
  module Heap = Repro_pqueue.Seq_heap

  type 'v shard = {
    lock : R.lock;
    heap : 'v Heap.t;
    top : int option R.shared;  (* cached minimum, readable without the lock *)
    mutable published : int option;  (* last value written to [top]; only
                                        touched while holding [lock] *)
  }

  (* Per-processor sampling state: the sticky shard choices and the stream
     they are drawn from. *)
  type pstate = {
    rng : Rng.t;
    mutable ins_shard : int;
    mutable ins_left : int;
    del_shards : int array;  (* [choice] sampled shard indices *)
    mutable del_left : int;
  }

  type 'v t = {
    shards : 'v shard array;
    pstates : pstate Repro_runtime.Per_proc.t;
    mutable lock_failures : int;
    mutable empty_pops : int;
    mutable full_sweeps : int;
    mutable resticks : int;
  }

  (* The configuration of "Engineering MultiQueues": c = 2 shards per
     processor, two-choice Delete-mins, and sampled shards reused for 8
     operations.  With at least 2 shards, the 2 samples are always
     distinct. *)
  let shards_per_proc = 2
  let choice = 2
  let sticky_ops = 8

  (* About one local fetch per heap level of the sequential walk. *)
  let cycles_per_level = 11

  let create ?(seed = 0x5EEDL) ~procs () =
    if procs < 1 then invalid_arg "Multiqueue.create: procs < 1";
    let n = shards_per_proc * procs in
    {
      shards =
        Array.init n (fun i ->
            {
              lock = R.lock_create ~name:(Printf.sprintf "mq-shard-%d" i) ();
              heap = Heap.create ();
              top = R.shared ~name:(Printf.sprintf "mq-top-%d" i) None;
              published = None;
            });
      pstates =
        Repro_runtime.Per_proc.create (fun id ->
            let rng =
              Rng.of_seed
                (Int64.add seed (Int64.mul 0xD1B54A32D192ED03L (Int64.of_int (id + 1))))
            in
            {
              rng;
              ins_shard = Rng.int rng n;
              ins_left = 0;
              del_shards = Array.make choice 0;
              del_left = 0;
            });
      lock_failures = 0;
      empty_pops = 0;
      full_sweeps = 0;
      resticks = 0;
    }

  let shards t = Array.length t.shards
  let length t = Array.fold_left (fun n s -> n + Heap.length s.heap) 0 t.shards

  let stats t =
    [
      ("shards", float_of_int (shards t));
      ("lock_failures", float_of_int t.lock_failures);
      ("empty_pops", float_of_int t.empty_pops);
      ("full_sweeps", float_of_int t.full_sweeps);
      ("resticks", float_of_int t.resticks);
    ]

  let pstate_for t = Repro_runtime.Per_proc.get t.pstates (R.self ())

  (* Draw [choice] distinct shard indices into [ps.del_shards]. *)
  let resample_deletes t ps =
    let n = shards t in
    for i = 0 to choice - 1 do
      let rec fresh () =
        let c = Rng.int ps.rng n in
        let rec dup j = j < i && (ps.del_shards.(j) = c || dup (j + 1)) in
        if dup 0 then fresh () else c
      in
      ps.del_shards.(i) <- fresh ()
    done;
    ps.del_left <- sticky_ops;
    t.resticks <- t.resticks + 1

  (* The sequential heap walk, which the runtime cannot observe, charged
     per heap level. *)
  let charge_heap_walk len =
    let rec levels n = if n <= 1 then 1 else 1 + levels (n / 2) in
    R.charge (cycles_per_level * levels (len + 1))

  let opt_key_equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Int.equal x y
    | _ -> false

  let publish s top =
    if not (opt_key_equal s.published top) then begin
      s.published <- top;
      R.write s.top top
    end

  (* Both locked-section bodies run while holding [s.lock]. *)
  let locked_insert s k v =
    charge_heap_walk (Heap.length s.heap);
    Heap.insert s.heap k v;
    match s.published with
    | Some m when m <= k -> ()
    | _ -> publish s (Some k)

  let locked_pop s =
    charge_heap_walk (Heap.length s.heap);
    match Heap.delete_min s.heap with
    | None ->
      publish s None;
      None
    | Some (k, v) ->
      publish s (Option.map fst (Heap.peek_min s.heap));
      Some (k, v)

  let insert t k v =
    let ps = pstate_for t in
    if ps.ins_left <= 0 then begin
      ps.ins_shard <- Rng.int ps.rng (shards t);
      ps.ins_left <- sticky_ops;
      t.resticks <- t.resticks + 1
    end;
    let max_tries = (2 * shards t) + 2 in
    let rec attempt tries =
      let s = t.shards.(ps.ins_shard) in
      if tries >= max_tries then begin
        (* Pathological contention: fall back to blocking, which the
           simulator's FIFO locks make wait-free. *)
        R.acquire s.lock;
        locked_insert s k v;
        R.release s.lock
      end
      else if R.try_acquire s.lock then begin
        locked_insert s k v;
        R.release s.lock
      end
      else begin
        t.lock_failures <- t.lock_failures + 1;
        t.resticks <- t.resticks + 1;
        ps.ins_shard <- Rng.int ps.rng (shards t);
        ps.ins_left <- sticky_ops;
        attempt (tries + 1)
      end
    in
    attempt 0;
    ps.ins_left <- ps.ins_left - 1

  (* Definitive fallback: walk every shard under its (blocking) lock.  Only
     reached when the sampled minima all read empty or the try-locks kept
     losing — i.e. when the queue is nearly drained or wildly contended. *)
  let full_sweep t =
    t.full_sweeps <- t.full_sweeps + 1;
    let n = shards t in
    let rec go i =
      if i >= n then None
      else begin
        let s = t.shards.(i) in
        R.acquire s.lock;
        let popped = locked_pop s in
        R.release s.lock;
        match popped with Some _ as r -> r | None -> go (i + 1)
      end
    in
    go 0

  (* The c-way choice: read the sampled shards' cached minima and return
     the index holding the smallest, or [None] if every sample is empty. *)
  let best_sample t ps =
    let best = ref (-1) in
    let best_key = ref None in
    for i = 0 to choice - 1 do
      let idx = ps.del_shards.(i) in
      match R.read t.shards.(idx).top with
      | None -> ()
      | Some k as top -> (
        match !best_key with
        | Some bk when bk <= k -> ()
        | _ ->
          best := idx;
          best_key := top)
    done;
    if !best < 0 then None else Some !best

  let delete_min t =
    let ps = pstate_for t in
    if ps.del_left <= 0 then resample_deletes t ps;
    let max_tries = (2 * shards t) + 2 in
    let rec attempt tries =
      if tries >= max_tries then full_sweep t
      else
        match best_sample t ps with
        | None -> full_sweep t
        | Some idx ->
          let s = t.shards.(idx) in
          if R.try_acquire s.lock then begin
            let popped = locked_pop s in
            R.release s.lock;
            match popped with
            | Some _ as r -> r
            | None ->
              (* The shard drained between the cached read and the lock. *)
              t.empty_pops <- t.empty_pops + 1;
              resample_deletes t ps;
              attempt (tries + 1)
          end
          else begin
            t.lock_failures <- t.lock_failures + 1;
            resample_deletes t ps;
            attempt (tries + 1)
          end
    in
    let r = attempt 0 in
    ps.del_left <- ps.del_left - 1;
    r
end
