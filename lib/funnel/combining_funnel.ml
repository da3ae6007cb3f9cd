module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type status = Racing | Claimed | Applying

  type 'req token = {
    id : int;
    kind : int;
    lock : R.lock;
    (* [status] and [group] are only accessed with [lock] held. *)
    mutable status : status;
    mutable group : 'req list;
  }

  type 'req t = {
    layers : 'req token option R.shared array array;
    collision_window : int;
    miss_tolerance : int;
    exclusion : R.lock;
    apply : 'req list -> unit;
    is_done : 'req -> bool;
    kind_of : 'req -> int;
    token_ids : int R.shared; (* unique token ids; protected by id_lock *)
    id_lock : R.lock;
    rngs : Repro_util.Rng.t Repro_runtime.Per_proc.t; (* per-processor layer-slot streams *)
    mutable stat_batches : int;
    mutable stat_combines : int;
    mutable stat_largest : int;
  }

  let create ?(layer_widths = [ 16; 8; 4; 2 ]) ?(collision_window = 40)
      ?(miss_tolerance = 0) ~apply ~is_done ~kind_of () =
    if layer_widths = [] then invalid_arg "Combining_funnel.create: no layers";
    if List.exists (fun w -> w < 1) layer_widths then
      invalid_arg "Combining_funnel.create: empty layer";
    {
      layers =
        Array.of_list
          (List.map (fun w -> Array.init w (fun _ -> R.shared None)) layer_widths);
      collision_window;
      miss_tolerance;
      exclusion = R.lock_create ~name:"funnel-exclusion" ();
      apply;
      is_done;
      kind_of;
      token_ids = R.shared 0;
      id_lock = R.lock_create ~name:"funnel-ids" ();
      rngs =
        Repro_runtime.Per_proc.create (fun id ->
            Repro_util.Rng.of_seed (Int64.of_int (0xF0_0D + id)));
      stat_batches = 0;
      stat_combines = 0;
      stat_largest = 0;
    }

  let stats t =
    [
      ("batches", float_of_int t.stat_batches);
      ("combines", float_of_int t.stat_combines);
      ("largest_batch", float_of_int t.stat_largest);
    ]

  let rng_for t = Repro_runtime.Per_proc.get t.rngs (R.self ())

  (* Try to absorb [peer]'s group into [me].  Both token locks are taken in
     id order so two tokens capturing each other cannot deadlock; the
     capture happens only if both are still racing and carry the same kind
     of request. *)
  let try_claim t me peer =
    if peer.kind <> me.kind then false
    else begin
      let first, second = if me.id < peer.id then (me, peer) else (peer, me) in
      R.acquire first.lock;
      R.acquire second.lock;
      let captured =
        if me.status = Racing && peer.status = Racing then begin
          peer.status <- Claimed;
          me.group <- me.group @ peer.group;
          peer.group <- [];
          t.stat_combines <- t.stat_combines + 1;
          true
        end
        else false
      in
      R.release second.lock;
      R.release first.lock;
      captured
    end

  let wait_done t req =
    while not (t.is_done req) do
      R.yield ()
    done

  (* Unique token ids from a lock-protected counter.  Ids order the
     two-lock capture handshake, so uniqueness is required; the critical
     section is two memory accesses. *)
  let fresh_id t =
    R.acquire t.id_lock;
    let id = R.read t.token_ids in
    R.write t.token_ids (id + 1);
    R.release t.id_lock;
    id

  let perform t req =
    let tok =
      {
        id = fresh_id t;
        kind = t.kind_of req;
        lock = R.lock_create ~name:"funnel-token" ();
        status = Racing;
        group = [ req ];
      }
    in
    let claimed_meanwhile () =
      R.acquire tok.lock;
      let c = tok.status = Claimed in
      R.release tok.lock;
      c
    in
    (* Poor man's adaptivity (the original funnel resizes on-line): bail
       out of the funnel after [miss_tolerance] consecutive collision-free
       layers, so a lightly loaded funnel costs almost nothing and a
       contended one is walked in full. *)
    let rec walk layer misses =
      if claimed_meanwhile () then wait_done t req
      else if layer >= Array.length t.layers || misses > t.miss_tolerance then
        finish ()
      else begin
        let cells = t.layers.(layer) in
        let cell = cells.(Repro_util.Rng.int (rng_for t) (Array.length cells)) in
        let collided =
          match R.swap cell (Some tok) with
          | Some peer when peer != tok -> try_claim t tok peer
          | Some _ | None -> false
        in
        (* Linger so others can hit the posted token. *)
        R.work t.collision_window;
        walk (layer + 1) (if collided then 0 else misses + 1)
      end
    and finish () =
      R.acquire tok.lock;
      match tok.status with
      | Claimed ->
        R.release tok.lock;
        wait_done t req
      | Applying ->
        (* unreachable: only this processor sets Applying *)
        R.release tok.lock;
        assert false
      | Racing ->
        tok.status <- Applying;
        let group = tok.group in
        tok.group <- [];
        R.release tok.lock;
        R.acquire t.exclusion;
        t.apply group;
        R.release t.exclusion;
        t.stat_batches <- t.stat_batches + 1;
        if List.length group > t.stat_largest then
          t.stat_largest <- List.length group
    in
    walk 0 0
end
