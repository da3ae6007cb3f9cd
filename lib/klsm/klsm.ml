(* k-LSM: log-structured merge of sorted flat arrays with per-processor
   insertion buffers and bounded rank error k (Wimmer/Gruber/Träff/Tsigas).

   Every element owns one [bool R.shared] claim cell, created when the
   element first becomes visible and aliased — never copied — into every
   later view of the element (buffer slot, flushed block, merged block).
   The false->true CAS on that cell is the unique linearization point of
   the Delete-min that returns the element, which is what keeps the
   structure conservative under flush/merge republication: however many
   block views hold the element, only one claim can win.

   Rank-error budget (see the .mli): a normal delete never reads foreign
   insertion buffers (worst case (procs-1) * buffer_capacity invisible
   smaller elements) and picks among SLSM block heads whose conservative
   rank estimate is at most [shared_relax]; it always weighs its own
   buffer's minimum against the shared candidate.  The default split
   [(procs-1) * capacity + shared_relax = k] makes the structural error at
   claim time at most k. *)

module Rng = Repro_util.Rng

module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type block = {
    keys : int array; (* ascending; host-immutable after publish *)
    vals : int array;
    taken : bool R.shared array; (* claim cells, aliased across views *)
    first : int R.shared; (* pivot: index of the first possibly-live entry *)
  }

  (* Append-only insertion buffer generation.  The owner writes slot [i]'s
     key/value, then publishes it by advancing [blen]; readers (foreign
     spies, the drain) read [blen] first and at most that many slots, so
     the shared-cell ordering makes the plain array reads safe.  A flush
     freezes the generation (its arrays are never written again) and
     installs a fresh one, so a reader holding an old generation still
     sees a consistent key/cell gluing. *)
  type buffer = {
    bkeys : int array;
    bvals : int array;
    btaken : bool R.shared array;
    blen : int R.shared;
  }

  type pstate = { rng : Rng.t; buf : buffer R.shared }

  type op_stats = {
    inserts : int;
    deletes : int;
    flushes : int;
    merges : int;
    spy_sweeps : int;
    cas_failures : int;
    batch_inserts : int;
    batch_deletes : int;
  }

  type t = {
    k : int;
    buffer_capacity : int;
    shared_relax : int;
    search_cycles : int;
    blocks : block list R.shared;
    pstates : pstate Repro_runtime.Per_proc.t;
    mutable inserts : int;
    mutable deletes : int;
    mutable flushes : int;
    mutable merges : int;
    mutable spy_sweeps : int;
    mutable cas_failures : int;
    mutable batch_inserts : int;
    mutable batch_deletes : int;
  }

  let fresh_buffer cap =
    {
      bkeys = Array.make (Int.max 1 cap) 0;
      bvals = Array.make (Int.max 1 cap) 0;
      btaken = Array.init cap (fun _ -> R.shared false);
      blen = R.shared 0;
    }

  let create ?(seed = 0x5EEDL) ?(search_cycles = 2) ?buffer_capacity ~k ~procs () =
    if k < 1 then invalid_arg "Klsm.create: k < 1";
    if procs < 1 then invalid_arg "Klsm.create: procs < 1";
    let capacity =
      match buffer_capacity with
      | Some c ->
        if c < 0 then invalid_arg "Klsm.create: buffer_capacity < 0" else c
      | None -> Int.min 256 (k / (2 * Int.max 1 (procs - 1)))
    in
    let shared_relax = Int.max 0 (k - ((procs - 1) * capacity)) in
    {
      k;
      buffer_capacity = capacity;
      shared_relax;
      search_cycles;
      blocks = R.shared ~name:"klsm-blocks" [];
      pstates =
        Repro_runtime.Per_proc.create (fun id ->
            let rng =
              Rng.of_seed
                (Int64.add seed (Int64.mul 0xD1B54A32D192ED03L (Int64.of_int (id + 1))))
            in
            { rng; buf = R.shared (fresh_buffer capacity) });
      inserts = 0;
      deletes = 0;
      flushes = 0;
      merges = 0;
      spy_sweeps = 0;
      cas_failures = 0;
      batch_inserts = 0;
      batch_deletes = 0;
    }

  let stats t =
    {
      inserts = t.inserts;
      deletes = t.deletes;
      flushes = t.flushes;
      merges = t.merges;
      spy_sweeps = t.spy_sweeps;
      cas_failures = t.cas_failures;
      batch_inserts = t.batch_inserts;
      batch_deletes = t.batch_deletes;
    }

  let pstate_for t = Repro_runtime.Per_proc.get t.pstates (R.self ())

  (* Simulated charge standing in for the host-side binary searches and
     merge walks (host arrays cost no simulated memory traffic). *)
  let charge_search t len =
    if t.search_cycles > 0 then begin
      let rec levels n = if n <= 1 then 1 else 1 + levels (n / 2) in
      R.work (t.search_cycles * levels (len + 1))
    end

  (* --- SLSM block publication and log-structured merging ---------------- *)

  (* Index of the first entry with key >= [key] (the keys are ascending). *)
  let lower_bound keys key =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo

  let block_size b = Array.length b.keys

  (* Merge two blocks into one, compacting away entries observed taken:
     an observed-taken entry is already some claimant's answer, so the
     merged view may drop it; live entries keep their (aliased) cells. *)
  let merge_blocks t b1 b2 =
    let n1 = block_size b1 and n2 = block_size b2 in
    charge_search t (n1 + n2);
    let keys = Array.make (n1 + n2) 0 in
    let vals = Array.make (n1 + n2) 0 in
    let taken = Array.make (n1 + n2) (R.shared false) in
    let out = ref 0 in
    let push b i =
      if not (R.read b.taken.(i)) then begin
        keys.(!out) <- b.keys.(i);
        vals.(!out) <- b.vals.(i);
        taken.(!out) <- b.taken.(i);
        incr out
      end
    in
    let i1 = ref (R.read b1.first) and i2 = ref (R.read b2.first) in
    while !i1 < n1 || !i2 < n2 do
      if !i1 >= n1 then begin
        push b2 !i2;
        incr i2
      end
      else if !i2 >= n2 then begin
        push b1 !i1;
        incr i1
      end
      else if b1.keys.(!i1) <= b2.keys.(!i2) then begin
        push b1 !i1;
        incr i1
      end
      else begin
        push b2 !i2;
        incr i2
      end
    done;
    {
      keys = Array.sub keys 0 !out;
      vals = Array.sub vals 0 !out;
      taken = Array.sub taken 0 !out;
      first = R.shared 0;
    }

  (* Binary-counter merge rule: while the newest block has grown at least
     as large as its successor, fold them.  Purely an optimization — a
     failed CAS means someone else restructured, so just give up. *)
  let rec maybe_merge t =
    (* The [as] binding matters: the CAS compares physically, so the
       expected value must be the very list read, not a rebuilt cons. *)
    match R.read t.blocks with
    | (b1 :: b2 :: rest) as cur when block_size b1 >= block_size b2 ->
      let merged = merge_blocks t b1 b2 in
      if R.cas t.blocks cur (merged :: rest) then begin
        t.merges <- t.merges + 1;
        maybe_merge t
      end
      else t.cas_failures <- t.cas_failures + 1
    | _ -> ()

  let publish_block t blk =
    let rec cas_prepend () =
      let cur = R.read t.blocks in
      if not (R.cas t.blocks cur (blk :: cur)) then begin
        t.cas_failures <- t.cas_failures + 1;
        cas_prepend ()
      end
    in
    cas_prepend ();
    maybe_merge t

  (* Freeze the current buffer generation into a sorted block (aliasing
     its claim cells), publish it, and install a fresh generation. *)
  let flush t ps buf =
    let len = R.read buf.blen in
    let live = ref [] in
    for i = len - 1 downto 0 do
      if not (R.read buf.btaken.(i)) then live := i :: !live
    done;
    let idxs = Array.of_list !live in
    Array.sort
      (fun a b ->
        match Int.compare buf.bkeys.(a) buf.bkeys.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      idxs;
    charge_search t len;
    let n = Array.length idxs in
    if n > 0 then
      publish_block t
        {
          keys = Array.map (fun i -> buf.bkeys.(i)) idxs;
          vals = Array.map (fun i -> buf.bvals.(i)) idxs;
          taken = Array.map (fun i -> buf.btaken.(i)) idxs;
          first = R.shared 0;
        };
    R.write ps.buf (fresh_buffer t.buffer_capacity);
    t.flushes <- t.flushes + 1

  (* --- insertion --------------------------------------------------------- *)

  let singleton_block k v =
    {
      keys = [| k |];
      vals = [| v |];
      taken = [| R.shared false |];
      first = R.shared 0;
    }

  let insert t k v =
    let ps = pstate_for t in
    if t.buffer_capacity = 0 then publish_block t (singleton_block k v)
    else begin
      let buf = R.read ps.buf in
      let len = R.read buf.blen in
      if len >= t.buffer_capacity then begin
        flush t ps buf;
        let buf = R.read ps.buf in
        buf.bkeys.(0) <- k;
        buf.bvals.(0) <- v;
        R.write buf.blen 1
      end
      else begin
        buf.bkeys.(len) <- k;
        buf.bvals.(len) <- v;
        R.write buf.blen (len + 1)
      end
    end;
    t.inserts <- t.inserts + 1

  let insert_batch t kvs =
    t.batch_inserts <- t.batch_inserts + 1;
    let n = Array.length kvs in
    if n > 0 then begin
      let kvs = Array.copy kvs in
      Array.sort compare kvs;
      charge_search t n;
      publish_block t
        {
          keys = Array.map fst kvs;
          vals = Array.map snd kvs;
          taken = Array.init n (fun _ -> R.shared false);
          first = R.shared 0;
        };
      t.inserts <- t.inserts + n
    end

  (* --- deletion ---------------------------------------------------------- *)

  (* First untaken entry of [b] from its pivot, advancing the pivot past
     the observed-taken prefix (sound: claims never revert). *)
  let block_head t b =
    let n = block_size b in
    let start = R.read b.first in
    let i = ref start in
    while !i < n && R.read b.taken.(!i) do
      incr i
    done;
    if !i > start && not (R.cas b.first start !i) then
      t.cas_failures <- t.cas_failures + 1;
    if !i < n then Some !i else None

  (* Conservative count of live SLSM elements smaller than [key]: entries
     between each block's pivot and its lower bound for [key].  Entries
     taken mid-block are still counted, so the estimate only over-counts —
     an eligible head truly has rank <= shared_relax. *)
  let estimate_rank t blocks key =
    List.fold_left
      (fun acc b ->
        charge_search t (block_size b);
        acc + Int.max 0 (lower_bound b.keys key - R.read b.first))
      0 blocks

  (* The relaxed choice: collect the block heads, keep the true minimum
     head plus every head whose rank estimate fits the shared allowance,
     and pick uniformly from the eligible set. *)
  let choose_slsm t ps blocks =
    let heads =
      List.filter_map
        (fun b -> Option.map (fun i -> (b, i, b.keys.(i))) (block_head t b))
        blocks
    in
    match heads with
    | [] -> None
    | [ h ] -> Some h
    | heads ->
      let min_head =
        List.fold_left
          (fun acc ((_, _, k) as h) ->
            match acc with
            | Some (_, _, mk) when mk <= k -> acc
            | _ -> Some h)
          None heads
      in
      let eligible =
        List.filter
          (fun ((_, _, k) as h) ->
            (match min_head with Some m -> h == m | None -> false)
            || estimate_rank t blocks k <= t.shared_relax)
          heads
      in
      let eligible = match eligible with [] -> heads | e -> e in
      Some (List.nth eligible (Rng.int ps.rng (List.length eligible)))

  (* Smallest untaken entry of one insertion buffer (append order is
     unsorted, so the scan is linear over the published length). *)
  let buffer_min buf =
    let len = R.read buf.blen in
    let best = ref None in
    for i = 0 to len - 1 do
      if not (R.read buf.btaken.(i)) then
        match !best with
        | Some (_, bk) when bk <= buf.bkeys.(i) -> ()
        | _ -> best := Some (i, buf.bkeys.(i))
    done;
    !best

  (* Emptiness fallback ("spying"): sweep every processor's buffer and
     every block for the global minimum and claim it.  This is what makes
     a quiescent drain complete from any processor — elements parked in
     foreign insertion buffers are reachable here. *)
  let full_sweep t =
    t.spy_sweeps <- t.spy_sweeps + 1;
    let rec attempt tries =
      if tries > 4 then None
      else begin
        let best = ref None in
        let consider key claim deliver =
          match !best with
          | Some (bk, _, _) when bk <= key -> ()
          | _ -> best := Some (key, claim, deliver)
        in
        Repro_runtime.Per_proc.iter
          (fun ps ->
            let buf = R.read ps.buf in
            let len = R.read buf.blen in
            for i = 0 to len - 1 do
              if not (R.read buf.btaken.(i)) then
                consider buf.bkeys.(i) buf.btaken.(i)
                  (buf.bkeys.(i), buf.bvals.(i))
            done)
          t.pstates;
        List.iter
          (fun b ->
            match block_head t b with
            | None -> ()
            | Some i -> consider b.keys.(i) b.taken.(i) (b.keys.(i), b.vals.(i)))
          (R.read t.blocks);
        match !best with
        | None -> None
        | Some (_, claim, deliver) ->
          if R.cas claim false true then Some deliver
          else begin
            t.cas_failures <- t.cas_failures + 1;
            attempt (tries + 1)
          end
      end
    in
    attempt 0

  let rec claim_once t ps tries =
    if tries > 8 then full_sweep t
    else begin
      let blocks = R.read t.blocks in
      let buf = R.read ps.buf in
      let own = buffer_min buf in
      let shared_cand = choose_slsm t ps blocks in
      (* Weigh the own-buffer minimum against the shared candidate and
         claim the smaller; a lost CAS means another claimant beat us to
         exactly this element — rescan. *)
      let target =
        match (own, shared_cand) with
        | None, None -> None
        | Some (i, k), None -> Some (buf.btaken.(i), (k, buf.bvals.(i)))
        | None, Some (b, i, k) -> Some (b.taken.(i), (k, b.vals.(i)))
        | Some (oi, ok), Some (b, i, k) ->
          if ok <= k then Some (buf.btaken.(oi), (ok, buf.bvals.(oi)))
          else Some (b.taken.(i), (k, b.vals.(i)))
      in
      match target with
      | None -> full_sweep t
      | Some (claim, deliver) ->
        if R.cas claim false true then Some deliver
        else begin
          t.cas_failures <- t.cas_failures + 1;
          claim_once t ps (tries + 1)
        end
    end

  let delete_min t =
    let ps = pstate_for t in
    let r = claim_once t ps 0 in
    t.deletes <- t.deletes + 1;
    r

  let delete_min_batch t ~want =
    t.batch_deletes <- t.batch_deletes + 1;
    let ps = pstate_for t in
    let rec go acc n =
      if n <= 0 then List.rev acc
      else
        match claim_once t ps 0 with
        | Some kv ->
          t.deletes <- t.deletes + 1;
          go (kv :: acc) (n - 1)
        | None -> List.rev acc
    in
    go [] want

  (* --- introspection ------------------------------------------------------ *)

  let block_count t = List.length (R.read t.blocks)

  let live_length t =
    let n = ref 0 in
    Repro_runtime.Per_proc.iter
      (fun ps ->
        let buf = R.read ps.buf in
        let len = R.read buf.blen in
        for i = 0 to len - 1 do
          if not (R.read buf.btaken.(i)) then incr n
        done)
      t.pstates;
    List.iter
      (fun b ->
        for i = R.read b.first to block_size b - 1 do
          if not (R.read b.taken.(i)) then incr n
        done)
      (R.read t.blocks);
    !n
end
