module O = Repro_pqueue.Oracle
module QA = Repro_workload.Queue_adapter

type history = {
  impl : string;
  dedups : bool;
  spec : QA.spec;
  seed : int64;
  events : O.event list; (* response order *)
  drained : (int * int) list; (* post-quiescence drain, in pop order *)
  capacity : int option; (* bounded-façade capacity, when one was in force *)
  spans : History.span list; (* operations that parked, with park/wake clocks *)
}

type verdict = Pass | Fail of string | Skip of string

let of_result = function Ok () -> Pass | Error msg -> Fail msg

(* --- wrappers over the lib/pqueue oracle --------------------------------- *)

let well_formed h = of_result (O.check_well_formed h.events)

let conservation h =
  (* The drain of a rank-relaxed queue pops sampled shard minima, not the
     global minimum, so only the multiset part of the oracle's condition
     applies — sort the drain before handing it over. *)
  let drained =
    match h.spec with
    | QA.Rank_bounded _ -> List.sort compare h.drained
    | QA.Linearizable | QA.Quiescent _ | QA.Relaxed -> h.drained
  in
  of_result (O.check_conservation ~initial:[] ~drained h.events)

let strict h = of_result (O.check_strict h.events)

(* The mean is taken along the serialization the greedy found: another
   serialization may have a lower one, so the mean ceiling is a
   statistical contract, not a decided property. *)
let ranked { QA.max_rank; mean_rank } h =
  match O.check_ranked ~max_rank h.events with
  | Error msg -> Fail msg
  | Ok ranks ->
    let count = List.length ranks in
    let mean =
      if count = 0 then 0.0 else float_of_int (List.fold_left ( + ) 0 ranks) /. float_of_int count
    in
    if mean > mean_rank then
      Fail
        (Printf.sprintf "mean rank %.2f over %d deletes exceeds %.2f (max seen %d)" mean count
           mean_rank (List.fold_left Int.max 0 ranks))
    else Pass

(* --- quiescent consistency ----------------------------------------------- *)

(* Conservative quiescent-consistency condition: a Delete-min [d] must not
   return a key above (or EMPTY instead of) an element that was fully
   inserted before the start of [d]'s busy period — the maximal interval of
   pairwise-overlapping activity containing [d] — unless a delete that
   could be serialized before [d] removed it.  Weaker than the per-delete
   condition Definition 1 implies (which uses [d]'s own invocation as the
   cut), but it is the condition quiescently-consistent relaxations must
   still satisfy.

   Any [d] that overlaps another in-flight Delete-min is exempt:
   structures like the Hunt heap carry a detached element in the deleting
   processor's hands — in no slot, invisible — until that delete
   finishes, so a concurrent delete may legitimately miss it.  The
   schedule fuzzer exhibits exactly this on the heap (a fully-inserted key
   rides through a concurrent delete while a larger key is returned, then
   lands and survives to the drain). *)
let quiescent h =
  let by_invocation =
    List.sort (fun a b -> compare (a.O.invoked, a.O.responded) (b.O.invoked, b.O.responded))
      h.events
  in
  (* Assign each event the start time of its merged busy interval. *)
  let period_start = Hashtbl.create 64 in
  let _ =
    List.fold_left
      (fun acc e ->
        let start, reach =
          match acc with
          | Some (start, reach) when e.O.invoked < reach -> (start, Int.max reach e.O.responded)
          | _ -> (e.O.invoked, e.O.responded)
        in
        Hashtbl.replace period_start e start;
        Some (start, reach))
      None by_invocation
  in
  let deletes_by_id = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.O.op with
      | O.Delete_min { result = Some (_, id) } -> Hashtbl.add deletes_by_id id e
      | _ -> ())
    h.events;
  let violates d =
    let q = Hashtbl.find period_start d in
    let d_key =
      match d.O.op with
      | O.Delete_min { result = Some (k, _) } -> Some k
      | O.Delete_min { result = None } -> None
      | O.Insert _ -> assert false
    in
    List.find_map
      (fun e ->
        match e.O.op with
        | O.Insert { key = y_key; id = y_id } when e.O.responded < q ->
          (* A delete that took [y] can serialize before [d] unless it sits
             in a strictly later busy period (quiescent consistency permits
             arbitrary reordering within one busy period). *)
          let taken_before_d =
            match Hashtbl.find_opt deletes_by_id y_id with
            | Some d' -> Hashtbl.find period_start d' <= q
            | None -> false
          in
          if taken_before_d then None
          else begin
            match d_key with
            | None ->
              Some
                (Printf.sprintf
                   "Delete-min returned EMPTY while key %d (id %d, quiescently present) was available"
                   y_key y_id)
            | Some k when k > y_key ->
              Some
                (Printf.sprintf
                   "Delete-min returned %d while smaller key %d (id %d) survived the last quiescent point"
                   k y_key y_id)
            | Some _ -> None
          end
        | O.Insert _ | O.Delete_min _ -> None)
      h.events
  in
  let overlapped_by_delete d =
    List.exists
      (fun e ->
        match e.O.op with
        | O.Delete_min _ -> e != d && e.O.invoked < d.O.responded && e.O.responded > d.O.invoked
        | O.Insert _ -> false)
      h.events
  in
  let rec scan = function
    | [] -> Pass
    | e :: rest -> (
      match e.O.op with
      | O.Insert _ -> scan rest
      | O.Delete_min _ when overlapped_by_delete e -> scan rest
      | O.Delete_min _ -> ( match violates e with None -> scan rest | Some m -> Fail m))
  in
  scan h.events

(* --- blocking-aware checks ------------------------------------------------ *)

(* A delete that parked is a [delete_min_wait]: it may only return once an
   element is available, so its result must be [Some], its park/wake
   clocks must nest inside its invocation span, and the element it
   returned must come from an insert that had started before the delete
   responded.  (The stronger "inserted before the wake" is NOT sound: the
   wake only means some element was available at signal time; between the
   wake and the backend pop a smaller, newer element may land and be the
   one returned.)  Inserts that parked are backpressure stalls; only the
   clock-nesting condition applies to them. *)
let blocking_wakeups h =
  if h.spans = [] then Skip "no operation parked"
  else begin
    let insert_invoked = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match e.O.op with
        | O.Insert { id; _ } -> Hashtbl.replace insert_invoked id e.O.invoked
        | O.Delete_min _ -> ())
      h.events;
    let bad =
      List.find_map
        (fun { History.event = e; parks; parked_at; woken_at } ->
          if parks < 1 || parked_at < e.O.invoked || woken_at < parked_at
             || e.O.responded < woken_at
          then
            Some
              (Printf.sprintf
                 "park/wake clocks escape the operation: invoked %d, parked %d, woken %d, responded %d"
                 e.O.invoked parked_at woken_at e.O.responded)
          else
            match e.O.op with
            | O.Insert _ -> None
            | O.Delete_min { result = None } ->
              Some "a blocked Delete-min returned EMPTY"
            | O.Delete_min { result = Some (key, id) } -> (
              match Hashtbl.find_opt insert_invoked id with
              | None ->
                Some
                  (Printf.sprintf
                     "blocked Delete-min returned key %d (id %d) that no recorded insert produced"
                     key id)
              | Some ins_invoked ->
                if ins_invoked < e.O.responded then None
                else
                  Some
                    (Printf.sprintf
                       "blocked Delete-min (responded %d) returned id %d whose insert only started at %d"
                       e.O.responded id ins_invoked)))
        h.spans
    in
    match bad with None -> Pass | Some m -> Fail m
  end

(* Sound capacity lower bound: by any time [T], every insert that has
   responded was admitted, and at most (deletes responded with an element)
   + (deletes in flight at [T]) elements can have been removed — so the
   structure held at least [ins_resp - del_resp - del_inflight] elements.
   If that exceeds the façade's capacity, the bound was violated.  (An
   exact occupancy is not derivable from endpoint timestamps alone; this
   conservative bound never false-positives.) *)
let capacity_bound h =
  match h.capacity with
  | None -> Skip "no capacity bound in force"
  | Some cap ->
    let deletes =
      List.filter_map
        (fun e ->
          match e.O.op with
          | O.Delete_min { result = Some _ } -> Some (e.O.invoked, e.O.responded)
          | O.Delete_min { result = None } | O.Insert _ -> None)
        h.events
    in
    let inflight_at t =
      List.fold_left
        (fun acc (inv, resp) -> if inv <= t && resp > t then acc + 1 else acc)
        0 deletes
    in
    let by_response =
      List.sort (fun a b -> compare (a.O.responded, a.O.invoked) (b.O.responded, b.O.invoked))
        h.events
    in
    let rec scan ins_resp del_resp = function
      | [] -> Pass
      | e :: rest -> (
        match e.O.op with
        | O.Insert _ ->
          let ins_resp = ins_resp + 1 in
          let t = e.O.responded in
          let low = ins_resp - del_resp - inflight_at t in
          if low > cap then
            Fail
              (Printf.sprintf
                 "at time %d the structure provably held >= %d elements (capacity %d)"
                 t low cap)
          else scan ins_resp del_resp rest
        | O.Delete_min { result = Some _ } -> scan ins_resp (del_resp + 1) rest
        | O.Delete_min { result = None } -> scan ins_resp del_resp rest)
    in
    scan 0 0 by_response

(* --- per-spec suites ------------------------------------------------------ *)

(* [Linearizable] and [Relaxed] share the complete Definition-1 check: at
   the recorder's interval granularity the §5.4 condition is the same
   serialization, a concurrently inserted smaller element being Definition
   1's optional overlapping insert (DESIGN.md §6).  A pass implies
   quiescent consistency, and on a sequential history (dedup keys are
   unique in the harness) the sequential specification.  The other two
   contracts run the same greedy at their declared ceiling; beside it,
   [quiescent] holds a sequential heap history to the sequential
   specification too (DESIGN.md §6). *)
let for_spec spec =
  let common = [ ("well-formed", well_formed); ("conservation", conservation) ] in
  match spec with
  | QA.Linearizable | QA.Relaxed -> common @ [ ("strict (Def 1)", strict) ]
  | QA.Quiescent c ->
    common @ [ ("quiescent (transit-tolerant)", quiescent); ("rank-bound", ranked c) ]
  | QA.Rank_bounded c -> common @ [ ("rank-bound", ranked c) ]

(* Spec-independent: parking and capacity are façade properties, layered
   over whatever ordering contract the inner structure claims. *)
let blocking_suite =
  [ ("blocking (park/wake)", blocking_wakeups); ("capacity-bound", capacity_bound) ]

let check_all h =
  let suite = for_spec h.spec in
  let suite = if h.capacity <> None || h.spans <> [] then suite @ blocking_suite else suite in
  List.map (fun (name, f) -> (name, f h)) suite

let failures verdicts =
  List.filter_map
    (fun (name, v) -> match v with Fail msg -> Some (name, msg) | Pass | Skip _ -> None)
    verdicts
