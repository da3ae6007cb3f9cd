module O = Repro_pqueue.Oracle.Make (Repro_pqueue.Key.Int)
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

type bounds = { max_rank : int; mean_rank : float }

(* The rank ceilings are sized for the registry's MultiQueue (32 shards,
   2-choice): its expected per-delete rank error is O(shards), so the mean
   must stay below the shard count and no single delete should exceed a
   few multiples of it.  An 80-seed sweep of the default profile observed
   worst mean 19.0 and worst single rank 50. *)
let default_bounds = { max_rank = 128; mean_rank = 32.0 }

let of_result = function Ok () -> Pass | Error msg -> Fail msg

(* --- wrappers over the lib/pqueue oracle --------------------------------- *)

let well_formed h = of_result (O.check_well_formed h.events)

let conservation h =
  (* The drain of a rank-relaxed queue pops sampled shard minima, not the
     global minimum, so only the multiset part of the oracle's condition
     applies — sort the drain before handing it over. *)
  let drained =
    match h.spec with
    | QA.Rank_bounded -> List.sort compare h.drained
    | QA.Linearizable | QA.Quiescent | QA.Relaxed -> h.drained
  in
  of_result (O.check_conservation ~initial:[] ~drained h.events)

let strict h = of_result (O.check_strict h.events)

(* --- sequential-spec replay ---------------------------------------------- *)

module Int_map = Map.Make (Int)

(* Applies only to histories with no overlapping operations (e.g. a
   single-worker fuzz run): every response is then checked against the
   sequential specification, exactly. *)
let sequential_replay h =
  let by_invocation =
    List.sort (fun a b -> compare (a.O.invoked, a.O.responded) (b.O.invoked, b.O.responded))
      h.events
  in
  let rec overlaps = function
    | a :: (b :: _ as rest) -> a.O.responded > b.O.invoked || overlaps rest
    | [] | [ _ ] -> false
  in
  if overlaps by_invocation then Skip "history is concurrent"
  else begin
    (* live : key -> id list (a singleton under update-in-place) *)
    let step live e =
      match e.O.op with
      | O.Insert { key; id } ->
        let ids = Option.value ~default:[] (Int_map.find_opt key live) in
        let ids = if h.dedups then [ id ] else id :: ids in
        Ok (Int_map.add key ids live)
      | O.Delete_min { result = None } ->
        if Int_map.is_empty live then Ok live
        else
          Error
            (Printf.sprintf "sequential Delete-min returned EMPTY with %d live keys"
               (Int_map.cardinal live))
      | O.Delete_min { result = Some (key, id) } -> (
        match Int_map.min_binding_opt live with
        | None -> Error (Printf.sprintf "sequential Delete-min returned %d from an empty queue" key)
        | Some (min_key, ids) ->
          if key <> min_key then
            Error
              (Printf.sprintf "sequential Delete-min returned key %d, minimum was %d"
                 key min_key)
          else if not (List.mem id ids) then
            Error (Printf.sprintf "sequential Delete-min returned id %d not live for key %d" id key)
          else
            let ids = List.filter (fun i -> i <> id) ids in
            Ok (if ids = [] then Int_map.remove key live else Int_map.add key ids live))
    in
    let rec replay live = function
      | [] -> Pass
      | e :: rest -> ( match step live e with Ok live -> replay live rest | Error m -> Fail m)
    in
    replay Int_map.empty by_invocation
  end

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

(* --- rank-error envelope -------------------------------------------------- *)

(* Replays the history in completion order against a live multiset and
   measures each Delete-min's rank error (live elements strictly smaller
   than the returned key), exactly like the benchmark's host-side oracle: a
   delete may complete before the insert that fed it, booked as a debt by
   element id.  The envelope fails on any per-operation rank above
   [max_rank] or a mean above [mean_rank]. *)
let rank_envelope ?(bounds = default_bounds) h =
  let live = Hashtbl.create 256 in (* id -> key *)
  let debts = Hashtbl.create 16 in
  let total = ref 0.0 and count = ref 0 and worst = ref 0 in
  let rank_below key =
    Hashtbl.fold (fun _ k acc -> if k < key then acc + 1 else acc) live 0
  in
  let violation =
    List.find_map
      (fun e ->
        match e.O.op with
        | O.Insert { key; id } ->
          if Hashtbl.mem debts id then Hashtbl.remove debts id
          else Hashtbl.replace live id key;
          None
        | O.Delete_min { result = None } -> None
        | O.Delete_min { result = Some (key, id) } ->
          let rank = rank_below key in
          incr count;
          total := !total +. float_of_int rank;
          if rank > !worst then worst := rank;
          if Hashtbl.mem live id then Hashtbl.remove live id
          else Hashtbl.replace debts id ();
          if rank > bounds.max_rank then
            Some
              (Printf.sprintf "Delete-min of key %d had rank error %d (envelope max %d)"
                 key rank bounds.max_rank)
          else None)
      h.events
  in
  match violation with
  | Some msg -> Fail msg
  | None ->
    let mean = if !count = 0 then 0.0 else !total /. float_of_int !count in
    if mean > bounds.mean_rank then
      Fail
        (Printf.sprintf "mean rank error %.2f over %d deletes exceeds envelope %.2f (max seen %d)"
           mean !count bounds.mean_rank !worst)
    else Pass

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

(* k-LSM histories are held to a ceiling derived from the structure's own
   rank bound ([impl.rank_bound], carried through the bounded façade and
   set by the torn-spill mutant), not the MultiQueue-sized defaults: the
   envelope replaces both rank ceilings with [k + klsm_margin], saturating
   at [max_int].  The margin absorbs the slack between the structural
   bound (k elements may be skipped inside the structure) and what the
   completion-order replay can attribute: an insert that has linearized
   but not yet completed is not yet live in the replay, so at the default
   6-processor profile a handful of in-flight operations can inflate an
   observed rank past k itself. *)
let klsm_margin = 24

let bounds_for rank_bound =
  match rank_bound with
  | Some k ->
    let ceiling = if k > max_int - klsm_margin then max_int else k + klsm_margin in
    { max_rank = ceiling; mean_rank = float_of_int ceiling }
  | None -> default_bounds

(* [Linearizable] and [Relaxed] share the complete Definition-1 check: at
   the recorder's interval granularity the §5.4 condition is the same
   serialization, a concurrently inserted smaller element being Definition
   1's optional overlapping insert (DESIGN.md §6).  A pass implies
   quiescent consistency, and on a sequential history (dedup keys are
   unique in the harness) the sequential specification. *)
let for_spec ~rank_bound spec =
  let bounds = bounds_for rank_bound in
  let common = [ ("well-formed", well_formed); ("conservation", conservation) ] in
  match spec with
  | QA.Linearizable | QA.Relaxed -> common @ [ ("strict (Def 1)", strict) ]
  | QA.Quiescent ->
    common
    @ [
        ("sequential-replay", sequential_replay);
        ("quiescent (transit-tolerant)", quiescent);
        ("rank-envelope", rank_envelope ~bounds);
      ]
  | QA.Rank_bounded -> common @ [ ("rank-envelope", rank_envelope ~bounds) ]

(* Spec-independent: parking and capacity are façade properties, layered
   over whatever ordering contract the inner structure claims. *)
let blocking_suite =
  [ ("blocking (park/wake)", blocking_wakeups); ("capacity-bound", capacity_bound) ]

let check_all ~rank_bound h =
  let suite = for_spec ~rank_bound h.spec in
  let suite = if h.capacity <> None || h.spans <> [] then suite @ blocking_suite else suite in
  List.map (fun (name, f) -> (name, f h)) suite

let failures verdicts =
  List.filter_map
    (fun (name, v) -> match v with Fail msg -> Some (name, msg) | Pass | Skip _ -> None)
    verdicts
