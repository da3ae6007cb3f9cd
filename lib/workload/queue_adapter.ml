type instance = {
  insert : int -> int -> unit;
  insert_wait : int -> int -> unit;
  try_delete_min : unit -> (int * int) option;
  delete_min_wait : unit -> int * int;
  stats : unit -> (string * float) list;
}

type ceiling = { max_rank : int; mean_rank : float }
type spec = Linearizable | Quiescent of ceiling | Relaxed | Rank_bounded of ceiling

type impl = {
  name : string;
  dedups : bool;
  spec : spec;
  create : unit -> instance;
}

(* ---- descriptors -------------------------------------------------------- *)

type base =
  | Skipqueue | Lf | Co | Heap | Funnel_list | Multiqueue | Klsm of int | Bin of int
  | Delete_funnel | Reclamation

type descriptor = { base : base; relaxed : bool; elim : bool; bounded : int option }

let plain base = { base; relaxed = false; elim = false; bounded = None }
let default_capacity = 1024

let base_name = function
  | Skipqueue -> "SkipQueue"
  | Lf -> "SkipQueue-lf"
  | Co -> "SkipQueue-co"
  | Heap -> "Heap"
  | Funnel_list -> "FunnelList"
  | Multiqueue -> "MultiQueue"
  | Klsm k -> Printf.sprintf "klsm:%d" k
  | Bin range -> Printf.sprintf "BinQueue(%d)" range
  | Delete_funnel -> "SkipQueue + delete funnel"
  | Reclamation -> "SkipQueue + reclamation"

let name d =
  (if d.bounded <> None then "bounded:" else "")
  ^ (if d.relaxed then "Relaxed " else "")
  ^ base_name d.base
  ^ if d.elim then "-elim" else ""

(* The validity table: the (relaxed, elim) flavors each base is built in.
   The bounded façade wraps every base but the two ablations. *)
let flavors = function
  | Skipqueue -> [ (false, false); (true, false); (false, true); (true, true) ]
  | Co -> [ (false, false); (true, false); (false, true) ]
  | _ -> [ (false, false) ]

let ablation = function Delete_funnel | Reclamation -> true | _ -> false

(* The ablations and the bin queue (its key range is sized to the
   simulator figures' workloads) are built on the simulator only. *)
let sim_only = function Delete_funnel | Reclamation | Bin _ -> true | _ -> false

let max_key_range = 1 lsl 20

let validate d =
  let positive what n =
    if n >= 1 then Ok () else Error (Printf.sprintf "%s must be a positive integer, got %d" what n)
  in
  let ( let* ) = Result.bind in
  let* () =
    match d.base with
    | Klsm k -> positive "k-LSM rank bound" k
    | Bin range ->
      let* () = positive "bin-queue range" range in
      (* one bin per key, allocated up front *)
      if range <= max_key_range then Ok ()
      else
        Error
          (Printf.sprintf
             "bin-queue range must be at most %d (2^20, the largest key range a workload \
              draws), got %d"
             max_key_range range)
    | _ -> Ok ()
  in
  let* () = match d.bounded with Some c -> positive "bounded capacity" c | None -> Ok () in
  let fl = flavors d.base in
  if not (List.mem (d.relaxed, false) fl) then
    Error (base_name d.base ^ " has no relaxed flavor")
  else if not (List.mem (d.relaxed, d.elim) fl) then
    Error (name { d with elim = false; bounded = None } ^ " has no elimination front end")
  else if d.bounded <> None && ablation d.base then
    Error (base_name d.base ^ " is an ablation and cannot be bounded")
  else Ok ()

(* Sized for the registry's MultiQueue (32 shards, 2-choice): its expected
   per-delete rank error is O(shards), so the mean must stay below the
   shard count and no single delete should exceed a few multiples of it.
   Along the rank check's serialization, seeds 1-100 of the default check
   profile saw a largest rank of 50 and a largest mean of 18.0, and at 32
   workers 80 and 24.7 (EXPERIMENTS.md A8).  The heap, whose in-transit
   element a concurrent delete may miss (largest rank 14), is held to the
   same ceiling. *)
let sampled = { max_rank = 128; mean_rank = 32.0 }

let spec_of d =
  if d.relaxed then Relaxed
  else
    match d.base with
    (* Hunt's delete-min holds the detached "last" element in no slot before
       re-inserting it at the root, invisible to concurrent operations; at
       quiescence every transit has landed. *)
    | Heap -> Quiescent sampled
    | Multiqueue -> Rank_bounded sampled
    | Klsm k -> Rank_bounded { max_rank = k; mean_rank = float_of_int k }
    | _ -> Linearizable

(* Update-in-place on a present key: the paper's lock-based SkipQueue and
   its two ablations.  Every other structure, the coalescing layout
   included, keeps duplicates as distinct elements. *)
let dedups_of = function
  | Skipqueue | Delete_funnel | Reclamation -> true
  | Lf | Co | Heap | Funnel_list | Multiqueue | Klsm _ | Bin _ -> false

let describe d create =
  {
    name = name d;
    dedups = dedups_of d.base;
    spec = spec_of d;
    create;
  }

(* ---- name-keyed registry ------------------------------------------------ *)

type backend = Sim | Native

(* default_workload concurrency: the MultiQueue and k-LSM are sized for it *)
let registry_procs = 16

(* The canonical bases, in listing order, the parameterized ones at their
   registry defaults. *)
let bases =
  [ Skipqueue; Lf; Co; Heap; Funnel_list; Multiqueue; Klsm 256; Delete_funnel; Reclamation;
    Bin 65_536 ]

(* Every valid descriptor over [bases]: each base in each of its flavors,
   then all of them again behind the façade.  The façade's capacity (1024)
   is far above what the standard mixed-ops check profile admits, so a
   bounded: entry behaves as its inner backend under that sweep; capacity
   pressure is the blocking harness's job. *)
let registry backend =
  List.concat_map
    (fun bounded ->
      List.concat_map
        (fun base ->
          List.map (fun (relaxed, elim) -> { base; relaxed; elim; bounded }) (flavors base))
        bases)
    [ None; Some default_capacity ]
  |> List.filter (fun d -> Result.is_ok (validate d) && (backend = Sim || not (sim_only d.base)))

let names backend = List.map name (registry backend)

let unknown backend input () =
  Printf.sprintf "unknown implementation %S (known: %s)" input
    (String.concat ", " (List.sort String.compare (names backend)))

(* ---- names -------------------------------------------------------------- *)

(* Lookups tolerate case and spacing so CLI spellings like "skipqueue" or
   "relaxedskipqueue" resolve. *)
let normalize s = String.lowercase_ascii (String.concat "" (String.split_on_char ' ' s))

let chop_prefix p s =
  let lp = String.length p and ls = String.length s in
  if ls >= lp && String.sub s 0 lp = p then Some (String.sub s lp (ls - lp)) else None

let chop_suffix p s =
  let lp = String.length p and ls = String.length s in
  if ls >= lp && String.sub s (ls - lp) lp = p then Some (String.sub s 0 (ls - lp)) else None

(* [None] when [n] spells no base at all; [Some (Error _)] when it spells a
   parameterized base with a malformed parameter. *)
let base_of ~input n =
  let param ~prefix ~suffix ~what ~expected mk =
    match Option.bind (chop_prefix prefix n) (chop_suffix suffix) with
    | None -> None
    | Some digits -> (
      match int_of_string_opt digits with
      | Some v -> Some (Ok (mk v))
      | None ->
        Some
          (Error
             (Printf.sprintf "malformed %s %S in %S (expected %s)" what digits input expected)))
  in
  (* A parameterized base matches here only at its registry default. *)
  match List.find_opt (fun b -> normalize (base_name b) = n) bases with
  | Some b -> Some (Ok b)
  | None -> (
    match param ~prefix:"klsm:" ~suffix:"" ~what:"k-LSM rank bound"
            ~expected:"klsm:<k> with k a positive integer" (fun k -> Klsm k) with
    | Some r -> Some r
    | None ->
      param ~prefix:"binqueue(" ~suffix:")" ~what:"bin-queue range"
        ~expected:"BinQueue(<range>) with range a positive integer" (fun r -> Bin r))

let parse_with ~unknown input =
  let n = normalize input in
  let bounded, n =
    match chop_prefix "bounded:" n with Some rest -> (Some default_capacity, rest) | None -> (None, n)
  in
  let relaxed, n = match chop_prefix "relaxed" n with Some rest -> (true, rest) | None -> (false, n) in
  let elim, n = match chop_suffix "-elim" n with Some rest -> (true, rest) | None -> (false, n) in
  let invalid msg = Error (Printf.sprintf "%s in %S" msg input) in
  if bounded <> None && chop_prefix "bounded:" n <> None then invalid "bounded: cannot be nested"
  else
    match base_of ~input n with
    | None -> Error (unknown ())
    | Some (Error msg) -> Error msg
    | Some (Ok base) -> (
      let d = { base; relaxed; elim; bounded } in
      match validate d with Ok () -> Ok d | Error msg -> invalid msg)

let parse input = parse_with ~unknown:(unknown Sim input) input

(* ---- construction ------------------------------------------------------- *)

module type HOST = sig
  val spawn : ((unit -> unit) -> unit) option
end

module type S = sig
  val make : procs:int -> descriptor -> impl
  val skipqueue : ?p:float -> ?max_level:int -> unit -> impl
  val relaxed_skipqueue : unit -> impl
  val skipqueue_lf : unit -> impl
  val skipqueue_co : unit -> impl
  val hunt_heap : ?capacity:int -> unit -> impl
  val klsm : k:int -> procs:int -> unit -> impl
  val bounded : ?capacity:int -> impl -> impl

  val instance :
    insert:(int -> int -> unit) -> try_delete_min:(unit -> (int * int) option) ->
    stats:(unit -> (string * float) list) -> instance
end

let facade ~insert_wait ~try_delete_min ~delete_min_wait ~stats =
  { insert = insert_wait; insert_wait; try_delete_min; delete_min_wait; stats }

module Over (R : Repro_runtime.Runtime_intf.S) (H : HOST) = struct
  module SQ = Repro_skipqueue.Skipqueue.Make (R)
  module LF = Repro_skipqueue.Skipqueue_lf.Make (R)
  module CO = Repro_skipqueue.Skipqueue_co.Make (R)

  module Heap = Repro_heap.Hunt_heap.Make (R)
  module FL = Repro_funnel.Funnel_list.Make (R)
  module Funnel = Repro_funnel.Combining_funnel.Make (R)
  module Bins = Repro_funnel.Bin_queue.Make (R)
  module MQ = Repro_multiqueue.Multiqueue.Make (R)
  module KL = Repro_klsm.Klsm.Make (R)
  module Bounded = Repro_bounded.Bounded_queue.Make (R)

  (* Uniform instance constructor: wires the core counters every instance
     reports ([ops] counted host-side; [lock_acquisitions] and
     [lock_try_failures] differenced from the runtime's own counters, so
     they need no per-backend instrumentation) and derives the blocking
     entry points of an unbounded backend.  An unbounded queue is never
     full, so [insert_wait] is [insert]; [delete_min_wait] polls — real
     parking comes from the {!bounded} façade, which replaces both. *)
  let instance ~insert ~try_delete_min ~stats =
    let ops = ref 0 in
    let base_acq, base_fail = R.lock_stats () in
    let rec poll_pop () =
      match try_delete_min () with
      | Some kv -> kv
      | None ->
        R.yield ();
        poll_pop ()
    in
    {
      insert = (fun k v -> incr ops; insert k v);
      insert_wait = (fun k v -> incr ops; insert k v);
      try_delete_min = (fun () -> incr ops; try_delete_min ());
      delete_min_wait = (fun () -> incr ops; poll_pop ());
      stats =
        (fun () ->
          let acq, fail = R.lock_stats () in
          ("ops", float_of_int !ops)
          :: ("lock_acquisitions", float_of_int (acq - base_acq))
          :: ("lock_try_failures", float_of_int (fail - base_fail))
          :: stats ());
    }

  let skipqueue_instance ~mode ?p ?max_level () =
    let q = SQ.create ~mode ?p ?max_level () in
    instance
      ~insert:(fun k v -> ignore (SQ.insert q k v))
      ~try_delete_min:(fun () -> SQ.delete_min q)
      ~stats:(fun () -> SQ.stats q)

  (* Coalescing SkipQueue (DESIGN.md §S21): duplicate-key multiset nodes
     behind one packed lock word. *)
  let co_instance ~mode () =
    let q = CO.create ~mode () in
    instance
      ~insert:(fun k v -> ignore (CO.insert q k v))
      ~try_delete_min:(fun () -> CO.delete_min q)
      ~stats:(fun () -> CO.stats q)

  (* Elimination–combining front end (Calciu, Mendes & Herlihy):
     rendezvous in an adaptive array when the inserted key is strictly
     below both the deleter's published bound and the inserter's own fresh
     observation of the minimum; timed-out deleters combine one shared
     bottom-level hunt.  The front end preserves the backing queue's
     contract (DESIGN.md §S15).  One builder serves both backings; each
     reports the front end's counters, then its backing's.  Over the
     coalescing queue an eliminated pair never reaches the structure, so
     it can never also coalesce: strict-below-bound admission keeps the
     exchanged key distinct from every settled element (see
     Elimination.BACKING). *)
  module Elim_over (Q : Repro_skipqueue.Elimination.BACKING) = struct
    module E = Repro_skipqueue.Elimination.Over (R) (Q)

    (* [queue] runs inside [E.create], after the elimination array's
       cells: simulated line ids follow allocation order. *)
    let make queue =
      let q = E.create ~queue () in
      instance
        ~insert:(fun k v -> ignore (E.insert q k v))
        ~try_delete_min:(fun () -> E.delete_min q)
        ~stats:(fun () -> E.stats q)
  end

  module Elim_sq = Elim_over (SQ)
  module Elim_co = Elim_over (CO)

  (* Lock-free SkipQueue (DESIGN.md S19): CAS-linked insert, CAS-marked
     logical deletion (the claim CAS is Delete-min's linearization point),
     batched physical unlinking of the marked prefix. *)
  let lf_instance () =
    let q = LF.create () in
    instance
      ~insert:(fun k v -> LF.insert q k v)
      ~try_delete_min:(fun () -> LF.delete_min q)
      ~stats:(fun () -> LF.stats q)

  let heap_instance ?capacity () =
    let h = Heap.create ?capacity () in
    instance ~insert:(Heap.insert h) ~try_delete_min:(fun () -> Heap.delete_min h) ~stats:(fun () -> [])

  let funnel_list_instance () =
    let q = FL.create () in
    instance ~insert:(FL.insert q) ~try_delete_min:(fun () -> FL.delete_min q)
      ~stats:(fun () -> FL.stats q)

  let bin_instance ~range () =
    let q = Bins.create ~range () in
    instance ~insert:(Bins.insert q) ~try_delete_min:(fun () -> Bins.delete_min q) ~stats:(fun () -> [])

  let multiqueue_instance ~procs () =
    let q = MQ.create ~procs () in
    instance ~insert:(MQ.insert q) ~try_delete_min:(fun () -> MQ.delete_min q)
      ~stats:(fun () -> MQ.stats q)

  let klsm_instance ~k ~procs () =
    let q = KL.create ~k ~procs () in
    instance ~insert:(KL.insert q) ~try_delete_min:(fun () -> KL.delete_min q)
      ~stats:(fun () -> KL.stats q)

  (* Ablation A1: Delete-mins regulated by a combining funnel in front of
     the SkipQueue (§5 "We tried using a funnel to regulate access of
     deleting processors at the bottom level of the SkipList"). *)
  type funnel_req = { mutable result : (int * int) option; mutable done_ : bool }

  let delete_funnel_instance () =
    let q = SQ.create ~mode:SQ.Strict () in
    let serve req =
      req.result <- SQ.delete_min q;
      req.done_ <- true
    in
    let funnel =
      Funnel.create ~apply:(List.iter serve) ~is_done:(fun req -> req.done_) ~kind_of:(fun _ -> 0) ()
    in
    instance
      ~insert:(fun k v -> ignore (SQ.insert q k v))
      ~try_delete_min:(fun () ->
        let req = { result = None; done_ = false } in
        Funnel.perform funnel req;
        req.result)
      ~stats:(fun () -> [])

  (* Ablation A4: the §3 reclamation protocol live, with a dedicated
     collector processor (the paper assigns one processor to garbage
     collection in its benchmarks) sweeping every 20000 cycles for 500
     passes, plus one final sweep once everything quiesced. *)
  let reclamation_instance spawn () =
    let recl = SQ.Reclaim.create () in
    let q = SQ.create ~mode:SQ.Strict ~reclamation:recl () in
    spawn (fun () ->
        for _ = 1 to 500 do
          R.work 20_000;
          ignore (SQ.Reclaim.collect recl)
        done;
        R.work (1 lsl 45);
        ignore (SQ.Reclaim.collect recl));
    instance
      ~insert:(fun k v -> ignore (SQ.insert q k v))
      ~try_delete_min:(fun () -> SQ.delete_min q)
      ~stats:(fun () -> SQ.Reclaim.stats recl)

  (* Bounded/blocking façade over any implementation (lib/bounded).  The
     façade's end locks guard only its room and item credits; it calls the
     wrapped structure outside them and forwards elements unchanged, so
     the structure keeps its contract.  It creates its inner queue first:
     simulated line ids follow allocation order. *)
  let bounded ?(capacity = default_capacity) (impl : impl) =
    {
      impl with
      name = "bounded:" ^ impl.name;
      create =
        (fun () ->
          let inner = impl.create () in
          let b =
            Bounded.create ~capacity ~dedups:impl.dedups ~name:"bounded" ~insert:inner.insert
              ~try_delete_min:inner.try_delete_min ()
          in
          facade ~insert_wait:(Bounded.insert_wait b)
            ~try_delete_min:(fun () -> Bounded.try_delete_min b)
            ~delete_min_wait:(fun () -> Bounded.delete_min_wait b)
            ~stats:(fun () -> Bounded.stats b @ inner.stats ()));
    }

  let create_of ~procs d =
    match d.base with
    | Skipqueue when d.elim ->
      fun () -> Elim_sq.make (fun () -> SQ.create ~mode:(if d.relaxed then SQ.Relaxed else SQ.Strict) ())
    | Skipqueue -> fun () -> skipqueue_instance ~mode:(if d.relaxed then SQ.Relaxed else SQ.Strict) ()
    | Co when d.elim -> fun () -> Elim_co.make (fun () -> CO.create ())
    | Co -> co_instance ~mode:(if d.relaxed then CO.Relaxed else CO.Strict)
    | Lf -> lf_instance
    | Heap -> fun () -> heap_instance ()
    | Funnel_list -> funnel_list_instance
    | Multiqueue -> multiqueue_instance ~procs
    | Klsm k -> klsm_instance ~k ~procs
    | Bin range -> bin_instance ~range
    | Delete_funnel -> delete_funnel_instance
    | Reclamation -> reclamation_instance (Option.get H.spawn)

  let make ~procs d =
    (match validate d with Ok () -> () | Error msg -> invalid_arg ("Queue_adapter.make: " ^ msg));
    if sim_only d.base && Option.is_none H.spawn then
      invalid_arg (Printf.sprintf "Queue_adapter.make: %s is simulator-only" (name d));
    let impl = describe { d with bounded = None } (create_of ~procs d) in
    match d.bounded with None -> impl | Some capacity -> bounded ~capacity impl

  (* [procs] sizes only the MultiQueue and the k-LSM. *)
  let fixed d = make ~procs:1 d

  let skipqueue ?p ?max_level () =
    describe (plain Skipqueue) (fun () -> skipqueue_instance ~mode:SQ.Strict ?p ?max_level ())

  let relaxed_skipqueue () = fixed { (plain Skipqueue) with relaxed = true }
  let skipqueue_lf () = fixed (plain Lf)
  let skipqueue_co () = fixed (plain Co)
  let hunt_heap ?capacity () = describe (plain Heap) (heap_instance ?capacity)
  let klsm ~k ~procs () = make ~procs (plain (Klsm k))
end

module Sim =
  Over (Repro_sim.Sim_runtime) (struct let spawn = Some Repro_sim.Machine.spawn end)

module Native =
  Over (Repro_runtime.Native_runtime) (struct let spawn = None end)

let make backend d =
  match backend with
  | Sim -> Sim.make ~procs:registry_procs d
  | Native -> Native.make ~procs:registry_procs d

let all backend = List.map (make backend) (registry backend)

let find backend input =
  match parse_with ~unknown:(unknown backend input) input with
  | Ok d -> make backend d
  | Error msg -> invalid_arg ("Queue_adapter.find: " ^ msg)
