module S = Repro_sim.Sim_runtime

type fault = Torn_swap | Torn_cas | Blind_cas | Torn_wait
type target = { fault : fault; cells : string option }

let budget = 1_000_000
let torn_window = 200
let reads = Domain.DLS.new_key (fun () -> ref 0)
let reset () = Domain.DLS.get reads := 0

module type CONFIG = sig
  val target : target option
  val wedged : exn
end

module Make (C : CONFIG) = struct
  (* Locks, the clock and the processor calls pass through. *)
  include (
    S :
      Repro_runtime.Runtime_intf.S
        with type 'a shared := 'a S.shared
         and type lock = S.lock
         and type cond := S.cond)

  (* Whether a cell or condition is faulty is fixed at allocation from its
     name. *)
  let targeted name =
    match C.target with
    | None -> false
    | Some { cells = None; _ } -> true
    | Some { cells = Some n; _ } -> name = Some n

  type 'a shared = { cell : 'a S.shared; faulty : bool }

  let shared ?name v = { cell = S.shared ?name v; faulty = targeted name }

  let read c =
    let n = Domain.DLS.get reads in
    incr n;
    if !n > budget then raise C.wedged;
    S.read c.cell

  let write c v = S.write c.cell v
  let planted = Option.map (fun t -> t.fault) C.target
  let fault c = if c.faulty then planted else None

  let swap c v =
    match fault c with
    | Some Torn_swap ->
      let old = read c in
      write c v;
      old
    | Some (Torn_cas | Blind_cas | Torn_wait) | None -> S.swap c.cell v

  (* Torn exactly as [swap] is: a read, a scheduler point, a write. *)
  let fetch_and_add c d =
    match fault c with
    | Some Torn_swap ->
      let old = read c in
      write c (old + d);
      old
    | Some (Torn_cas | Blind_cas | Torn_wait) | None -> S.fetch_and_add c.cell d

  let cas c expected v =
    match fault c with
    | Some Torn_cas ->
      read c == expected
      && begin
           write c v;
           true
         end
    | Some Blind_cas ->
      write c v;
      true
    | Some (Torn_swap | Torn_wait) | None -> S.cas c.cell expected v

  type cond = { cv : S.cond; guard : S.lock; torn : bool }

  let cond_create ?name lock =
    let torn = planted = Some Torn_wait && targeted name in
    { cv = S.cond_create ?name lock; guard = lock; torn }

  (* Torn: the lock is released, [torn_window] cycles pass, and the waiter
     parks only after taking the lock back; a signal sent in between finds
     no parked waiter. *)
  let cond_wait c =
    if c.torn then begin
      S.release c.guard;
      S.work torn_window;
      S.acquire c.guard
    end;
    S.cond_wait c.cv

  let cond_signal c = S.cond_signal c.cv
end
