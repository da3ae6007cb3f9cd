module S = Repro_sim.Sim_runtime

type fault = Torn_swap | Torn_cas | Blind_cas
type target = { fault : fault; cells : string option }

let budget = 1_000_000
let reads = Domain.DLS.new_key (fun () -> ref 0)
let reset () = Domain.DLS.get reads := 0

module type CONFIG = sig
  val target : target option
  val wedged : exn
end

module Make (C : CONFIG) = struct
  (* Locks, conditions, the clock and the processor calls pass through. *)
  include (S : Repro_runtime.Runtime_intf.S with type 'a shared := 'a S.shared)

  (* [faulty] is fixed at allocation from the cell's name. *)
  type 'a shared = { cell : 'a S.shared; faulty : bool }

  let shared ?name v =
    let faulty =
      match C.target with
      | None -> false
      | Some { cells = None; _ } -> true
      | Some { cells = Some n; _ } -> name = Some n
    in
    { cell = S.shared ?name v; faulty }

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
    | Some (Torn_cas | Blind_cas) | None -> S.swap c.cell v

  (* Torn exactly as [swap] is: a read, a scheduler point, a write. *)
  let fetch_and_add c d =
    match fault c with
    | Some Torn_swap ->
      let old = read c in
      write c (old + d);
      old
    | Some (Torn_cas | Blind_cas) | None -> S.fetch_and_add c.cell d

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
    | Some Torn_swap | None -> S.cas c.cell expected v
end
