module Make (R : Repro_runtime.Runtime_intf.S) = struct
  type t = {
    slots : int R.shared array; (* entry time per processor; max_int = outside *)
    garbage : (int * (unit -> unit)) Queue.t array; (* (deletion time, finalizer) *)
    mutable retired : int;
    mutable reclaimed : int;
  }

  (* A fixed count: the slots are simulated cells, so a different count
     would shift every later line id. *)
  let max_procs = 1024

  let create () =
    {
      slots = Array.init max_procs (fun _ -> R.shared max_int);
      garbage = Array.init max_procs (fun _ -> Queue.create ());
      retired = 0;
      reclaimed = 0;
    }

  let slot t =
    let p = R.self () in
    if p >= Array.length t.slots then
      failwith "Reclamation: processor id exceeds max_procs";
    p

  let enter t = R.write t.slots.(slot t) (R.get_time ())
  let exit t = R.write t.slots.(slot t) max_int

  let retire t finalizer =
    let p = slot t in
    Queue.add (R.get_time (), finalizer) t.garbage.(p);
    t.retired <- t.retired + 1

  let collect t =
    (* The collector reads every processor's entry slot (shared traffic),
       then reclaims local garbage strictly older than the oldest entry. *)
    let oldest = ref max_int in
    for p = 0 to max_procs - 1 do
      oldest := Int.min !oldest (R.read t.slots.(p))
    done;
    let count = ref 0 in
    for p = 0 to max_procs - 1 do
      let q = t.garbage.(p) in
      let continue = ref true in
      while !continue do
        match Queue.peek_opt q with
        | Some (stamp, finalizer) when stamp < !oldest ->
          ignore (Queue.pop q);
          finalizer ();
          incr count
        | Some _ | None -> continue := false
      done
    done;
    t.reclaimed <- t.reclaimed + !count;
    !count

  let stats (t : t) =
    [
      ("retired", float_of_int t.retired);
      ("reclaimed", float_of_int t.reclaimed);
      ("pending", float_of_int (t.retired - t.reclaimed));
    ]
end
