(* Minimal domain pool for embarrassingly-parallel sweeps.

   Every figure and fuzz sweep is a list of independent simulation points
   — pure functions of their inputs (workload, seed, config) with no
   shared mutable state (the simulator's run state is domain-local, each
   queue instance is created inside its own simulation).  So they can run
   on separate domains concurrently and the only requirement for
   determinism is collecting results in index order, which [map] does by
   writing into a per-index slot.  Work is handed out through a single
   atomic counter; with points of very different cost (low vs. high
   processor counts) that beats static chunking. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ?(jobs = 1) f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 -> List.map f xs
  | _ ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f items.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          errors.(i) <- Some (e, bt));
        worker ()
      end
    in
    (* OCaml caps live domains at 128, so a [jobs] far above the machine
       must not become that many spawns. *)
    let hosted = Domain.recommended_domain_count () - 1 in
    let spawned = Int.min hosted (Int.min (jobs - 1) (n - 1)) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (* Re-raise the lowest-index failure — the one a sequential [List.map]
       would have hit first — so error behavior is deterministic too. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every index ran or raised above *))
         results)
