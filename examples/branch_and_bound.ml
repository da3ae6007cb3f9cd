(* Parallel best-first branch-and-bound for the 0/1 knapsack problem —
   expert-system/optimization search, the paper's other motivating
   application class ([25] in its bibliography is a branch-and-bound TSP).

   The frontier of unexplored subproblems lives in a shared SkipQueue keyed
   so that Delete-min returns the node with the highest optimistic bound
   (best-first order).  Workers pop nodes, prune against the shared
   incumbent, and push children.  The final incumbent is checked against a
   sequential dynamic program.

   Run with:  dune exec examples/branch_and_bound.exe *)

module Machine = Repro_sim.Machine
module Sim = Repro_sim.Sim_runtime
module Rng = Repro_util.Rng
module Q = Repro_skipqueue.Skipqueue.Make (Sim)

let n_items = 22
let capacity = 150
let workers = 8

type node = { level : int; weight : int; value : int }

let () =
  let rng = Rng.of_seed 2024L in
  let weights = Array.init n_items (fun _ -> 5 + Rng.int rng 30) in
  let values = Array.init n_items (fun _ -> 10 + Rng.int rng 60) in

  (* Reference answer by dynamic programming. *)
  let reference =
    let dp = Array.make (capacity + 1) 0 in
    for i = 0 to n_items - 1 do
      for c = capacity downto weights.(i) do
        dp.(c) <- Int.max dp.(c) (dp.(c - weights.(i)) + values.(i))
      done
    done;
    dp.(capacity)
  in

  (* Optimistic bound: take remaining items greedily by value density,
     allowing a fraction of the last one (items are pre-sorted). *)
  let order =
    let idx = Array.init n_items Fun.id in
    Array.sort
      (fun a b ->
        compare (values.(b) * weights.(a)) (values.(a) * weights.(b)))
      idx;
    idx
  in
  let w = Array.map (fun i -> weights.(i)) order in
  let v = Array.map (fun i -> values.(i)) order in
  let bound node =
    let rec go i weight value =
      if i >= n_items then value
      else if weight + w.(i) <= capacity then go (i + 1) (weight + w.(i)) (value + v.(i))
      else value + (v.(i) * (capacity - weight) / w.(i))
    in
    go node.level node.weight node.value
  in

  let big = 1 lsl 20 in
  let expanded = ref 0 in
  let best = ref 0 in
  let report =
    Machine.run (fun () ->
        let q = Q.create ~seed:3L () in
        let incumbent = Sim.shared 0 in
        let incumbent_lock = Sim.lock_create ~name:"incumbent" () in
        let seq = Sim.shared 0 in
        let seq_lock = Sim.lock_create ~name:"seq" () in
        (* [pending] counts nodes that are in the queue or being expanded;
           when it reaches zero no new work can appear, so workers may
           stop.  Updated under a lock before the push / after the
           expansion, so it never under-counts. *)
        let pending = Sim.shared 0 in
        let pending_lock = Sim.lock_create ~name:"pending" () in
        let fresh_seq () =
          Sim.acquire seq_lock;
          let s = Sim.read seq in
          Sim.write seq (s + 1);
          Sim.release seq_lock;
          s
        in
        let adjust_pending delta =
          Sim.acquire pending_lock;
          Sim.write pending (Sim.read pending + delta);
          Sim.release pending_lock
        in
        let push node =
          (* best-first: smaller key = larger bound; sequence breaks ties *)
          adjust_pending 1;
          let key = ((big - bound node) * 4096) + (fresh_seq () land 4095) in
          ignore (Q.insert q key node)
        in
        let offer value =
          Sim.acquire incumbent_lock;
          if value > Sim.read incumbent then Sim.write incumbent value;
          Sim.release incumbent_lock
        in
        push { level = 0; weight = 0; value = 0 };
        let finish_time = ref 0 in
        for _ = 1 to workers do
          Machine.spawn (fun () ->
              let running = ref true in
              while !running do
                (match Q.delete_min q with
                | None ->
                  (* No work can appear once nothing is queued or being
                     expanded. *)
                  if Sim.read pending = 0 then running := false
                  else Machine.work 500
                | Some (_, node) ->
                  incr expanded;
                  if bound node > Sim.read incumbent then begin
                    Machine.work 50;
                    if node.level = n_items then offer node.value
                    else begin
                      offer node.value;
                      (* include item [level] if it fits *)
                      if node.weight + w.(node.level) <= capacity then
                        push
                          {
                            level = node.level + 1;
                            weight = node.weight + w.(node.level);
                            value = node.value + v.(node.level);
                          };
                      (* exclude item [level] *)
                      push { node with level = node.level + 1 }
                    end
                  end;
                  adjust_pending (-1));
                let t = Machine.probe_time () in
                if t > !finish_time then finish_time := t
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            best := Sim.read incumbent;
            expanded := !expanded;
            ());
        ignore finish_time)
  in
  Printf.printf "knapsack: %d items, capacity %d, %d workers\n" n_items capacity
    workers;
  Printf.printf "optimum (parallel B&B) = %d, reference (DP) = %d -> %s\n" !best
    reference
    (if !best = reference then "MATCH" else "MISMATCH");
  ignore report;
  Printf.printf "expanded %d nodes\n" !expanded
