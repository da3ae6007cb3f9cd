(* Single-source shortest paths with the SkipQueue as the frontier — the
   "numerical/graph algorithms" application class from the paper's
   introduction, here on the native runtime (real domains are available,
   but Dijkstra's frontier discipline is inherently sequential, so this
   example uses one domain and showcases the queue as a general-purpose
   priority queue with the classic lazy-deletion pattern).

   The result is cross-checked against Bellman-Ford.

   Run with:  dune exec examples/dijkstra.exe *)

module Rng = Repro_util.Rng
module Q = Repro_skipqueue.Skipqueue.Make (Repro_runtime.Native_runtime)

let nodes = 3_000
let edges_per_node = 6
let max_weight = 100

let () =
  let rng = Rng.of_seed 99L in
  (* Random connected-ish digraph: a ring plus random extra edges. *)
  let adj = Array.make nodes [] in
  for u = 0 to nodes - 1 do
    adj.(u) <- [ ((u + 1) mod nodes, 1 + Rng.int rng max_weight) ];
    for _ = 2 to edges_per_node do
      let v = Rng.int rng nodes in
      adj.(u) <- (v, 1 + Rng.int rng max_weight) :: adj.(u)
    done
  done;

  (* Dijkstra with lazy deletion: keys are (distance * nodes + node) so
     every queue entry is unique; stale entries are skipped on arrival. *)
  let dist = Array.make nodes max_int in
  let q = Q.create ~seed:5L () in
  dist.(0) <- 0;
  ignore (Q.insert q 0 0);
  let settled = ref 0 in
  let popped = ref 0 in
  let rec loop () =
    match Q.delete_min q with
    | None -> ()
    | Some (key, u) ->
      incr popped;
      let d = key / nodes in
      if d = dist.(u) then begin
        incr settled;
        List.iter
          (fun (v, w) ->
            if d + w < dist.(v) then begin
              dist.(v) <- d + w;
              ignore (Q.insert q (((d + w) * nodes) + v) v)
            end)
          adj.(u)
      end;
      loop ()
  in
  loop ();

  (* Reference: Bellman-Ford (iterate until fixpoint). *)
  let ref_dist = Array.make nodes max_int in
  ref_dist.(0) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for u = 0 to nodes - 1 do
      if ref_dist.(u) < max_int then
        List.iter
          (fun (v, w) ->
            if ref_dist.(u) + w < ref_dist.(v) then begin
              ref_dist.(v) <- ref_dist.(u) + w;
              changed := true
            end)
          adj.(u)
    done
  done;

  let agree = dist = ref_dist in
  let reachable = Array.fold_left (fun n d -> if d < max_int then n + 1 else n) 0 dist in
  Printf.printf "graph: %d nodes, ~%d edges\n" nodes (nodes * edges_per_node);
  Printf.printf "settled %d nodes (%d pops incl. %d stale)\n" !settled !popped
    (!popped - !settled);
  Printf.printf "reachable: %d; agrees with Bellman-Ford: %s\n" reachable
    (if agree then "YES" else "NO");
  if not agree then Stdlib.exit 1
