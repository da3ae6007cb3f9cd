module Make (R : Repro_runtime.Runtime_intf.S) = struct
  module Funnel = Combining_funnel.Make (R)

  type 'v node = Nil | Node of { key : int; value : 'v; next : 'v node R.shared }

  type 'v outcome = Pending | Done of (int * 'v) option
  type 'v op = Ins of int * 'v | Del
  type 'v request = { op : 'v op; state : 'v outcome R.shared }
  type 'v t = { first : 'v node R.shared; funnel : 'v request Funnel.t }

  let kind_of req = match req.op with Ins _ -> 0 | Del -> 1
  let is_done req = R.read req.state <> Pending

  (* One traversal merging a sorted batch of insertions into the list;
     runs under the funnel's exclusion lock. *)
  let apply_inserts t bindings =
    let sorted =
      List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) bindings
    in
    let rec weave prev_cell current = function
      | [] -> ()
      | (key, value) :: rest -> (
        match current with
        | Node n when n.key <= key -> weave n.next (R.read n.next) ((key, value) :: rest)
        | Nil | Node _ ->
          let cell = R.shared current in
          let node = Node { key; value; next = cell } in
          R.write prev_cell node;
          weave cell current rest)
    in
    weave t.first (R.read t.first) sorted

  (* Cut the [n]-element prefix off the list in one traversal; returns the
     bindings in ascending order (possibly fewer than [n]). *)
  let cut_prefix t n =
    let rec cut acc k current =
      if k = 0 then (List.rev acc, current)
      else
        match current with
        | Nil -> (List.rev acc, Nil)
        | Node node -> cut ((node.key, node.value) :: acc) (k - 1) (R.read node.next)
    in
    let taken, rest = cut [] n (R.read t.first) in
    R.write t.first rest;
    taken

  let apply t batch =
    match batch with
    | [] -> ()
    | { op = Ins _; _ } :: _ ->
      let bindings =
        List.map
          (fun req ->
            match req.op with
            | Ins (k, v) -> (k, v)
            | Del -> assert false (* the funnel only combines equal kinds *))
          batch
      in
      apply_inserts t bindings;
      List.iter (fun req -> R.write req.state (Done None)) batch
    | { op = Del; _ } :: _ ->
      let taken = cut_prefix t (List.length batch) in
      let rec hand_out reqs items =
        match (reqs, items) with
        | [], _ -> ()
        | req :: reqs, [] ->
          R.write req.state (Done None);
          hand_out reqs []
        | req :: reqs, item :: items ->
          R.write req.state (Done (Some item));
          hand_out reqs items
      in
      hand_out batch taken

  let create ?layer_widths ?collision_window () =
    let first = R.shared Nil in
    let rec t =
      lazy
        {
          first;
          funnel =
            Funnel.create ?layer_widths ?collision_window
              ~apply:(fun batch -> apply (Lazy.force t) batch)
              ~is_done ~kind_of ();
        }
    in
    Lazy.force t

  let request op = { op; state = R.shared Pending }
  let insert t key value = Funnel.perform t.funnel (request (Ins (key, value)))

  let delete_min t =
    let req = request Del in
    Funnel.perform t.funnel req;
    match R.read req.state with
    | Done result -> result
    | Pending -> assert false (* perform returns only once the request is done *)

  let fold t f acc =
    let rec go acc = function
      | Nil -> acc
      | Node n -> go (f acc n.key n.value) (R.read n.next)
    in
    go acc (R.read t.first)

  let size t = fold t (fun acc _ _ -> acc + 1) 0
  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  let check_invariants t =
    let rec go prev = function
      | Nil -> Ok ()
      | Node n -> (
        match prev with
        | Some p when p > n.key -> Error "funnel list not sorted"
        | Some _ | None -> go (Some n.key) (R.read n.next))
    in
    go None (R.read t.first)

  let stats t = Funnel.stats t.funnel
end
