(* Rank error by replaying a recorded history in completion order — the
   same bookkeeping as [Benchmark]'s host-side oracle (a delete that
   completes before the insert of its element books a debt; dedup-aware
   for update-in-place queues), over keys compressed to a Fenwick index so
   EDF's 60-bit keys fit. *)

module O = Repro_check.History.O

type replay = {
  ranks : Repro_util.Stats.t;  (** one sample per delete-min that returned an element *)
  dup_inserts : int;  (** measured inserts whose key was already live *)
}

let replay ~dedups ~measured (events : O.event list) =
  let keys =
    List.filter_map
      (fun (e : O.event) -> match e.op with O.Insert { key; _ } -> Some key | _ -> None)
      events
    |> Array.of_list
  in
  Array.sort Int.compare keys;
  let n = Array.length keys in
  let index k =
    (* first position of [k] among the sorted inserted keys, or -1 *)
    let rec go lo hi =
      if lo >= hi then if lo < n && keys.(lo) = k then lo else -1
      else
        let mid = (lo + hi) / 2 in
        if keys.(mid) < k then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  let tree = Array.make (n + 1) 0 in
  let counts = Array.make (Int.max 1 n) 0 in
  let debts = Array.make (Int.max 1 n) 0 in
  let add i delta =
    let i = ref (i + 1) in
    while !i <= n do
      tree.(!i) <- tree.(!i) + delta;
      i := !i + (!i land - !i)
    done
  in
  let count_less i =
    let s = ref 0 and i = ref i in
    while !i > 0 do
      s := !s + tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s
  in
  let ranks = Repro_util.Stats.create () in
  let dup_inserts = ref 0 in
  List.iter
    (fun (e : O.event) ->
      match e.op with
      | O.Insert { key; _ } ->
        let i = index key in
        if measured e && counts.(i) > 0 then incr dup_inserts;
        if debts.(i) > 0 then debts.(i) <- debts.(i) - 1
        else if not (dedups && counts.(i) > 0) then begin
          counts.(i) <- counts.(i) + 1;
          add i 1
        end
      | O.Delete_min { result = Some (key, _) } ->
        let i = index key in
        if i >= 0 then begin
          Repro_util.Stats.add ranks (float_of_int (count_less i));
          if counts.(i) > 0 then begin
            counts.(i) <- counts.(i) - 1;
            add i (-1)
          end
          else debts.(i) <- debts.(i) + 1
        end
      | O.Delete_min { result = None } -> ())
    events;
  { ranks; dup_inserts = !dup_inserts }
