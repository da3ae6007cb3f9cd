type 'v entry = { key : int; value : 'v }

type 'v t = {
  mutable slots : 'v entry option array; (* 1-based; slot 0 unused *)
  mutable size : int;
}

(* 16 entries, plus the unused slot 0; [grow] doubles from there. *)
let create () = { slots = Array.make 17 None; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let entry t i =
  match t.slots.(i) with
  | Some e -> e
  | None -> invalid_arg "Seq_heap: empty slot inside heap"

let grow t =
  let slots = Array.make (2 * Array.length t.slots) None in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  t.slots <- slots

let insert t key value =
  if t.size + 1 >= Array.length t.slots then grow t;
  t.size <- t.size + 1;
  t.slots.(t.size) <- Some { key; value };
  (* Sift up. *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 1 do
    let parent = !i / 2 in
    if (entry t !i).key < (entry t parent).key then begin
      let tmp = t.slots.(!i) in
      t.slots.(!i) <- t.slots.(parent);
      t.slots.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let peek_min t =
  if t.size = 0 then None
  else begin
    let e = entry t 1 in
    Some (e.key, e.value)
  end

let delete_min t =
  if t.size = 0 then None
  else begin
    let root = entry t 1 in
    t.slots.(1) <- t.slots.(t.size);
    t.slots.(t.size) <- None;
    t.size <- t.size - 1;
    (* Sift down. *)
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let left = 2 * !i and right = (2 * !i) + 1 in
      let smallest = ref !i in
      if left <= t.size && (entry t left).key < (entry t !smallest).key
      then smallest := left;
      if right <= t.size && (entry t right).key < (entry t !smallest).key
      then smallest := right;
      if !smallest <> !i then begin
        let tmp = t.slots.(!i) in
        t.slots.(!i) <- t.slots.(!smallest);
        t.slots.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (root.key, root.value)
  end

let to_sorted_list t =
  let copy = { slots = Array.copy t.slots; size = t.size } in
  let rec drain acc =
    match delete_min copy with
    | None -> List.rev acc
    | Some binding -> drain (binding :: acc)
  in
  drain []

let check_invariants t =
  let rec check i =
    if i > t.size then Ok ()
    else begin
      let parent = i / 2 in
      if i > 1 && (entry t parent).key > (entry t i).key then
        Error (Printf.sprintf "heap order violated at slot %d" i)
      else check (i + 1)
    end
  in
  let rec check_empty i =
    if i >= Array.length t.slots then Ok ()
    else if t.slots.(i) <> None then
      Error (Printf.sprintf "slot %d beyond size %d is occupied" i t.size)
    else check_empty (i + 1)
  in
  match check 1 with Ok () -> check_empty (t.size + 1) | Error _ as e -> e
