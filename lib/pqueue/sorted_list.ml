type 'v node = Nil | Node of { key : int; value : 'v; mutable next : 'v node }
type 'v t = { mutable first : 'v node; mutable length : int }

let create () = { first = Nil; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

let insert t key value =
  let node = Node { key; value; next = Nil } in
  let rec splice prev current =
    match current with
    | Node n when n.key <= key -> splice current n.next
    | Nil | Node _ -> (
      match node with
      | Node fresh -> (
        fresh.next <- current;
        match prev with Nil -> t.first <- node | Node p -> p.next <- node)
      | Nil -> assert false)
  in
  splice Nil t.first;
  t.length <- t.length + 1

let peek_min t =
  match t.first with Nil -> None | Node n -> Some (n.key, n.value)

let delete_min t =
  match t.first with
  | Nil -> None
  | Node n ->
    t.first <- n.next;
    t.length <- t.length - 1;
    Some (n.key, n.value)

let to_list t =
  let rec go acc = function
    | Nil -> List.rev acc
    | Node n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.first

let check_invariants t =
  let rec go count = function
    | Nil ->
      if count = t.length then Ok ()
      else Error (Printf.sprintf "length mismatch: stored %d, actual %d" t.length count)
    | Node n -> (
      match n.next with
      | Node m when n.key > m.key -> Error "list not sorted"
      | Nil | Node _ -> go (count + 1) n.next)
  in
  go 0 t.first
