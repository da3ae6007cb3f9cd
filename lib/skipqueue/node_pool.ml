type 'n t = {
  free : 'n list array; (* index [level - 1] *)
  mutex : Mutex.t;
  mutable returned : int;
  mutable recycled : int;
}

let create ~max_level =
  { free = Array.make max_level []; mutex = Mutex.create (); returned = 0; recycled = 0 }

(* [put] and [take] run on every retire and insert: plain lock/unlock
   instead of [Mutex.protect] keeps them from allocating a closure. *)
let put t ~level n =
  Mutex.lock t.mutex;
  t.free.(level - 1) <- n :: t.free.(level - 1);
  t.returned <- t.returned + 1;
  Mutex.unlock t.mutex

let take t ~level =
  Mutex.lock t.mutex;
  let n =
    match t.free.(level - 1) with
    | [] -> None
    | n :: rest ->
      t.free.(level - 1) <- rest;
      t.recycled <- t.recycled + 1;
      Some n
  in
  Mutex.unlock t.mutex;
  n

type stats = { returned : int; recycled : int; pooled : int }

let stats (t : _ t) =
  Mutex.protect t.mutex (fun () ->
      let pooled = Array.fold_left (fun acc l -> acc + List.length l) 0 t.free in
      { returned = t.returned; recycled = t.recycled; pooled })
