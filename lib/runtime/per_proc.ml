let slots = 4096

type 'a t = { init : int -> 'a; values : 'a option array; mutex : Mutex.t }

let create init = { init; values = Array.make slots None; mutex = Mutex.create () }

let get t id =
  if id < 0 || id >= slots then
    invalid_arg
      (Printf.sprintf "Per_proc.get: processor id %d outside [0, %d)" id slots);
  match t.values.(id) with
  | Some v -> v
  | None ->
    Mutex.protect t.mutex (fun () ->
        match t.values.(id) with
        | Some v -> v
        | None ->
          let v = t.init id in
          t.values.(id) <- Some v;
          v)

let iter f t = Array.iter (function None -> () | Some v -> f v) t.values
