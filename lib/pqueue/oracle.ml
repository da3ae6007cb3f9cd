type op =
  | Insert of { key : int; id : int }
  | Delete_min of { result : (int * int) option }

type event = { proc : int; op : op; invoked : int; responded : int }

let pp_id ppf (key, id) = Format.fprintf ppf "%d#%d" key id

module Int_map = Map.Make (Int)

let check_well_formed events =
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        if e.invoked > e.responded then
          Error (Printf.sprintf "proc %d: response precedes invocation" e.proc)
        else Ok ())
      (Ok ()) events
  in
  (* Per-processor operations must not overlap: sort each processor's
     events by invocation and require responded(i) <= invoked(i+1). *)
  let by_proc =
    List.fold_left
      (fun m e ->
        Int_map.update e.proc
          (function None -> Some [ e ] | Some es -> Some (e :: es))
          m)
      Int_map.empty events
  in
  let* () =
    Int_map.fold
      (fun proc es acc ->
        let* () = acc in
        let sorted = List.sort (fun a b -> compare a.invoked b.invoked) es in
        let rec no_overlap = function
          | a :: (b :: _ as rest) ->
            if a.responded > b.invoked then
              Error (Printf.sprintf "proc %d: overlapping operations" proc)
            else no_overlap rest
          | [] | [ _ ] -> Ok ()
        in
        no_overlap sorted)
      by_proc (Ok ())
  in
  (* Unique insert ids; no id deleted twice; deleted key matches its
     insert's key when the insert is in the history. *)
  let inserts = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        match e.op with
        | Insert { key; id } ->
          if Hashtbl.mem inserts id then
            Error (Printf.sprintf "insert id %d duplicated" id)
          else begin
            Hashtbl.add inserts id key;
            Ok ()
          end
        | Delete_min _ -> Ok ())
      (Ok ()) events
  in
  let deleted = Hashtbl.create 64 in
  List.fold_left
    (fun acc e ->
      let* () = acc in
      match e.op with
      | Insert _ -> Ok ()
      | Delete_min { result = None } -> Ok ()
      | Delete_min { result = Some (key, id) } ->
        if Hashtbl.mem deleted id then
          Error (Format.asprintf "element %a deleted twice" pp_id (key, id))
        else begin
          Hashtbl.add deleted id ();
          match Hashtbl.find_opt inserts id with
          | Some k when k <> key ->
            Error (Format.asprintf "element %a deleted with wrong key" pp_id (key, id))
          | Some _ | None -> Ok ()
        end)
    (Ok ()) events

let check_conservation ~initial ~drained events =
  let module S = Set.Make (struct
    type t = int * int

    let compare (k1, i1) (k2, i2) =
      match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c
  end) in
  let inserted =
    List.fold_left
      (fun s e -> match e.op with Insert { key; id } -> S.add (key, id) s | _ -> s)
      (S.of_list initial) events
  in
  let deleted =
    List.fold_left
      (fun s e ->
        match e.op with
        | Delete_min { result = Some (key, id) } -> S.add (key, id) s
        | _ -> s)
      (S.of_list drained) events
  in
  if not (S.subset deleted inserted) then
    Error
      (Format.asprintf "element %a came out but never went in" pp_id
         (S.min_elt (S.diff deleted inserted)))
  else if not (S.subset inserted deleted) then
    Error
      (Format.asprintf "element %a went in but never came out" pp_id
         (S.min_elt (S.diff inserted deleted)))
  else begin
    (* The drain at the end must be sorted (it empties the queue with
       successive delete_mins on a quiescent structure). *)
    let rec sorted = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
        if k1 > k2 then Error "final drain not in ascending key order"
        else sorted rest
      | [] | [ _ ] -> Ok ()
    in
    sorted drained
  end

(* Definition 1, decided exactly, and its rank-relaxed generalization.
   A serialization of the Delete-mins is valid at rank [max_rank] when
   each delete in turn is eligible — no delete still unserialized
   responded strictly before it was invoked — and legal against the set
   C of elements the deletes before it consumed.  Call an element
   available to [d] when it is outside C and fully inserted before [d]'s
   invocation.  An EMPTY result is legal when at most [max_rank]
   elements are available; an element [x] is legal when [x] is outside
   C, its insert was invoked before the delete responded, and at most
   [max_rank] available elements have smaller keys.  At [max_rank = 0]
   this is Definition 1.  Consuming more elements only lowers these
   counts, so an eligible, legal delete stays legal as C grows (a
   repeated id is illegal in every order).  Hence taking any eligible
   legal delete next never loses a serialization (the exchange argument
   is in DESIGN.md §6), and the greedy below is complete at every rank:
   it fails only when no serialization exists. *)
let check_ranked ~max_rank events =
  if max_rank < 0 then invalid_arg "Oracle.check_ranked: max_rank < 0";
  let deletes =
    List.filter (fun e -> match e.op with Delete_min _ -> true | Insert _ -> false) events
    |> List.sort (fun a b -> compare (a.invoked, a.responded) (b.invoked, b.responded))
    |> Array.of_list
  in
  (* every insert as (responded, key, id), in response order *)
  let settled =
    List.filter_map
      (fun e -> match e.op with Insert { key; id } -> Some (e.responded, key, id) | _ -> None)
      events
    |> List.stable_sort (fun (r1, _, _) (r2, _, _) -> Int.compare r1 r2)
    |> Array.of_list
  in
  let insert_invoked = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.op with
      | Insert { id; _ } -> Hashtbl.add insert_invoked id e.invoked
      | Delete_min _ -> ())
    events;
  let consumed = Hashtbl.create 64 in
  (* the elements available to [d] with keys below [below] (all of them
     when [None]): how many, and the smallest *)
  let available ?below d =
    let rec scan i count best =
      if i = Array.length settled then (count, best)
      else
        let responded, key, id = settled.(i) in
        if responded >= d.invoked then (count, best)
        else if
          Hashtbl.mem consumed id
          || match below with Some k -> key >= k | None -> false
        then scan (i + 1) count best
        else
          match best with
          | Some (k, _) when k <= key -> scan (i + 1) (count + 1) best
          | Some _ | None -> scan (i + 1) (count + 1) (Some (key, id))
    in
    scan 0 0 None
  in
  let kind = if max_rank = 0 then "Definition-1" else Printf.sprintf "rank-%d" max_rank in
  (* a count over the rank bound, spelled out above rank 0 *)
  let over what count =
    if max_rank = 0 then "" else Printf.sprintf " (%d %s > %d)" count what max_rank
  in
  (* [Ok rank] when [d] is legal now, else why not *)
  let legal d =
    match d.op with
    | Delete_min { result = None } -> (
      match available d with
      | count, Some y when count > max_rank ->
        Error
          (Format.asprintf "returned EMPTY while %a was available%s" pp_id y
             (over "available" count))
      | _ -> Ok 0)
    | Delete_min { result = Some ((k, id) as x) } -> (
      let invoked = Hashtbl.find_all insert_invoked id in
      if Hashtbl.mem consumed id then
        Error (Format.asprintf "returned %a, which another Delete-min took" pp_id x)
      else if invoked = [] then
        Error (Format.asprintf "returned %a, which no insert produced" pp_id x)
      else if not (List.exists (fun i -> i < d.responded) invoked) then
        Error (Format.asprintf "returned %a before its insert was invoked" pp_id x)
      else
        match available ~below:k d with
        | count, Some y when count > max_rank ->
          Error
            (Format.asprintf "returned %a while smaller %a was available%s" pp_id x pp_id y
               (over "smaller" count))
        | count, _ -> Ok count)
    | Insert _ -> assert false
  in
  let n = Array.length deletes in
  let taken = Array.make n false in
  (* [first]: the earliest-invoked delete not yet serialized; [ranks]:
     those of the element-returning deletes serialized so far, latest
     first *)
  let rec serialize first ranks =
    if first = n then Ok (List.rev ranks)
    else begin
      (* The two earliest responses among the unserialized deletes: a
         delete is eligible when it was invoked no later than every
         other one's response. *)
      let r1 = ref max_int and at1 = ref (-1) and r2 = ref max_int in
      for i = first to n - 1 do
        if not taken.(i) then begin
          let r = deletes.(i).responded in
          if r < !r1 then begin
            r2 := !r1;
            r1 := r;
            at1 := i
          end
          else if r < !r2 then r2 := r
        end
      done;
      (* the first eligible legal delete, else the first eligible one
         with the reason it is illegal *)
      let rec pick i stuck =
        if i = n || deletes.(i).invoked > !r2 then Error stuck
        else if taken.(i) || deletes.(i).invoked > (if i = !at1 then !r2 else !r1) then
          pick (i + 1) stuck
        else
          match legal deletes.(i) with
          | Ok rank -> Ok (i, rank)
          | Error why -> pick (i + 1) (if stuck = None then Some (i, why) else stuck)
      in
      match pick first None with
      | Ok (i, rank) ->
        taken.(i) <- true;
        let ranks =
          match deletes.(i).op with
          | Delete_min { result = Some (_, id) } ->
            Hashtbl.replace consumed id ();
            rank :: ranks
          | Delete_min { result = None } | Insert _ -> ranks
        in
        let rec next j = if j < n && taken.(j) then next (j + 1) else j in
        serialize (next first) ranks
      | Error (Some (i, why)) ->
        let d = deletes.(i) in
        Error
          (Printf.sprintf "no %s serialization: Delete-min (proc %d, [%d, %d]) %s" kind d.proc
             d.invoked d.responded why)
      | Error None ->
        Error (Printf.sprintf "no %s serialization: no Delete-min may come next" kind)
    end
  in
  serialize 0 []

let check_strict events = Result.map ignore (check_ranked ~max_rank:0 events)
