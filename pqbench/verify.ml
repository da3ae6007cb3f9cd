(* Output checks.  Element ids are dense and [key_of] gives the key each
   id was inserted with ([-1] for the ids of delete-min calls), so one pass
   over everything a run delivered (delete-min results plus the
   post-quiescence drain) counts the operations whose output was wrong:

   - a delivered element that was never inserted, carries the wrong key, or
     was already delivered (any backend);
   - an inserted element never delivered (multiset backends only: an
     update-in-place queue legitimately drops the older value when the same
     key is inserted again). *)

let bad_outputs ~dedups ~key_of (delivered : (int -> int -> unit) -> unit) =
  let n = Array.length key_of in
  let seen = Bytes.make n '\000' in
  let bad = ref 0 in
  delivered (fun key id ->
      if id < 0 || id >= n || key_of.(id) <> key || Bytes.get seen id <> '\000' then incr bad
      else Bytes.set seen id '\001');
  if not dedups then
    Array.iteri (fun id key -> if key >= 0 && Bytes.get seen id = '\000' then incr bad) key_of;
  !bad
