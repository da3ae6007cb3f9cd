(* Host wall clock, in nanoseconds. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())
