(** {!Repro_runtime.Runtime_intf.S} implementation backed by {!Machine}.

    Usable only inside {!Machine.run}; every operation is one scheduler
    step of the machine.  The value part of a [read]/[write]/[swap]
    executes when the processor next runs, i.e. at the access's simulated
    finish time, and runs without interleaving — shared operations are
    atomic and serialized in simulated-time order. *)

include Repro_runtime.Runtime_intf.S
