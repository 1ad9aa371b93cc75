(** Chaos harness: drive seeded campaigns through deterministic fault
    plans ({!Pdf_fault.Fault}) and check that the fuzzer degrades
    gracefully instead of aborting or corrupting its results.

    Checked, per subject:
    - {b chaos survival}: a seeded mixed-kind plan fires and the
      campaign still exhausts its budget with every valid input
      genuinely accepted and the valid coverage still the union of the
      valid inputs' coverage;
    - {b crash containment}: injected exceptions surface as contained
      crashes sharing one deduplicated (exception, site) identity;
    - {b starvation hangs}: fuel-starved executions surface as hangs;
    - {b slowdown neutrality}: slowed executions leave the campaign
      bit-identical (wall clock aside);
    - {b snapshot-corruption neutrality}: poisoning every cached parse
      snapshot is invisible — crashed resumes are rescued by cold
      re-execution;
    - {b worker-death retry}: in {!Pdf_eval.Workers.map}, a task that
      SIGKILLs its worker process on its first attempt is replayed to
      success in a fresh worker, and a task that kills every worker it
      runs in is isolated as [Error] without sinking the rest of the
      grid. *)

val run : ?execs:int -> ?seed:int -> Pdf_subjects.Subject.t -> Invariants.report
(** [run subject] drives the chaos drills with [execs] (default 400)
    executions per campaign under [seed] (default 1). Fault plans are
    derived deterministically from the seed, so a failure reproduces. *)

val ok : Invariants.report -> bool

val pp_report : Format.formatter -> Invariants.report -> unit
