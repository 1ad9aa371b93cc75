(** The paper's evaluation protocol (§5.1): every tool runs on every
    subject with the same budget, repeated over several seeds, and the
    best run per (tool, subject) is reported. *)

type config = {
  budget_units : int;  (** virtual units; see {!Tool}. *)
  seeds : int list;  (** one run per seed; best is kept *)
  verbose : bool;  (** print progress lines while running *)
}

val default_config : config
(** 2,000,000 units (AFL 2M executions, pFuzzer/KLEE 20k), seed [1],
    quiet. *)

type cell = {
  outcome : Tool.outcome;  (** the best run for this (tool, subject) *)
  coverage_percent : float;
  found_tags : string list;
}

type failure = {
  f_subject : string;
  f_tool : Tool.name;
  f_seed : int;
  f_error : string;
      (** the printed exception from the last attempt, or how its worker
          process ended *)
}
(** A grid cell whose every execution attempt (first run plus retries)
    raised or lost its worker process. Its contribution to {!t.cells} is the all-zero
    {!Tool.empty_outcome}. *)

type t = {
  config : config;
  subjects : Pdf_subjects.Subject.t list;
  cells : (string * (Tool.name * cell) list) list;
      (** subject name → per-tool best cells *)
  failures : failure list;
      (** cells abandoned after exhausting their retries, in grid
          order; empty for a healthy evaluation *)
}

val run :
  ?tools:Tool.name list ->
  ?jobs:int ->
  ?retries:int ->
  ?trace:out_channel ->
  config ->
  Pdf_subjects.Subject.t list ->
  t
(** Execute the full grid. Best per cell = highest valid-input branch
    coverage, ties broken by number of tokens found. [jobs] (default 1:
    strictly sequential and in-process, nothing is forked) ≥ 2 runs the
    independent (tool, subject, seed) cells on that many forked
    {!Workers}, each cell going to the next free worker; the merge order
    is deterministic, so the resulting cells are identical to the
    sequential run for the same seeds.

    [trace] streams every cell's telemetry as JSONL to the channel: each
    cell records into a private temporary file headed by a [cell] event
    naming its (tool, subject, seed) coordinates (a worker sends back
    only the cell), and the files are copied to [trace] in grid order
    after all cells finish — so the merged trace has the same structure
    for any [jobs] (timestamps aside; see {!Pdf_obs.Trace.normalize}).

    A cell whose run raises, or whose worker process dies, is retried up
    to [retries] (default 2) more times, each in a fresh worker
    ({!Workers.map}); each retry emits a [retry] event into the merged
    trace, and a cell that exhausts its retries is recorded in
    {!t.failures} with an all-zero outcome instead of aborting the
    grid. *)

val cell : t -> string -> Tool.name -> cell
(** Lookup; raises [Not_found] for an unknown subject/tool. *)

val equal : t -> t -> bool
(** Cell-wise semantic equality: same grid shape and, per cell, the same
    valid inputs, executions, coverage set, coverage percentage and found
    tokens. The determinism invariant [run ~jobs:1 ≡ run ~jobs:n] is
    checked with this. *)

val headline : t -> min_len:int -> max_len:int -> (Tool.name * float) list
(** Token share per tool in a length band, across all subjects in the
    experiment. *)
