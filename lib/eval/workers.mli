(** The process layer: forked worker fleets with dynamic dealing,
    checksummed frames and bounded replay.

    The evaluation grid ({!Experiment.run} with [~jobs] ≥ 2, via {!map})
    and distributed campaigns ({!Dist.run_campaign}, via {!run}) both
    run on it. Each worker has one pipe carrying task indices from the
    coordinator and one carrying frames back; a worker is dealt its next
    task as soon as it settles the current one, so tasks go to whichever
    worker is free. A task whose worker dies, or that reports failure,
    is replayed in a fresh fleet, up to a bound. Processes keep crash
    isolation: a worker killed by a signal loses only its current task. *)

(** {1 Frames}

    On the wire a frame is a 4-byte big-endian body length, then the
    body [magic "pfsync" | version byte | MD5 of payload | payload] with
    a marshalled payload — the checkpoint envelope of
    {!Pdf_core.Pfuzzer.Checkpoint} under its own magic, so a frame is
    never mistaken for an on-disk checkpoint. Every fleet uses this one
    envelope; the reader fixes the payload type, as with [Marshal]. *)

val encode_body : 'a -> string
(** The body alone (no length prefix). *)

val encode : 'a -> string
(** Length prefix plus body, ready to write to a pipe. *)

val decode_body : string -> ('a, string) result
(** [Error] carries a one-line reason. Precedence matches
    {!Pdf_core.Pfuzzer.Checkpoint.decode}: too short, bad magic, payload
    digest mismatch, version mismatch, unreadable payload — digest
    before version, so corruption is never misreported as skew. *)

(** Incremental decoder for a byte stream arriving in arbitrary chunks.
    A damaged body is rejected with its reason and skipped; the stream
    resynchronises at the next length prefix. An implausible length
    prefix kills the stream (there is nothing to resynchronise on).
    Buffering is amortised linear in the bytes fed, whatever the frame
    size. *)
module Decoder : sig
  type 'a t

  val create : unit -> 'a t

  val feed : 'a t -> bytes -> int -> unit
  (** [feed d chunk n] appends the first [n] bytes of [chunk]. *)

  val next : 'a t -> [ `Frame of 'a | `Reject of string | `Await ]
  (** Pop the next complete frame, the rejection reason of the next
      damaged one, or [`Await] when more bytes are needed. *)

  val finish : 'a t -> string option
  (** At EOF: [Some reason] when undecodable bytes remain buffered (a
      truncated trailing frame), [None] on a clean boundary. *)
end

(** {1 Fleets} *)

type verdict = [ `Progress | `Done | `Failed of string ]
(** What a message says about its task: more follow, it finished, or it
    failed (with the reason) and must be replayed. *)

val run :
  ?retries:int ->
  ?on_spawn:(worker:int -> pid:int -> unit) ->
  ?on_reject:(worker:int -> string -> unit) ->
  ?on_exit:(worker:int -> status:string -> lost:int option -> unit) ->
  ?on_retry:(task:int -> attempt:int -> string -> unit) ->
  workers:int ->
  work:(int -> ('m -> unit) -> unit) ->
  on_message:(worker:int -> task:int -> 'm -> verdict) ->
  int list ->
  (int * string) list
(** [run ~workers ~work ~on_message tasks] forks [workers] (at least
    one, at most one per task) and deals them [tasks] in list order. In
    a worker, [work task send] runs the task, framing each message it
    [send]s; if it raises, the worker exits with status 3. In the
    coordinator, [on_message ~worker ~task m] sees every message in
    arrival order and classifies it.

    A task is lost when its worker ends before settling it ([`Done] or
    [`Failed]). A worker that sent a damaged frame ([on_reject] gets the
    reason) is dealt no further tasks. Failed and lost tasks are
    replayed, in ascending order, in a fresh fleet, up to [retries]
    (default 2) more rounds; [on_retry] fires per task and round before
    the replay, with the round number (from 1) and the previous
    attempt's reason. Returns the tasks still unfinished after the last
    round with their last reason, in ascending order.

    Worker ids count up from 0 across rounds. [on_spawn] fires after
    each fork; [on_exit] after each reap, with ["exit:<code>"] or
    ["signal:<POSIX number>"] and the task the worker lost. Workers
    leave through [Unix._exit], so the coordinator's [at_exit] handlers
    and channel buffers are not theirs (channels are flushed before
    each fork). *)

val map :
  ?workers:int ->
  ?retries:int ->
  ?on_retry:(task:int -> attempt:int -> string -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, string) result list
(** [List.map] with failures isolated: an item whose [f] raises, or
    whose worker dies, is retried as in {!run} and ends as
    [Error reason] (the printed exception or the worker's end) once its
    retries are exhausted. Results are in input order. With [workers]
    ≤ 1 (the default) nothing is forked and the rounds run in-process;
    otherwise each result is marshalled back from {!run}'s workers, so
    ['b] must not contain closures. *)
