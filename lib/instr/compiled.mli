(** Staged (compiled-tier) parser combinators.

    The machine-form subjects are written against the continuation
    algebra in [lib/subjects/helpers.ml] ([K]): a fragment is a
    [Ctx.t -> Machine.step], and every combinator builds its step nodes,
    reject strings and dispatch closures {e each time a fragment is
    applied to a context} — once per character on the hot loops. This
    module is the same algebra with the construction moved to {e staging
    time}: combinators do their work when the parser is assembled (at
    module initialisation, or on nonterminal entry for recursive
    productions) and return fragments whose application is direct calls
    over pre-built step nodes. A staged recognizer is an ordinary
    {!Machine.recognizer}, so journaling, snapshots and resume
    ({!Runner}) work on it unchanged.

    Staging must never change what a parser {e observes}: a compiled
    subject makes exactly the [Ctx] calls its interpreted twin makes, in
    the same order with the same arguments (reject strings included), so
    verdicts, comparison logs, coverage, traces and path identities are
    bit-identical between engines. [lib/check]'s cross-engine invariant
    holds subjects to this. *)

type k = Ctx.t -> Machine.step
(** A staged parser fragment; same type as the interpreted [K.k]. *)

type t = k
(** A staged recognizer (the whole parser). Coincides with
    {!Machine.recognizer}. *)

val stop : k
(** Finish parsing. *)

val peek : (Pdf_taint.Tchar.t option -> k) -> k
(** Look at the next character without consuming it. The step node is
    built once, at staging; the continuation runs per application. *)

val next : (Pdf_taint.Tchar.t option -> k) -> k
(** Consume and examine the next character. *)

val skip : k -> k
(** Consume the (already peeked) character at the cursor, ignoring it. *)

val with_frame : Site.t -> (k -> k) -> k -> k
(** [with_frame site body k] brackets [body] in a call frame. [body] is
    applied {e once}, at staging — bodies needing per-application
    effects must return a closure performing them (e.g.
    [fun ctx -> Ctx.tick ctx; node ctx]). *)

val fix : (k -> k) -> k
(** [fix (fun self -> body)] stages a self-referential fragment once:
    [self] dispatches back to the staged body. Use for loops whose
    continuation set is fixed (line loops, record cycles); truly
    recursive nonterminals should remain functions that re-enter per
    application. The internal ref is written once during staging and
    only read afterwards. *)

val skip_while : (Pdf_taint.Tchar.t -> Ctx.t -> bool) -> k -> k
(** Allocation-free character-skipping loop: two step nodes tied into a
    cycle. [test] must itself be the tracked observation
    ([Ctx.in_range], [Ctx.in_set], …) — it runs once per character. *)

(** {2 Pre-resolved instrumentation slots}

    Constructors for {!Ctx.slot}: each freezes a branch site's two
    outcome ids together with the comparison-event kind its tracked
    [Ctx] counterpart would build per call. Subjects stage these at
    assembly time and observe through [Ctx.eq_slot] and friends, so the
    per-character path does no site dispatch and allocates no kind
    block — with comparison logs structurally identical to the
    interpreted twin's. *)

val slot_eq : Site.t -> char -> Ctx.slot
val slot_range : Site.t -> char -> char -> Ctx.slot
val slot_set : Site.t -> label:string -> Pdf_util.Charset.t -> Ctx.slot
val slot_one_of : Site.t -> string -> Ctx.slot

val skip_set : Site.t -> label:string -> Pdf_util.Charset.t -> k -> k
(** [skip_while] over a staged {!Ctx.in_set_slot}, mirroring
    [K.skip_set]. *)

val skip_range : Site.t -> char -> char -> k -> k
(** [skip_while] over a staged {!Ctx.in_range_slot}, mirroring the
    interpreted digit loops. *)

val read_set :
  Site.t -> label:string -> Pdf_util.Charset.t ->
  (Pdf_taint.Tstring.t -> k) -> k
(** Accumulating variant, mirroring [K.read_set]. Builds per character
    (the accumulator makes each loop state distinct and must survive in
    suspensions), so it stages nothing — use only off the hot path. *)

val reject_msgs : char -> string * string
(** [(eof_message, mismatch_message)] for an expected character, byte
    for byte what [K.expect] formats. Precompute these for productions
    that call {!expect_with} at runtime. *)

val expect : Site.t -> char -> k -> k
(** Demand one specific character; both reject messages are formatted at
    staging. *)

val expect_with : msg_eof:string -> msg:string -> Site.t -> char -> k -> k
(** {!expect} with caller-precomputed messages, for productions staged
    per entry (recursive nonterminals) that must not re-format them. *)

val peek_is : Site.t -> char -> (bool -> k) -> k
(** Mirrors [K.peek_is]; both boolean continuations are forced at
    staging. *)

val eat_if : Site.t -> char -> (bool -> k) -> k
(** Mirrors [K.eat_if]; both boolean continuations are forced at
    staging. *)
