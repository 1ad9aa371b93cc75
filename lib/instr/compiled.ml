module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring
module Charset = Pdf_util.Charset

(* Staged combinators: the same fragment algebra as the subjects'
   continuation-style [K] module (lib/subjects/helpers.ml), but every
   combinator does its construction work when the parser is *staged* —
   once, at module initialisation or at nonterminal entry — instead of
   every time a fragment meets a context. A staged fragment is still an
   ordinary [Ctx.t -> Machine.step] function, so the whole incremental
   machinery (read-boundary journaling, snapshots, resume) works on it
   unchanged; the difference is that applying it allocates no step
   constructors, no reject strings and no intermediate closures on the
   hot path.

   The staging discipline mirrors partial evaluation:

   - [peek]/[next]/[skip] hoist their step node: one [Machine.Peek] /
     [Machine.Next] value is built per *staging*, not per character.
   - [expect] precomputes both reject messages (the [K] version runs two
     [Printf.sprintf]s per application).
   - [peek_is]/[eat_if] force both boolean continuations at stage time,
     so the runtime dispatch is a branch between two existing fragments.
   - [skip_while]/[skip_set] tie their two step nodes into a cycle with
     [let rec]: a character-skipping loop of any length allocates
     nothing at all.
   - [fix] closes self-referential fragments (line loops, record/rest
     cycles) so statically bounded recursion stages once. Truly
     recursive nonterminals (JSON values, nested expressions) remain
     plain OCaml functions that stage at each entry — same shape as
     [K], minus the per-character costs inside.

   Equivalence contract: a staged parser must make exactly the [Ctx]
   calls its [K] twin makes, in the same order, with the same arguments
   (including reject strings byte-for-byte) — the cross-engine
   invariant in [lib/check] holds both to it. The combinators here keep
   that order by construction; only the *when* of closure construction
   moves, never the observation sequence. *)

type k = Ctx.t -> Machine.step

type t = k
(** A staged recognizer. [Machine.recognizer] and [t] coincide, so a
    compiled subject plugs into every interpreter-facing API. *)

let stop : k =
  let step = Machine.Done in
  fun _ -> step

let peek (f : Tchar.t option -> k) : k =
  let step = Machine.Peek (fun c ctx -> f c ctx) in
  fun _ -> step

let next (f : Tchar.t option -> k) : k =
  let step = Machine.Next (fun c ctx -> f c ctx) in
  fun _ -> step

(* Consume the (already peeked) character at the cursor, ignoring it. *)
let skip (k : k) : k =
  let step = Machine.Next (fun _ ctx -> k ctx) in
  fun _ -> step

let with_frame site (body : k -> k) (k : k) : k =
  let inner =
    body
      (fun ctx ->
        Ctx.exit_frame ctx;
        k ctx)
  in
  fun ctx ->
    Ctx.enter_frame ctx site;
    inner ctx

(* Tie a self-referential fragment: [fix (fun self -> body)] stages
   [body] exactly once, with [self] dispatching back to it. The ref is
   written once during staging and only read afterwards. *)
let fix (f : k -> k) : k =
  let r = ref stop in
  let dispatch : k = fun ctx -> !r ctx in
  r := f dispatch;
  dispatch

(* Character-skipping loop: two step nodes tied into a cycle, so a run
   of any length allocates nothing. [test] must be the observation
   itself (a [Ctx.in_set]/[Ctx.in_range]/… call): it runs once per
   character, exactly as the [K] twin's loop body does. *)
let skip_while (test : Tchar.t -> Ctx.t -> bool) (k : k) : k =
  let rec next_node = Machine.Next (fun _ _ -> peek_node)
  and peek_node =
    Machine.Peek
      (fun c ctx ->
        match c with
        | None -> k ctx
        | Some c -> if test c ctx then next_node else k ctx)
  in
  fun _ -> peek_node

(* Pre-resolved instrumentation slots: freeze a site's outcome ids and
   the comparison-event kind at staging time (see {!Ctx.slot}). The
   kinds built here are exactly what the tracked [Ctx] operations build
   per call, so comparison logs stay structurally identical. *)
let slot_eq site expected = Ctx.slot site (Comparison.Char_eq expected)
let slot_range site lo hi = Ctx.slot site (Comparison.Char_range (lo, hi))
let slot_set site ~label set = Ctx.slot site (Comparison.Char_set (set, label))

let slot_one_of site chars =
  Ctx.slot site (Comparison.Char_set (Charset.of_string chars, "one-of " ^ chars))

let skip_set site ~label set (k : k) : k =
  let sl = slot_set site ~label set in
  skip_while (fun c ctx -> Ctx.in_set_slot ctx sl c set) k

let skip_range site lo hi (k : k) : k =
  let sl = slot_range site lo hi in
  skip_while (fun c ctx -> Ctx.in_range_slot ctx sl c lo hi) k

(* The accumulator makes each loop state distinct, so the nodes cannot
   be tied into a static cycle: a suspension taken mid-token must
   remember the characters read so far, and a mutable accumulator would
   be shared with every resume. Build per character, like [K]. *)
let read_set site ~label set (f : Tstring.t -> k) : k =
  let sl = slot_set site ~label set in
  fun ctx ->
    let rec go acc _ctx =
      Machine.Peek
        (fun c ctx ->
          match c with
          | None -> f (Tstring.of_chars (List.rev acc)) ctx
          | Some c ->
            if Ctx.in_set_slot ctx sl c set then
              Machine.Next (fun _ ctx -> go (c :: acc) ctx)
            else f (Tstring.of_chars (List.rev acc)) ctx)
    in
    go [] ctx

let reject_msgs expected =
  ( Printf.sprintf "expected %C, found end of input" expected,
    Printf.sprintf "expected %C" expected )

let expect_with ~msg_eof ~msg site expected (k : k) : k =
  let sl = slot_eq site expected in
  next (fun c ->
      fun ctx ->
        match c with
        | None -> Ctx.reject ctx msg_eof
        | Some c ->
          if Ctx.eq_slot ctx sl c expected then k ctx else Ctx.reject ctx msg)

let expect site expected (k : k) : k =
  let msg_eof, msg = reject_msgs expected in
  expect_with ~msg_eof ~msg site expected k

let peek_is site expected (f : bool -> k) : k =
  let sl = slot_eq site expected in
  let on_hit = f true and on_miss = f false in
  peek (fun c ->
      fun ctx ->
        match c with
        | None -> on_miss ctx
        | Some c ->
          if Ctx.eq_slot ctx sl c expected then on_hit ctx else on_miss ctx)

let eat_if site expected (f : bool -> k) : k =
  peek_is site expected (fun matched ->
      if matched then skip (f true) else f false)
