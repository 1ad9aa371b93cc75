(* The traced run. Each workload's campaigns are run once untraced, then
   again with their streams recorded through the public hooks
   ([on_execution], [on_queue_event], [on_valid], [on_checkpoint], and an
   observer sink for the executions' prefix hints). The recorded streams
   are then replayed through each layer's public functions with a span
   around every call, and the per-layer metrics are computed from the
   spans. Replays that disagree with the recording — verdicts, coverage,
   cache hits, queue pops, valid inputs — count as guard failures, and a
   workload with any guard failure has its per-layer numbers refused. *)

module Subject = Pdf_subjects.Subject
module Pfuzzer = Pdf_core.Pfuzzer
module Runner = Pdf_instr.Runner
module Coverage = Pdf_instr.Coverage
module Pqueue = Pdf_util.Pqueue
module Vec = Pdf_util.Vec
module Clock = Pdf_obs.Clock
module Invariants = Pdf_check.Invariants
module Dist = Pdf_eval.Dist
module W = Workload

type ctx = {
  sp : Spans.t;
  mutable guard_failures : int;
  mutable replayed : int;  (** executions replayed *)
}

let guard ctx ok what =
  if not ok then begin
    ctx.guard_failures <- ctx.guard_failures + 1;
    if ctx.guard_failures <= 10 then
      Printf.eprintf "perfbench: replay guard failed: %s\n%!" what
  end

let time_ns f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* {1 Recording a pFuzzer campaign} *)

type recording = {
  subject : Subject.t;
  config : Pfuzzer.config;
  result : Pfuzzer.result;
  runs : Runner.run array;
  hints : int array;  (** inherited-prefix hint of each execution *)
  queue : Pfuzzer.queue_event array;
}

let record ctx ~parent config (subject : Subject.t) =
  let dummy = Subject.run subject "" in
  let runs = Vec.create ~capacity:config.Pfuzzer.max_executions dummy in
  let hints = Vec.create ~capacity:config.max_executions 0 in
  let queue = Vec.create (Pfuzzer.Pushed (0.0, "")) in
  let valid = ref [] in
  let sink =
    {
      Pdf_obs.Trace.emit =
        (fun st ->
          match st.Pdf_obs.Event.ev with
          | Pdf_obs.Event.Exec_start { prefix; _ } -> Vec.push hints prefix
          | _ -> ());
      close = ignore;
    }
  in
  let result =
    Spans.time ctx.sp ~parent "record" (fun () ->
        Pfuzzer.fuzz ~obs:(Pdf_obs.Observer.create ~sink ())
          ~on_execution:(Vec.push runs) ~on_queue_event:(Vec.push queue)
          ~on_valid:(fun v -> valid := v :: !valid)
          config subject)
  in
  guard ctx (List.rev !valid = result.valid_inputs) (subject.name ^ ": on_valid stream");
  guard ctx
    (Vec.length runs = result.executions && Vec.length hints = result.executions)
    (subject.name ^ ": execution stream length");
  {
    subject;
    config;
    result;
    runs = Vec.to_array runs;
    hints = Vec.to_array hints;
    queue = Vec.to_array queue;
  }

(* {1 Replays} *)

(* The fuzzer's own execution path, call by call: prefix-cache lookup,
   resume or cold execution through the resolved engine, then the
   snapshots it keeps. Spans: cache.lookup, cache.resume, exec.cold,
   cache.probe, cache.snapshot, cache.store. *)
let replay_exec ctx ~parent r =
  let subject = r.subject in
  let time name f = Spans.time ctx.sp ~parent name f in
  let machine = if r.config.incremental then subject.machine else None in
  let staged =
    match r.config.engine with
    | Pfuzzer.Compiled when subject.compiled_preferred -> subject.compiled
    | _ -> None
  in
  let arena =
    Option.map
      (fun _ -> Runner.arena ~registry:subject.registry ~fuel:subject.fuel ())
      staged
  in
  let same i run =
    if not (Invariants.runs_equal run r.runs.(i)) then
      guard ctx false (Printf.sprintf "%s: execution %d replays differently" subject.name (i + 1))
  in
  match machine with
  | None ->
    (* Direct-style subjects: every execution is a cold parse. *)
    Array.iteri
      (fun i (run : Runner.run) ->
        same i (time "exec.cold" (fun () -> Subject.run subject run.input)))
      r.runs
  | Some machine ->
    let cache = Runner.Cache.create () in
    let hits = ref 0 and rescues = ref 0 in
    let cold input =
      time "exec.cold" (fun () ->
          match (staged, arena) with
          | Some s, Some a -> Runner.exec_compiled a s input
          | _ -> Subject.exec_journaled subject machine input)
    in
    Array.iteri
      (fun i (recorded : Runner.run) ->
        let input = recorded.input and h = r.hints.(i) in
        let snap =
          if h > 0 && h <= String.length input then
            time "cache.lookup" (fun () -> Runner.Cache.find_prefix cache input ~len:h)
          else None
        in
        let run, journal =
          match snap with
          | None -> cold input
          | Some s -> (
            let ((run, _) as resumed) = time "cache.resume" (fun () -> Runner.resume s input) in
            match run.Runner.verdict with
            | Runner.Crash _ ->
              Runner.Cache.remove_prefix cache input ~len:h;
              incr rescues;
              cold input
            | _ ->
              incr hits;
              resumed)
        in
        let store pos =
          if pos > 0 && pos <= String.length input then
            if not (time "cache.probe" (fun () -> Runner.Cache.mem_prefix cache input ~len:pos))
            then
              match time "cache.snapshot" (fun () -> Runner.snapshot_at journal pos) with
              | Some snap ->
                time "cache.store" (fun () ->
                    Runner.Cache.store cache (String.sub input 0 pos) snap)
              | None -> ()
        in
        (match Runner.substitution_index run with Some p -> store p | None -> ());
        store (String.length input);
        same i run)
      r.runs;
    let st = Runner.Cache.stats cache in
    let c = r.result.cache in
    guard ctx
      (!hits = c.hits && st.misses = c.misses && st.evictions = c.evictions
     && st.chars_saved = c.chars_saved && !rescues = c.rescues)
      (Printf.sprintf "%s: cache replay hits %d/%d misses %d/%d" subject.name !hits c.hits
         st.misses c.misses)

let exec_spans =
  [ "cache.lookup"; "cache.resume"; "exec.cold"; "cache.probe"; "cache.snapshot"; "cache.store" ]

(* Time every mode on every recorded input, block by block with the
   mode order rotating so that drift and cache warmth hit all modes
   alike; short streams are replayed several times over so that each
   mode gets at least [min_calls] calls. *)
let min_calls = 20_000

let interleave ctx ~parent n modes =
  let block = 256 in
  let nm = Array.length modes in
  let rounds = if n = 0 then 0 else (min_calls + n - 1) / n in
  let k = ref 0 in
  for _ = 1 to rounds do
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + block) in
      for m = 0 to nm - 1 do
        let name, f = modes.((!k + m) mod nm) in
        for i = !lo to hi - 1 do
          Spans.time ctx.sp ~parent name (fun () -> f i)
        done
      done;
      incr k;
      lo := hi
    done
  done

(* Cold parses in the three recording modes: full (the pFuzzer mode),
   coverage only, and coverage plus full trace (the AFL mode). *)
let replay_subjects ctx ~parent r =
  let subject = r.subject in
  let input i = r.runs.(i).Runner.input in
  let parse i =
    let run = Subject.run subject (input i) in
    let recorded = r.runs.(i) in
    if
      not
        (Runner.accepted run = Runner.accepted recorded
        && Coverage.equal run.coverage recorded.coverage)
    then guard ctx false (Printf.sprintf "%s: cold parse %d differs" subject.name (i + 1))
  in
  interleave ctx ~parent (Array.length r.runs)
    [|
      ("subjects.parse", parse);
      ( "instr.coverage_only",
        fun i -> ignore (Subject.run ~track_comparisons:false subject (input i)) );
      ( "instr.afl_mode",
        fun i ->
          ignore (Subject.run ~track_comparisons:false ~track_trace:true subject (input i)) );
    |]

(* The staged and the interpreted engine on the same inputs. *)
let replay_engines ctx ~parent r =
  match (r.subject.machine, r.subject.compiled) with
  | Some machine, Some compiled ->
    let registry = r.subject.registry and fuel = r.subject.fuel in
    let arena = Runner.arena ~registry ~fuel () in
    let input i = r.runs.(i).Runner.input in
    let compiled i =
      let run, _ = Runner.exec_compiled arena compiled (input i) in
      if not (Coverage.equal run.coverage r.runs.(i).coverage) then
        guard ctx false (r.subject.name ^ ": compiled engine coverage differs")
    in
    interleave ctx ~parent (Array.length r.runs)
      [|
        ("compiled.exec", compiled);
        ("machine.exec", fun i -> ignore (Runner.exec_machine ~registry ~machine ~fuel (input i)));
      |]
  | _ -> ()

(* The candidate queue, driven by the recorded event stream. Entries
   carry their insertion number so re-rank snapshots (given in insertion
   order) map back onto them. *)
let replay_queue ctx ~parent r =
  let q = Pqueue.create () in
  let seq = ref 0 in
  let time name f = Spans.time ctx.sp ~parent name f in
  let pending () = List.map (fun (_, (_, d)) -> d) (Pqueue.snapshot q) in
  Array.iter
    (function
      | Pfuzzer.Pushed (p, d) ->
        incr seq;
        time "pqueue.push" (fun () -> Pqueue.push q p (!seq, d))
      | Pfuzzer.Popped (p, d) -> (
        match time "pqueue.pop" (fun () -> Pqueue.pop_with_priority q) with
        | Some (p', (_, d')) when p' = p && d' = d -> ()
        | _ -> guard ctx false (r.subject.name ^ ": queue pop differs"))
      | Pfuzzer.Reranked snap ->
        let prios = Hashtbl.create 1024 in
        (try
           List.iter2
             (fun (_, (s, d)) (p, d') ->
               if d <> d' then raise Exit;
               Hashtbl.replace prios s p)
             (Pqueue.snapshot q) snap
         with Exit | Invalid_argument _ ->
           guard ctx false (r.subject.name ^ ": rerank snapshot differs"));
        time "pqueue.rerank" (fun () ->
            Pqueue.rerank q (fun (s, _) ->
                match Hashtbl.find_opt prios s with Some p -> p | None -> neg_infinity))
      | Pfuzzer.Truncated snap ->
        time "pqueue.truncate" (fun () -> Pqueue.drop_worst q (List.length snap));
        if List.sort compare (pending ()) <> List.sort compare (List.map snd snap) then
          guard ctx false (r.subject.name ^ ": truncation keeps other entries"))
    r.queue

(* Candidates rebuilt from the recorded rejected runs, scored against the
   campaign's final valid-branch set, then one queue re-rank per valid
   input found. *)
let replay_heuristic ctx ~parent r =
  let vbr = r.result.valid_coverage in
  let variant = r.config.heuristic in
  let candidates =
    Array.to_list r.runs
    |> List.filter (fun run -> not (Runner.accepted run))
    |> List.map (fun (run : Runner.run) ->
           {
             Pdf_core.Candidate.data = run.input;
             repl = "";
             parents = 0;
             parent_coverage = Runner.coverage_up_to_last_index run;
             avg_stack = Runner.avg_stack_of_last_two run;
             path_count = 0;
           })
  in
  let q = Pqueue.create () in
  List.iter
    (fun c ->
      let p =
        Spans.time ctx.sp ~parent "heuristic.score" (fun () ->
            Pdf_core.Heuristic.score variant ~vbr c)
      in
      Pqueue.push q p c)
    candidates;
  for _ = 1 to List.length r.result.valid_inputs do
    Spans.time ctx.sp ~parent "heuristic.rerank" (fun () ->
        Pqueue.rerank q (Pdf_core.Heuristic.score variant ~vbr))
  done;
  Pqueue.length q

(* What the per-layer metrics keep of a pFuzzer campaign once its
   streams are dropped. *)
type summary = {
  result : Pfuzzer.result;
  untraced_ns : int;
  metrics_ns : int;  (** the same campaign with a metrics-only observer *)
  phase_ns : int;  (** what that observer's phase spans attributed *)
  gc : Gc.stat * Gc.stat;  (** around the untraced campaign *)
  chars : int;  (** input characters over all executions *)
  comparisons : int;
  rerank_entries : int;  (** queue entries summed over the re-ranks *)
}

type totals = {
  mutable summaries : summary list;
  mutable untraced_ns : int;  (** untraced wall of what was traced *)
  mutable traced_ns : int;  (** wall of the recordings and replays *)
  mutable extra : (string * float) list;  (** workload-specific metrics *)
}

(* Run one campaign untraced, then with a metrics-only observer, then
   record it and replay it through every pFuzzer layer. Keeps a summary
   in [t] and returns the recording. *)
let pfuzzer_layers ctx t ~parent config (subject : Subject.t) =
  let gc0 = Gc.quick_stat () in
  let plain = Pfuzzer.fuzz config subject in
  let gc1 = Gc.quick_stat () in
  (* Untraced and metrics-mode wall times: three alternating rounds after
     the run above, the median of each (with the phase total of the
     median metrics-mode run). *)
  let round () =
    let untraced = snd (time_ns (fun () -> Pfuzzer.fuzz config subject)) in
    let obs = Pdf_obs.Observer.create ~metrics:(Pdf_obs.Metrics.create ()) () in
    let metrics = snd (time_ns (fun () -> Pfuzzer.fuzz ~obs config subject)) in
    let phases =
      List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Pdf_obs.Observer.phase_totals obs)
    in
    (untraced, (metrics, phases))
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  let middle l = List.nth (List.sort compare l) 1 in
  let untraced_ns = middle (List.map fst rounds) in
  let metrics_ns, phase_ns = middle (List.map snd rounds) in
  let (r, entries), traced_ns =
    time_ns (fun () ->
        let s = Spans.open_ ctx.sp ~parent ("subject:" ^ subject.name) in
        let r = record ctx ~parent:s config subject in
        let step name f =
          let id = Spans.open_ ctx.sp ~parent:s name in
          let x = f id in
          Spans.close ctx.sp id;
          x
        in
        step "replay.exec" (fun id -> replay_exec ctx ~parent:id r);
        step "replay.subjects" (fun id -> replay_subjects ctx ~parent:id r);
        step "replay.engines" (fun id -> replay_engines ctx ~parent:id r);
        step "replay.queue" (fun id -> replay_queue ctx ~parent:id r);
        let entries = step "replay.heuristic" (fun id -> replay_heuristic ctx ~parent:id r) in
        Spans.close ctx.sp s;
        (r, entries))
  in
  guard ctx (Invariants.results_equal plain r.result)
    (subject.name ^ ": recorded campaign differs from the untraced one");
  ctx.replayed <- ctx.replayed + Array.length r.runs;
  t.untraced_ns <- t.untraced_ns + untraced_ns;
  t.traced_ns <- t.traced_ns + traced_ns;
  let sum f = Array.fold_left (fun acc run -> acc + f run) 0 r.runs in
  t.summaries <-
    {
      result = r.result;
      untraced_ns;
      metrics_ns;
      phase_ns;
      gc = (gc0, gc1);
      chars = sum (fun run -> String.length run.Runner.input);
      comparisons = sum (fun run -> Array.length run.Runner.comparisons);
      rerank_entries = entries * List.length r.result.valid_inputs;
    }
    :: t.summaries;
  r

(* {1 eval-grid: AFL, KLEE and the grid itself} *)

(* AFL's grid cell re-run with its valid corpus recorded, then rounds of
   mutate, execute in AFL's mode and fold into the bitmap over that
   corpus (havoc, and splice every eighth round), plus the deterministic
   stage on every short corpus entry. Returns the rounds that lit new
   bits, the rounds, and the deterministic variants produced. *)
let afl_layers ctx ~parent ~seed ~budget (subject : Subject.t) (cell : Pdf_eval.Tool.outcome) =
  let corpus = ref [] in
  let res =
    Spans.time ctx.sp ~parent "record" (fun () ->
        Pdf_afl.Afl.fuzz
          ~on_valid:(fun v -> corpus := v :: !corpus)
          { Pdf_afl.Afl.default_config with seed; max_executions = budget }
          subject)
  in
  guard ctx
    (res.valid_inputs = cell.valid_inputs && List.rev !corpus = res.valid_inputs)
    (subject.name ^ ": AFL rerun differs from its grid cell");
  let corpus = Array.of_list (" " :: res.valid_inputs) in
  let rng = Pdf_util.Rng.make seed in
  let virgin = Pdf_afl.Bitmap.create () and builder = Pdf_afl.Bitmap.builder () in
  let fresh = ref 0 in
  let n = 2000 in
  for i = 0 to n - 1 do
    let base = corpus.(i mod Array.length corpus) in
    let m =
      Spans.time ctx.sp ~parent "afl.mutate" (fun () ->
          if i mod 8 = 7 then
            Pdf_afl.Mutator.splice rng base corpus.(Pdf_util.Rng.int rng (Array.length corpus))
          else Pdf_afl.Mutator.havoc rng base)
    in
    let run =
      Spans.time ctx.sp ~parent "afl.exec" (fun () ->
          Subject.run ~track_comparisons:false ~track_trace:true subject m)
    in
    if
      Spans.time ctx.sp ~parent "afl.bitmap" (fun () ->
          let sparse = Pdf_afl.Bitmap.sparse_of_trace builder run.trace in
          let nb = Pdf_afl.Bitmap.new_bits ~virgin sparse in
          if nb then Pdf_afl.Bitmap.merge ~into:virgin sparse;
          nb)
    then incr fresh
  done;
  (* The deterministic stage yields many variants per call; its time is
     charged per variant produced. *)
  let variants = ref 0 in
  Array.iter
    (fun base ->
      if String.length base <= Pdf_afl.Afl.default_config.deterministic_limit then
        variants :=
          !variants
          + List.length
              (Spans.time ctx.sp ~parent "afl.deterministic" (fun () ->
                   Pdf_afl.Mutator.deterministic base)))
    corpus;
  ctx.replayed <- ctx.replayed + n;
  (!fresh, n, !variants)

(* KLEE's grid cell re-run for its solver counters, then one solver call
   per branch negation KLEE would expand (the deepest
   [negations_per_run] comparisons) of each recorded pFuzzer run. *)
let klee_layers ctx ~parent ~seed ~budget (subject : Subject.t) (cell : Pdf_eval.Tool.outcome)
    (runs : Runner.run array) =
  let res =
    Spans.time ctx.sp ~parent "record" (fun () ->
        Pdf_klee.Klee.fuzz
          { Pdf_klee.Klee.default_config with seed; max_executions = budget }
          subject)
  in
  guard ctx (res.valid_inputs = cell.valid_inputs)
    (subject.name ^ ": KLEE rerun differs from its grid cell");
  let rng = Pdf_util.Rng.make seed in
  Array.iter
    (fun (run : Runner.run) ->
      let n = Array.length run.comparisons in
      for k = max 0 (n - Pdf_klee.Klee.default_config.negations_per_run) to n - 1 do
        let pc = Pdf_klee.Path_constraint.of_comparisons run.comparisons k in
        ignore
          (Spans.time ctx.sp ~parent "klee.solve" (fun () ->
               Pdf_klee.Solver.solve rng ~base:run.input ~min_length:0 pc))
      done)
    runs;
  (res.solver_failures, res.states_created)

(* {1 Per-workload drivers} *)

let pfuzzer_metrics ctx t =
  let sp = ctx.sp in
  let sum f = List.fold_left (fun acc (u : summary) -> acc + f u) 0 t.summaries in
  let execs = sum (fun u -> u.result.executions) in
  let untraced_ns = sum (fun u -> u.untraced_ns) in
  let per_exec v = fdiv v execs in
  let parse = Spans.mean_ns sp "subjects.parse" in
  let cov_only = Spans.mean_ns sp "instr.coverage_only" in
  let exec_ns = List.fold_left (fun acc n -> acc + Spans.sum_ns sp n) 0 exec_spans in
  let cache f = sum (fun u -> f u.result.cache) in
  let gc f = sum (fun u -> let a, b = u.gc in f b - f a) in
  let valid = sum (fun u -> List.length u.result.valid_inputs) in
  let candidates = sum (fun u -> u.result.candidates_created) in
  let queue_ops =
    List.fold_left (fun acc n -> acc + Spans.count sp n)
      0 [ "pqueue.push"; "pqueue.pop"; "pqueue.rerank"; "pqueue.truncate" ]
  in
  let metrics_ns = sum (fun u -> u.metrics_ns) in
  let promoted =
    List.fold_left
      (fun acc u -> let a, b = u.gc in acc +. (b.Gc.promoted_words -. a.Gc.promoted_words))
      0.0 t.summaries
  in
  [
    ("subjects.parse_ns_per_exec", parse);
    ("subjects.parse_share", if untraced_ns = 0 then 0.0 else parse /. per_exec untraced_ns);
    ("subjects.chars_per_exec", per_exec (sum (fun u -> u.chars)));
    ("instr.record_ns_per_exec", parse -. cov_only);
    ("instr.comparisons_per_exec", per_exec (sum (fun u -> u.comparisons)));
    ("instr.trace_ns_per_exec", Spans.mean_ns sp "instr.afl_mode" -. cov_only);
    ("cache.hit_rate", fdiv (cache (fun c -> c.hits)) (cache (fun c -> c.hits + c.misses)));
    ("cache.chars_saved_per_exec", per_exec (cache (fun c -> c.chars_saved)));
    ("cache.evictions_per_exec", per_exec (cache (fun c -> c.evictions)));
    ("cache.rescues", float_of_int (cache (fun c -> c.rescues)));
    ("cache.resume_ns", Spans.mean_ns sp "cache.resume");
    ("cache.snapshot_ns", Spans.mean_ns sp "cache.snapshot");
    ("cache.lookup_ns", Spans.mean_ns sp "cache.lookup");
    ("cache.store_ns", Spans.mean_ns sp "cache.store");
    ("compiled.exec_ns", Spans.mean_ns sp "compiled.exec");
    ("machine.exec_ns", Spans.mean_ns sp "machine.exec");
    ("core.overhead_ns_per_exec", per_exec untraced_ns -. per_exec exec_ns);
    ("core.candidates_per_exec", per_exec candidates);
    ("core.useful_ratio", fdiv valid candidates);
    ( "core.queue_peak",
      float_of_int (List.fold_left (fun acc u -> max acc u.result.queue_peak) 0 t.summaries) );
    ("core.dedupe_resets", float_of_int (sum (fun u -> u.result.dedupe_resets)));
    ("core.path_resets", float_of_int (sum (fun u -> u.result.path_resets)));
    ("heuristic.score_ns", Spans.mean_ns sp "heuristic.score");
    ( "heuristic.rerank_ns_per_entry",
      fdiv (Spans.sum_ns sp "heuristic.rerank") (sum (fun u -> u.rerank_entries)) );
    ("pqueue.push_ns", Spans.mean_ns sp "pqueue.push");
    ("pqueue.pop_ns", Spans.mean_ns sp "pqueue.pop");
    ("pqueue.truncate_ns", Spans.mean_ns sp "pqueue.truncate");
    ("pqueue.ops_per_exec", per_exec queue_ops);
    ("gc.minor_collections_per_kexec", 1000.0 *. per_exec (gc (fun s -> s.Gc.minor_collections)));
    ("gc.promoted_words_per_exec", if execs = 0 then 0.0 else promoted /. float_of_int execs);
    ("gc.major_collections", float_of_int (gc (fun s -> s.Gc.major_collections)));
    ("obs.attributed_share", fdiv (sum (fun u -> u.phase_ns)) metrics_ns);
    ("obs.metrics_overhead_pct", 100.0 *. (fdiv metrics_ns untraced_ns -. 1.0));
    ("trace.overhead_s", float_of_int (t.traced_ns - t.untraced_ns) /. 1e9);
  ]

let grid_layers ctx t ~parent ~seed ~budget =
  let module Tool = Pdf_eval.Tool in
  let g, grid_ns = time_ns (fun () -> W.grid ~seed ~budget) in
  let cells =
    List.concat_map
      (fun (_, row) -> List.map (fun (_, (c : Pdf_eval.Experiment.cell)) -> c.outcome) row)
      g.cells
  in
  let cell_s = List.map (fun (o : Tool.outcome) -> o.wall_clock_s) cells in
  let tool_rate tool =
    let os = List.filter (fun (o : Tool.outcome) -> o.tool = tool) cells in
    let ex = List.fold_left (fun a (o : Tool.outcome) -> a + o.executions) 0 os in
    let s = List.fold_left (fun a (o : Tool.outcome) -> a +. o.wall_clock_s) 0.0 os in
    if s = 0.0 then 0.0 else float_of_int ex /. s
  in
  let fresh = ref 0 and mutated = ref 0 and variants = ref 0 in
  let failures = ref 0 and states = ref 0 in
  List.iter
    (fun (subject : Subject.t) ->
      let s = Spans.open_ ctx.sp ~parent ("grid:" ^ subject.name) in
      let cell tool = (Pdf_eval.Experiment.cell g subject.name tool).outcome in
      let execs tool = max 1 (budget / Tool.cost_per_execution tool) in
      let r =
        pfuzzer_layers ctx t ~parent:s (W.config ~seed ~budget:(execs Tool.Pfuzzer)) subject
      in
      guard ctx
        (r.result.valid_inputs = (cell Tool.Pfuzzer).valid_inputs)
        (subject.name ^ ": pFuzzer rerun differs from its grid cell");
      let (f, m, v), afl_ns =
        time_ns (fun () ->
            afl_layers ctx ~parent:s ~seed ~budget:(execs Tool.Afl) subject (cell Tool.Afl))
      in
      fresh := !fresh + f;
      mutated := !mutated + m;
      variants := !variants + v;
      let (sf, sc), klee_ns =
        time_ns (fun () ->
            klee_layers ctx ~parent:s ~seed ~budget:(execs Tool.Klee) subject (cell Tool.Klee)
              r.runs)
      in
      failures := !failures + sf;
      states := !states + sc;
      t.traced_ns <- t.traced_ns + afl_ns + klee_ns;
      t.untraced_ns <-
        t.untraced_ns
        + int_of_float (1e9 *. ((cell Tool.Afl).wall_clock_s +. (cell Tool.Klee).wall_clock_s));
      Spans.close ctx.sp s)
    g.subjects;
  let sp = ctx.sp in
  let mutate_ns = Spans.sum_ns sp "afl.mutate" + Spans.sum_ns sp "afl.deterministic" in
  t.extra <-
    [
      ("afl.exec_ns", Spans.mean_ns sp "afl.exec");
      ("afl.mutate_ns", fdiv mutate_ns (Spans.count sp "afl.mutate" + !variants));
      ("afl.bitmap_ns", Spans.mean_ns sp "afl.bitmap");
      ("afl.new_bits_ratio", fdiv !fresh !mutated);
      ("afl.execs_per_s", tool_rate Tool.Afl);
      ("klee.solve_ns", Spans.mean_ns sp "klee.solve");
      ("klee.solver_failure_ratio", fdiv !failures (!failures + !states));
      ("klee.execs_per_s", tool_rate Tool.Klee);
      ("eval.cell_s_max", List.fold_left max 0.0 cell_s);
      ( "eval.parallel_efficiency",
        List.fold_left ( +. ) 0.0 cell_s
        /. (float_of_int W.jobs *. (float_of_int grid_ns /. 1e9)) );
    ]

(* dist-campaign's frame cadence: every [frame_every] executions a shard
   captures a checkpoint, turns it into a partial result and encodes a
   sync frame. *)
let frame_every = 500

let dist_layers ctx t ~parent ~seed ~budget =
  let subject = List.hd (W.subjects W.Dist_campaign) in
  let config = W.config ~seed ~budget in
  let campaign = W.campaign ~seed ~budget in
  let reference, reference_ns = time_ns (fun () -> Dist.reference config subject) in
  guard ctx
    (Invariants.results_equal reference campaign.result)
    "campaign differs from Dist.reference";
  let plan = Dist.plan config in
  let frames = ref 0 and bytes = ref 0 in
  let shard_results, (plain_ns, ck_ns) =
    List.fold_left
      (fun (results, (plain_ns, ck_ns)) (sh : Dist.shard) ->
        let cfg = Dist.shard_config plan sh in
        let r = pfuzzer_layers ctx t ~parent cfg subject in
        let s = Spans.open_ ctx.sp ~parent (Printf.sprintf "shard:%d" sh.shard_id) in
        let on_checkpoint ck =
          let partial =
            Spans.time ctx.sp ~parent:s "dist.partial_result" (fun () ->
                Pfuzzer.Checkpoint.partial_result ck)
          in
          let frame =
            Spans.time ctx.sp ~parent:s "dist.frame_encode" (fun () ->
                Dist.Frame.encode
                  {
                    Dist.Frame.shard = sh.shard_id;
                    seq = Pfuzzer.Checkpoint.executions ck;
                    final = false;
                    result = partial;
                    metrics = None;
                  })
          in
          incr frames;
          bytes := !bytes + String.length frame
        in
        (* The shard with and without the frame cadence, alternating
           three times; the difference of the medians is what the
           cadence costs. *)
        let median3 f =
          match List.sort compare [ f (); f (); f () ] with
          | [ _; m; _ ] -> m
          | _ -> assert false
        in
        let plain = median3 (fun () -> snd (time_ns (fun () -> Pfuzzer.fuzz cfg subject))) in
        let ck =
          median3 (fun () ->
              snd
                (time_ns (fun () ->
                     Pfuzzer.fuzz ~checkpoint_every:frame_every ~on_checkpoint cfg subject)))
        in
        Spans.close ctx.sp s;
        (r.result :: results, (plain_ns + plain, ck_ns + ck)))
      ([], (0, 0)) plan.shards
  in
  let merged =
    Spans.time ctx.sp ~parent "dist.merge" (fun () ->
        Dist.merge_results plan (List.rev shard_results))
  in
  guard ctx
    (Invariants.results_equal merged campaign.result)
    "merged shard recordings differ from the campaign";
  let per_round = !frames / 3 in
  t.extra <-
    [
      ("dist.frames", float_of_int campaign.frames_accepted);
      ("dist.frame_bytes", fdiv !bytes !frames);
      ("dist.checkpoint_ns", fdiv (ck_ns - plain_ns) per_round);
      ("dist.frame_encode_ns", Spans.mean_ns ctx.sp "dist.frame_encode");
      ("dist.merge_ns", Spans.mean_ns ctx.sp "dist.merge");
      ("dist.frame_overhead", campaign.wall_clock_s /. (float_of_int reference_ns /. 1e9));
      ("dist_campaign_wall_s", campaign.wall_clock_s);
      ("dist_reference_wall_s", float_of_int reference_ns /. 1e9);
    ]

(* Workload-specific metrics a workload does not exercise read 0. Names
   with an underscore instead of a dot are context for the run's
   metadata, not metrics. *)
let workload_metrics =
  [
    "afl.exec_ns"; "afl.mutate_ns"; "afl.bitmap_ns"; "afl.new_bits_ratio"; "afl.execs_per_s";
    "klee.solve_ns"; "klee.solver_failure_ratio"; "klee.execs_per_s"; "eval.cell_s_max";
    "eval.parallel_efficiency"; "dist.frames"; "dist.frame_bytes"; "dist.checkpoint_ns";
    "dist.frame_encode_ns"; "dist.merge_ns"; "dist.frame_overhead";
  ]

(* The traced run of one workload on the first campaign seed of [seed]:
   returns every per-layer metric (and some context), the guard failures
   and the number of executions replayed, and writes the spans to
   [out]. *)
let run kind ~seed ~(size : W.size) ~out =
  let ctx = { sp = Spans.create (); guard_failures = 0; replayed = 0 } in
  let t = { summaries = []; untraced_ns = 0; traced_ns = 0; extra = [] } in
  let seed = List.hd (W.seeds ~seed ~chunk:0 1) in
  let budget = size.budget in
  let root = Spans.open_ ctx.sp ~parent:(-1) ("workload:" ^ W.name kind) in
  (match kind with
   | W.Pfuzzer_machine | W.Pfuzzer_direct ->
     List.iter
       (fun subject -> ignore (pfuzzer_layers ctx t ~parent:root (W.config ~seed ~budget) subject))
       (W.subjects kind)
   | W.Eval_grid -> grid_layers ctx t ~parent:root ~seed ~budget
   | W.Dist_campaign -> dist_layers ctx t ~parent:root ~seed ~budget);
  Spans.close ctx.sp root;
  Spans.write ctx.sp out;
  let reported = List.map (fun m -> (m, 0.0)) workload_metrics in
  let extra = List.filter (fun (m, _) -> not (List.mem_assoc m t.extra)) reported @ t.extra in
  (pfuzzer_metrics ctx t @ extra, ctx.guard_failures, ctx.replayed)
