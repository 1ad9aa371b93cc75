(* The four benchmark workloads, run through the public entry points
   with every fuzzer and tool option at its default except budget and
   seed. A workload is a list of campaigns (one per derived seed); each
   campaign yields one or more units, a unit being one fuzzer run on one
   subject whose valid inputs the output checks re-run. *)

module Subject = Pdf_subjects.Subject
module Pfuzzer = Pdf_core.Pfuzzer
module Coverage = Pdf_instr.Coverage
module Tool = Pdf_eval.Tool
module Experiment = Pdf_eval.Experiment
module Dist = Pdf_eval.Dist

type kind = Pfuzzer_machine | Pfuzzer_direct | Eval_grid | Dist_campaign

let all =
  [
    ("pfuzzer-machine", Pfuzzer_machine);
    ("pfuzzer-direct", Pfuzzer_direct);
    ("eval-grid", Eval_grid);
    ("dist-campaign", Dist_campaign);
  ]

let of_string s = List.assoc_opt s all
let name k = fst (List.find (fun (_, k') -> k' = k) all)

(* Both the grid's domain pool and the campaign's worker fleet are sized
   to the two cores the benchmark is specified for. *)
let jobs = 2
let workers = 2

let subjects = function
  | Pfuzzer_machine -> List.map Pdf_subjects.Catalog.find [ "ini"; "csv"; "json" ]
  | Pfuzzer_direct -> List.map Pdf_subjects.Catalog.find [ "tinyc"; "mjs" ]
  | Eval_grid -> Pdf_subjects.Catalog.evaluation
  | Dist_campaign -> [ Pdf_subjects.Catalog.find "json" ]

type size = {
  campaigns : int;  (** campaigns per chunk, each with its own seed *)
  budget : int;
      (** per subject for the pFuzzer workloads, per campaign for
          dist-campaign, virtual units per cell for eval-grid *)
  chunks : int;
      (** chunks every run makes; what the search found is averaged
          over their campaigns *)
}

(* A run executes its campaigns in chunks, one process each, every
   campaign with a seed of its own: the seed-to-seed spread of what a
   search finds, and of the work that takes, averages out over many
   campaigns. Budgets put one chunk at a few seconds in the release
   profile. tinyc and mjs searches are the most seed-sensitive (either
   can stall early), hence many short pfuzzer-direct campaigns. *)
let size ~smoke kind =
  match (smoke, kind) with
  | true, Eval_grid -> { campaigns = 1; budget = 20_000; chunks = 2 }
  | true, Dist_campaign -> { campaigns = 1; budget = 2_000; chunks = 2 }
  | true, _ -> { campaigns = 1; budget = 400; chunks = 2 }
  | false, Pfuzzer_machine -> { campaigns = 4; budget = 20_000; chunks = 5 }
  | false, Pfuzzer_direct -> { campaigns = 16; budget = 6_000; chunks = 5 }
  | false, Eval_grid -> { campaigns = 4; budget = 100_000; chunks = 4 }
  | false, Dist_campaign -> { campaigns = 4; budget = 40_000; chunks = 3 }

(* The smallest run of a workload: one execution per campaign, shard or
   pFuzzer/KLEE grid cell. The CPU time of a process that only does this
   is set-up time. *)
let setup_size = function
  | Pfuzzer_machine | Pfuzzer_direct -> { campaigns = 1; budget = 1; chunks = 1 }
  | Eval_grid ->
    { campaigns = 1; budget = Tool.cost_per_execution Tool.Pfuzzer; chunks = 1 }
  | Dist_campaign -> { campaigns = 1; budget = 4; chunks = 1 }

(* The seeds of chunk [chunk]: successive SplitMix64 draws from the
   run's seed, [campaigns] per chunk. *)
let seeds ~seed ~chunk campaigns =
  let rng = Pdf_util.Rng.make seed in
  let draw _ = 1 + Pdf_util.Rng.int rng 1_000_000_000 in
  List.filteri (fun i _ -> i >= chunk * campaigns) (List.init ((chunk + 1) * campaigns) draw)

let config ~seed ~budget =
  { Pfuzzer.default_config with seed; max_executions = budget }

type unit_result = {
  subject : Subject.t;
  tool : string;
  seed : int;
  valid : string list;
  coverage : Coverage.t;
  executions : int;
  failed : int;
      (** crash verdicts, failed grid cells, rejected frames and shard
          replays *)
  hangs : int;
      (** hang verdicts: the subject's fuel ran out, as it must on an
          input program that loops forever (tinyc's [while (2);]) —
          something the search found, not a failure of the run *)
}

let of_result ~seed subject (r : Pfuzzer.result) =
  {
    subject;
    tool = "pfuzzer";
    seed;
    valid = r.valid_inputs;
    coverage = r.valid_coverage;
    executions = r.executions;
    failed = r.crash_total;
    hangs = r.hangs;
  }

let of_outcome ~seed subject ~failed (o : Tool.outcome) =
  {
    subject;
    tool = String.lowercase_ascii (Tool.display_name o.tool);
    seed;
    valid = o.valid_inputs;
    coverage = o.valid_coverage;
    executions = o.executions;
    failed = o.crash_total + failed;
    hangs = o.hangs;
  }

let grid ~seed ~budget =
  Experiment.run ~jobs
    { Experiment.budget_units = budget; seeds = [ seed ]; verbose = false }
    (subjects Eval_grid)

let grid_units ~seed (g : Experiment.t) =
  List.concat_map
    (fun (subject : Subject.t) ->
      List.map
        (fun (tool, (cell : Experiment.cell)) ->
          let failed =
            List.length
              (List.filter
                 (fun (f : Experiment.failure) ->
                   f.f_subject = subject.name && f.f_tool = tool)
                 g.failures)
          in
          of_outcome ~seed subject ~failed cell.outcome)
        (List.assoc subject.name g.cells))
    g.subjects

let campaign ~seed ~budget =
  Dist.run_campaign ~workers (config ~seed ~budget) (List.hd (subjects Dist_campaign))

let campaign_unit ~seed (o : Dist.outcome) =
  let u = of_result ~seed (List.hd (subjects Dist_campaign)) o.result in
  { u with failed = u.failed + List.length o.frames_rejected + o.replays }

(* The timed steps of one campaign: one per subject on pfuzzer-machine,
   the whole campaign otherwise. Steps take 0.25–1.5 s, short enough for
   the calibration slices around each to follow the machine's speed and
   long enough for the slices (30 ms) to cost little. *)
let steps kind ~seed ~budget =
  let fuzz subject () = [ of_result ~seed subject (Pfuzzer.fuzz (config ~seed ~budget) subject) ] in
  match kind with
  | Pfuzzer_machine -> List.map fuzz (subjects kind)
  | Pfuzzer_direct -> [ (fun () -> List.concat_map (fun s -> fuzz s ()) (subjects kind)) ]
  | Eval_grid -> [ (fun () -> grid_units ~seed (grid ~seed ~budget)) ]
  | Dist_campaign -> [ (fun () -> [ campaign_unit ~seed (campaign ~seed ~budget) ]) ]

type chunk = {
  units : unit_result list;
  wall_ns : int;
  cpu_s : float;  (** user + system, reaped children included *)
  cal_wall_s : float;
  cal_cpu_s : float;
      (** wall and CPU time at the calibration's nominal speed: each
          step's time over the mean slowness of the slices around it *)
  slowness : float;  (** median of the chunk's calibration slices *)
  minor_words : float;
}

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* Campaigns allocate mostly short-lived garbage; size the minor heap as
   the command-line tool does by default for fuzz and campaign. *)
let tune_gc () =
  Pdf_util.Gc_tune.set_minor_heap
    (Pdf_util.Gc_tune.default_minor_words
       ~queue_bound:Pfuzzer.default_config.queue_bound)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Run the campaigns of one chunk back to back, a calibration slice
   before the first step and after every step, timing each step. *)
let run_chunk kind ~seed ~chunk (size : size) =
  let seeds = seeds ~seed ~chunk size.campaigns in
  let steps = List.concat_map (fun seed -> steps kind ~seed ~budget:size.budget) seeds in
  (* The statistics count a domain's minor words at its minor
     collections (and at its end), so both readings follow a collection
     of the main domain, outside the timed section. *)
  let minor_words () =
    Gc.minor ();
    (Gc.quick_stat ()).minor_words
  in
  ignore (Calib.slowness ()) (* warm-up: page faults, cold caches *);
  let before = ref (Calib.slowness ()) in
  let slices = ref [ !before ] in
  let wall_ns = ref 0 and cpu_s = ref 0.0 and words = ref 0.0 in
  let cal_wall_s = ref 0.0 and cal_cpu_s = ref 0.0 in
  let units =
    List.concat_map
      (fun step ->
        let w0 = minor_words () in
        let c0 = cpu_now () in
        let t0 = Pdf_obs.Clock.now_ns () in
        let units = step () in
        let dt = Pdf_obs.Clock.now_ns () - t0 in
        let dc = cpu_now () -. c0 in
        words := !words +. (minor_words () -. w0);
        let after = Calib.slowness () in
        let slow = (!before +. after) /. 2.0 in
        wall_ns := !wall_ns + dt;
        cpu_s := !cpu_s +. dc;
        cal_wall_s := !cal_wall_s +. (float_of_int dt /. 1e9 /. slow);
        cal_cpu_s := !cal_cpu_s +. (dc /. slow);
        before := after;
        slices := after :: !slices;
        units)
      steps
  in
  {
    units;
    wall_ns = !wall_ns;
    cpu_s = !cpu_s;
    cal_wall_s = !cal_wall_s;
    cal_cpu_s = !cal_cpu_s;
    slowness = median !slices;
    minor_words = !words;
  }

let executions units = List.fold_left (fun acc u -> acc + u.executions) 0 units

(* What the search found, for the repeat-run determinism check. *)
let digest units =
  let b = Buffer.create 4096 in
  List.iter
    (fun u ->
      Printf.bprintf b "%s/%s/%d/%d:" u.subject.Subject.name u.tool u.seed u.executions;
      List.iter (fun s -> Printf.bprintf b "%S;" s) u.valid;
      List.iter (fun i -> Printf.bprintf b "%d," i) (Coverage.to_list u.coverage);
      Buffer.add_char b '\n')
    units;
  Digest.to_hex (Digest.string (Buffer.contents b))
