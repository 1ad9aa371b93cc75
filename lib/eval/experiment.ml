module Subject = Pdf_subjects.Subject
module Coverage = Pdf_instr.Coverage
module Atomic_file = Pdf_util.Atomic_file

type config = { budget_units : int; seeds : int list; verbose : bool }

let default_config = { budget_units = 2_000_000; seeds = [ 1 ]; verbose = false }

type cell = {
  outcome : Tool.outcome;
  coverage_percent : float;
  found_tags : string list;
}

type failure = {
  f_subject : string;
  f_tool : Tool.name;
  f_seed : int;
  f_error : string;
}

type t = {
  config : config;
  subjects : Subject.t list;
  cells : (string * (Tool.name * cell) list) list;
  failures : failure list;
}

let make_cell (subject : Subject.t) (outcome : Tool.outcome) =
  {
    outcome;
    coverage_percent = Coverage.percent outcome.valid_coverage subject.registry;
    found_tags = Token_report.found_tags subject outcome.valid_inputs;
  }

(* Best run selection, as in §5.1 ("we report the best run"): highest
   valid-input coverage first, then most tokens found. *)
let better a b =
  if a.coverage_percent <> b.coverage_percent then
    a.coverage_percent > b.coverage_percent
  else List.length a.found_tags > List.length b.found_tags

let run ?(tools = Tool.all) ?(jobs = 1) ?(retries = 2) ?trace config subjects =
  (* Flatten the (subject, tool, seed) grid: every cell is a pure
     function of its coordinates, so the list can be mapped over worker
     processes. Workers.map preserves input order, which makes the
     regrouping below — and therefore the reported cells — identical to
     the sequential nested-loop order for any [jobs]. *)
  let grid =
    List.concat_map
      (fun (subject : Subject.t) ->
        List.concat_map
          (fun tool ->
            List.map (fun seed -> (subject, tool, seed)) config.seeds)
          tools)
      subjects
  in
  (* With [trace], each cell streams its telemetry, headed by a [Cell]
     event, into its own file in a private directory, so a worker process
     hands back only the cell, whatever the size of its trace. The files
     are concatenated in grid order after the map, so the merged trace is
     identical for any [jobs] up to wall-clock timestamps. *)
  let trace_dir = Option.map (fun _ -> Filename.temp_dir "pfgrid" "") trace in
  let cell_trace dir i = Filename.concat dir (Printf.sprintf "cell%04d.jsonl" i) in
  let run_cell (i, ((subject : Subject.t), tool, seed)) =
    if config.verbose then
      Printf.eprintf "[experiment] %s on %s, seed %d...\n%!"
        (Tool.display_name tool) subject.name seed;
    let run obs =
      let outcome =
        Tool.run ?obs tool ~budget_units:config.budget_units ~seed subject
      in
      (* AFL and KLEE take no observer, so their segments would otherwise
         be empty; give them at least the run summary. *)
      (match obs with
       | Some o when tool <> Tool.Pfuzzer ->
         Pdf_obs.Observer.emit o ~exec:outcome.Tool.executions
           (Pdf_obs.Event.Run_done
              {
                valid = List.length outcome.Tool.valid_inputs;
                cov = Coverage.cardinal outcome.Tool.valid_coverage;
                wall_ns = int_of_float (outcome.Tool.wall_clock_s *. 1e9);
                execs_per_sec = outcome.Tool.execs_per_sec;
              })
       | _ -> ());
      make_cell subject outcome
    in
    match trace_dir with
    | None -> run None
    | Some dir ->
      Atomic_file.with_out (cell_trace dir i) (fun oc ->
          let sink = Pdf_obs.Trace.jsonl oc in
          Pdf_obs.Trace.emit sink
            {
              Pdf_obs.Event.t_ns = 0;
              exec = 0;
              ev =
                Pdf_obs.Event.Cell
                  { tool = Tool.display_name tool; subject = subject.name; seed };
            };
          run (Some (Pdf_obs.Observer.create ~sink ())))
  in
  (* One sick cell must not sink the grid: a cell that raises, or whose
     worker dies, is retried in rounds, and a cell whose every attempt
     failed is marked with the all-zero outcome instead of aborting the
     experiment. Retry telemetry goes straight to the merged trace, in
     the order the coordinator saw the retries. *)
  let retry_events = ref [] in
  let grid_arr = Array.of_list grid in
  let on_retry ~task ~attempt reason =
    let (subject : Subject.t), tool, seed = grid_arr.(task) in
    if config.verbose then
      Printf.eprintf "[experiment] retrying %s on %s, seed %d (retry %d): %s\n%!"
        (Tool.display_name tool) subject.name seed attempt reason;
    retry_events :=
      {
        Pdf_obs.Event.t_ns = 0;
        exec = 0;
        ev =
          Pdf_obs.Event.Retry
            {
              what =
                Printf.sprintf "%s/%s/%d" (Tool.display_name tool) subject.name
                  seed;
              attempt;
              detail = reason;
            };
      }
      :: !retry_events
  in
  let attempts =
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun dir ->
            (* Also sweeps the temp files of writes a dead worker left. *)
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
              (Sys.readdir dir);
            try Unix.rmdir dir with Unix.Unix_error _ -> ())
          trace_dir)
      (fun () ->
        let attempts =
          Workers.map ~workers:jobs ~retries ~on_retry run_cell
            (List.mapi (fun i c -> (i, c)) grid)
        in
        (match (trace, trace_dir) with
         | Some oc, Some dir ->
           List.iteri
             (fun i attempt ->
               if Result.is_ok attempt then
                 output_string oc (Atomic_file.read_string (cell_trace dir i)))
             attempts;
           let sink = Pdf_obs.Trace.jsonl oc in
           List.iter (Pdf_obs.Trace.emit sink) (List.rev !retry_events);
           flush oc
         | _ -> ());
        attempts)
  in
  let failures = ref [] in
  let results =
    Array.of_list
      (List.map2
         (fun ((subject : Subject.t), tool, seed) attempt ->
           match attempt with
           | Ok cell -> cell
           | Error f_error ->
             failures :=
               { f_subject = subject.name; f_tool = tool; f_seed = seed; f_error }
               :: !failures;
             make_cell subject (Tool.empty_outcome tool ~subject:subject.name))
         grid attempts)
  in
  let idx = ref 0 in
  let cells =
    List.map
      (fun (subject : Subject.t) ->
        let per_tool =
          List.map
            (fun tool ->
              let best = ref None in
              List.iter
                (fun _seed ->
                  let cell = results.(!idx) in
                  incr idx;
                  match !best with
                  | None -> best := Some cell
                  | Some b -> if better cell b then best := Some cell)
                config.seeds;
              match !best with
              | Some cell -> (tool, cell)
              | None -> invalid_arg "Experiment.run: empty seed list")
            tools
        in
        (subject.name, per_tool))
      subjects
  in
  { config; subjects; cells; failures = List.rev !failures }

let cell t subject tool = List.assoc tool (List.assoc subject t.cells)

let cell_equal a b =
  let outcome_equal (a : Tool.outcome) (b : Tool.outcome) =
    a.tool = b.tool && a.subject = b.subject
    && a.valid_inputs = b.valid_inputs
    && Coverage.equal a.valid_coverage b.valid_coverage
    && a.executions = b.executions
    && a.cache = b.cache
  in
  outcome_equal a.outcome b.outcome
  && a.coverage_percent = b.coverage_percent
  && a.found_tags = b.found_tags

let equal a b =
  List.length a.cells = List.length b.cells
  && List.for_all2
       (fun (sa, ta) (sb, tb) ->
         sa = sb
         && List.length ta = List.length tb
         && List.for_all2
              (fun (na, ca) (nb, cb) -> na = nb && cell_equal ca cb)
              ta tb)
       a.cells b.cells

let headline t ~min_len ~max_len =
  let tools = match t.cells with [] -> [] | (_, per_tool) :: _ -> List.map fst per_tool in
  List.map
    (fun tool ->
      let per_subject =
        List.map
          (fun (subject : Subject.t) ->
            (subject, (cell t subject.name tool).found_tags))
          t.subjects
      in
      (tool, Token_report.share ~min_len ~max_len per_subject))
    tools
