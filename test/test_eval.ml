module Tool = Pdf_eval.Tool
module Token_report = Pdf_eval.Token_report
module Experiment = Pdf_eval.Experiment
module Report = Pdf_eval.Report
module Paper_data = Pdf_eval.Paper_data
module Catalog = Pdf_subjects.Catalog

(* {1 Tool} *)

let test_tool_basics () =
  Alcotest.(check int) "three tools" 3 (List.length Tool.all);
  Alcotest.(check int) "afl cost" 1 (Tool.cost_per_execution Tool.Afl);
  Alcotest.(check int) "pfuzzer cost" 100 (Tool.cost_per_execution Tool.Pfuzzer);
  Alcotest.(check int) "klee cost" 100 (Tool.cost_per_execution Tool.Klee);
  Alcotest.(check bool) "of_string round trip" true
    (List.for_all
       (fun t -> Tool.of_string (Tool.display_name t) = Some t)
       Tool.all);
  Alcotest.(check bool) "unknown tool" true (Tool.of_string "gcc" = None)

let test_tool_budget_model () =
  let subject = Catalog.find "expr" in
  let a = Tool.run Tool.Afl ~budget_units:1000 ~seed:1 subject in
  Alcotest.(check bool) "afl gets the full unit count" true (a.executions <= 1000);
  let p = Tool.run Tool.Pfuzzer ~budget_units:1000 ~seed:1 subject in
  Alcotest.(check bool) "pfuzzer pays 100 units per execution" true
    (p.executions <= 10);
  Alcotest.(check string) "subject recorded" "expr" p.subject

(* {1 Token report} *)

let test_found_tags () =
  let subject = Catalog.find "json" in
  let tags = Token_report.found_tags subject [ "[true]"; "1" ] in
  Alcotest.(check (slist string compare)) "tags from valid inputs"
    [ "["; "]"; "true"; "number" ] tags

let test_found_tags_filters_inventory () =
  (* Tags outside the inventory never leak into the report. *)
  let subject = Catalog.find "csv" in
  let tags = Token_report.found_tags subject [ "a,b" ] in
  Alcotest.(check (slist string compare)) "only inventory tags" [ ","; "field" ] tags

let test_by_length () =
  let subject = Catalog.find "json" in
  let groups = Token_report.by_length subject [ "{"; "}"; "true" ] in
  Alcotest.(check (list (triple int int int)))
    "per-length found/total"
    [ (1, 2, 8); (2, 0, 1); (4, 1, 2); (5, 0, 1) ]
    groups

let test_share () =
  let json = Catalog.find "json" in
  let all_tags = List.map (fun (t : Pdf_subjects.Token.t) -> t.tag) json.tokens in
  Alcotest.(check (float 1e-6)) "everything found" 100.0
    (Token_report.share ~min_len:0 ~max_len:max_int [ (json, all_tags) ]);
  Alcotest.(check (float 1e-6)) "nothing found" 0.0
    (Token_report.share ~min_len:0 ~max_len:max_int [ (json, []) ]);
  (* json's long tokens are null/true/false; finding 2 of 3 is 66.7%,
     and short tokens in the found list must not count. *)
  Alcotest.(check (float 0.1)) "long tokens only" 66.7
    (Token_report.share ~min_len:4 ~max_len:max_int
       [ (json, [ "true"; "null"; "{" ]) ]);
  Alcotest.(check (float 1e-6)) "band excludes short" 100.0
    (Token_report.share ~min_len:4 ~max_len:5 [ (json, [ "true"; "false"; "null" ]) ])

(* {1 Experiment + Report} *)

let run_small () =
  let config = { Experiment.budget_units = 30_000; seeds = [ 1 ]; verbose = false } in
  Experiment.run config [ Catalog.find "expr"; Catalog.find "paren" ]

let test_experiment_grid () =
  let e = run_small () in
  Alcotest.(check int) "two subjects" 2 (List.length e.cells);
  List.iter
    (fun (subject, per_tool) ->
      Alcotest.(check int) (subject ^ " has three tools") 3 (List.length per_tool);
      List.iter
        (fun (_, cell) ->
          Alcotest.(check bool) "coverage within [0,100]" true
            (cell.Experiment.coverage_percent >= 0.0
             && cell.Experiment.coverage_percent <= 100.0))
        per_tool)
    e.cells

let test_experiment_cell_lookup () =
  let e = run_small () in
  let cell = Experiment.cell e "expr" Tool.Pfuzzer in
  Alcotest.(check string) "cell subject" "expr" cell.Experiment.outcome.subject;
  Alcotest.check_raises "unknown subject" Not_found (fun () ->
      ignore (Experiment.cell e "nope" Tool.Afl))

let test_experiment_headline () =
  let e = run_small () in
  let shares = Experiment.headline e ~min_len:0 ~max_len:3 in
  Alcotest.(check int) "one share per tool" 3 (List.length shares);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "share within [0,100]" true (v >= 0.0 && v <= 100.0))
    shares

let test_experiment_best_of_seeds () =
  let config = { Experiment.budget_units = 20_000; seeds = [ 1; 2 ]; verbose = false } in
  let e = Experiment.run config [ Catalog.find "expr" ] in
  let cell = Experiment.cell e "expr" Tool.Pfuzzer in
  let single seed =
    let config = { Experiment.budget_units = 20_000; seeds = [ seed ]; verbose = false } in
    (Experiment.cell (Experiment.run config [ Catalog.find "expr" ]) "expr" Tool.Pfuzzer)
      .Experiment.coverage_percent
  in
  Alcotest.(check bool) "best of seeds >= each single seed" true
    (cell.Experiment.coverage_percent >= Float.max (single 1) (single 2))

(* The worker processes must be an implementation detail: the same
   grid fanned over 4 workers merges into cells semantically identical
   to the sequential run. [Experiment.equal] compares everything that
   matters — valid inputs, executions, coverage sets and found tokens —
   while ignoring the wall-clock timing fields, which differ between
   any two runs. *)
let test_experiment_jobs_deterministic () =
  let config =
    { Experiment.budget_units = 20_000; seeds = [ 1; 2 ]; verbose = false }
  in
  let subjects = [ Catalog.find "expr"; Catalog.find "paren" ] in
  let seq = Experiment.run ~jobs:1 config subjects in
  let par = Experiment.run ~jobs:4 config subjects in
  Alcotest.(check bool) "jobs:4 cells equal to jobs:1" true
    (Experiment.equal seq par)

let test_pipeline () =
  let subject = Catalog.find "expr" in
  let result = Pdf_eval.Pipeline.run ~budget_units:100_000 ~seed:1 subject in
  Alcotest.(check int) "three stages" 3 (List.length result.stages);
  Alcotest.(check bool) "corpus nonempty" true (List.length result.valid_inputs > 0);
  List.iter
    (fun input ->
      Alcotest.(check bool) (Printf.sprintf "corpus input %S valid" input) true
        (Pdf_subjects.Subject.accepts subject input))
    result.valid_inputs;
  (* Cumulative coverage never decreases across stages. *)
  let rec non_decreasing = function
    | (a : Pdf_eval.Pipeline.stage_report) :: (b :: _ as rest) ->
      a.coverage_after <= b.coverage_after && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "coverage monotone across stages" true
    (non_decreasing result.stages);
  (* No duplicates in the corpus. *)
  Alcotest.(check int) "corpus deduplicated"
    (List.length result.valid_inputs)
    (List.length (List.sort_uniq compare result.valid_inputs))

let test_experiment_no_failures () =
  let e = run_small () in
  Alcotest.(check int) "healthy grid has no failed cells" 0
    (List.length e.Experiment.failures)

(* {1 Worker processes}

   [Workers.map] with [workers] ≥ 2 runs each item in a forked process,
   so attempt counts must live somewhere a process boundary cannot
   erase: a file per item, one byte appended per attempt. *)

let with_attempt_dir f =
  let dir = Filename.temp_dir "pftest" "" in
  let path i = Filename.concat dir (string_of_int i) in
  let record i =
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (path i) in
    output_char oc '.';
    close_out oc
  in
  let count i = try (Unix.stat (path i)).Unix.st_size with Unix.Unix_error _ -> 0 in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f ~record ~count)

let test_workers_order () =
  let items = List.init 17 Fun.id in
  let out = Pdf_eval.Workers.map ~workers:4 (fun x -> x * x) items in
  Alcotest.(check (list int)) "order and values preserved"
    (List.map (fun x -> x * x) items)
    (List.map
       (function Ok v -> v | Error e -> Alcotest.failf "unexpected failure: %s" e)
       out);
  Alcotest.(check int) "empty input, empty output" 0
    (List.length (Pdf_eval.Workers.map ~workers:3 Fun.id []))

let test_workers_transient_failure () =
  (* Item 3 fails on its first two attempts, then succeeds; every other
     item succeeds immediately. The whole batch must come back [Ok]. *)
  with_attempt_dir (fun ~record ~count ->
      let retried = ref [] in
      let out =
        Pdf_eval.Workers.map ~workers:3 ~retries:2
          ~on_retry:(fun ~task ~attempt _ -> retried := (task, attempt) :: !retried)
          (fun i ->
            record i;
            if i = 3 && count i < 3 then failwith "transient";
            i * 10)
          (List.init 8 Fun.id)
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * 10) v
          | Error e -> Alcotest.failf "slot %d failed after retries: %s" i e)
        out;
      Alcotest.(check int) "item 3 ran three times" 3 (count 3);
      Alcotest.(check (list (pair int int))) "on_retry saw index 3, attempts 1 and 2"
        [ (3, 1); (3, 2) ]
        (List.rev !retried))

let test_workers_permanent_failure () =
  let out =
    Pdf_eval.Workers.map ~workers:2 ~retries:1
      (fun i -> if i = 1 then failwith "permanent" else i)
      [ 0; 1; 2 ]
  in
  match out with
  | [ Ok 0; Error e; Ok 2 ] ->
    Alcotest.(check string) "last attempt's exception" "Failure(\"permanent\")" e
  | _ -> Alcotest.fail "expected exactly slot 1 to exhaust its retries"

let test_workers_sigkill () =
  (* Item 2's worker is SIGKILLed in the middle of its first attempt; the
     item is replayed in a fresh worker and its neighbours are
     unaffected. *)
  with_attempt_dir (fun ~record ~count ->
      let reasons = ref [] in
      let out =
        Pdf_eval.Workers.map ~workers:2 ~retries:1
          ~on_retry:(fun ~task ~attempt:_ reason -> reasons := (task, reason) :: !reasons)
          (fun i ->
            record i;
            if i = 2 && count i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
            -i)
          (List.init 5 Fun.id)
      in
      Alcotest.(check (list int)) "every item recovered"
        [ 0; -1; -2; -3; -4 ]
        (List.map (function Ok v -> v | Error e -> Alcotest.failf "failed: %s" e) out);
      match !reasons with
      | [ (2, reason) ] ->
        Alcotest.(check bool) "the retry names the signal" true
          (String.ends_with ~suffix:"(signal:9) without finishing it" reason)
      | _ -> Alcotest.fail "expected exactly one retry, of item 2")

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_report_renders () =
  let e = run_small () in
  let out = render (fun ppf -> Report.full ppf e) in
  Alcotest.(check bool) "report is substantial" true (String.length out > 500);
  List.iter
    (fun needle ->
      let found = ref false in
      let nl = String.length needle and ol = String.length out in
      for i = 0 to ol - nl do
        if String.sub out i nl = needle then found := true
      done;
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true !found)
    [ "Table 1"; "Figure 2"; "Figure 3"; "AFL"; "KLEE"; "pFuzzer" ]

let test_report_inventories () =
  let out = render (fun ppf -> Report.token_inventory ppf (Catalog.find "json")) in
  Alcotest.(check bool) "json inventory renders" true (String.length out > 50)

let test_paper_data () =
  Alcotest.(check int) "five subjects in Table 1" 5 (List.length Paper_data.table1_loc);
  Alcotest.(check (option int)) "mjs loc" (Some 10920)
    (List.assoc_opt "mjs" Paper_data.table1_loc);
  Alcotest.(check (option (float 1e-9))) "afl short-token share" (Some 91.5)
    (List.assoc_opt Tool.Afl Paper_data.headline_short);
  Alcotest.(check (option (float 1e-9))) "pfuzzer long-token share" (Some 52.5)
    (List.assoc_opt Tool.Pfuzzer Paper_data.headline_long);
  Alcotest.(check int) "coverage winners for all subjects" 5
    (List.length Paper_data.coverage_order)

let () =
  Alcotest.run "pdf_eval"
    [
      ( "tool",
        [
          Alcotest.test_case "basics" `Quick test_tool_basics;
          Alcotest.test_case "budget model" `Quick test_tool_budget_model;
        ] );
      ( "token-report",
        [
          Alcotest.test_case "found tags" `Quick test_found_tags;
          Alcotest.test_case "inventory filter" `Quick test_found_tags_filters_inventory;
          Alcotest.test_case "by length" `Quick test_by_length;
          Alcotest.test_case "share" `Quick test_share;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "grid" `Quick test_experiment_grid;
          Alcotest.test_case "cell lookup" `Quick test_experiment_cell_lookup;
          Alcotest.test_case "headline" `Quick test_experiment_headline;
          Alcotest.test_case "best of seeds" `Slow test_experiment_best_of_seeds;
          Alcotest.test_case "jobs determinism" `Slow test_experiment_jobs_deterministic;
          Alcotest.test_case "healthy grid has no failures" `Quick
            test_experiment_no_failures;
        ] );
      ( "workers",
        [
          Alcotest.test_case "order preserved" `Quick test_workers_order;
          Alcotest.test_case "transient failure recovered" `Quick
            test_workers_transient_failure;
          Alcotest.test_case "permanent failure reported in place" `Quick
            test_workers_permanent_failure;
          Alcotest.test_case "SIGKILLed worker mid-task is replayed" `Quick
            test_workers_sigkill;
        ] );
      ( "pipeline", [ Alcotest.test_case "three-stage hand-over" `Quick test_pipeline ] );
      ( "report",
        [
          Alcotest.test_case "full report renders" `Quick test_report_renders;
          Alcotest.test_case "inventories render" `Quick test_report_inventories;
          Alcotest.test_case "paper reference data" `Quick test_paper_data;
        ] );
    ]
