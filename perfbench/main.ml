(* Benchmark worker: one process runs one mode of one workload and
   prints one flat JSON line. [perfbench/run.py] spawns it, so every
   workload runs in its own process: OCaml 5 forbids [Unix.fork] once a
   domain has been spawned, and eval-grid spawns domains while
   dist-campaign forks.

   Modes:
   - [chunk]: one timed chunk of the workload's campaigns, then the
     output checks;
   - [repeat]: chunk 0's first campaign again, for the determinism
     check;
   - [setup]: the workload at its smallest budget (its process's CPU
     time is the set-up time);
   - [calib]: calibration slices alone, for the set-up probes;
   - [reference]: dist-campaign's merged result against Dist.reference;
   - [trace]: the traced run — record, replay per layer, write spans. *)

module W = Workload
module Json = Pdf_obs.Json

let usage =
  "usage: main.exe (chunk|repeat|setup|calib|reference|trace) --workload NAME \
   --seed N [--chunk J] [--smoke] [--out FILE]"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = {
  mode : string;
  kind : W.kind;
  seed : int;
  chunk : int;
  smoke : bool;
  out : string option;
}

let parse_args () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let mode, rest =
    match argv with
    | m :: rest when List.mem m [ "chunk"; "repeat"; "setup"; "calib"; "reference"; "trace" ] ->
      (m, rest)
    | _ -> die "missing or unknown mode"
  in
  let nat flag s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> die (Printf.sprintf "bad %s %s" flag s)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> (
      match W.of_string w with
      | Some kind -> go { a with kind } rest
      | None -> die ("unknown workload " ^ w))
    | "--seed" :: s :: rest -> go { a with seed = nat "seed" s } rest
    | "--chunk" :: s :: rest -> go { a with chunk = nat "chunk" s } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  if not (List.mem "--workload" rest && List.mem "--seed" rest) then
    die "--workload and --seed are required";
  go { mode; kind = W.Pfuzzer_machine; seed = 0; chunk = 0; smoke = false; out = None } rest

let print_line fields = print_endline (Json.flat_to_string fields)

let mean_over units f =
  match units with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc u -> acc +. f u) 0.0 units
    /. float_of_int (List.length units)

let chunk args =
  let size = W.size ~smoke:args.smoke args.kind in
  let p = W.run_chunk args.kind ~seed:args.seed ~chunk:args.chunk size in
  let first = List.filter (fun (u : W.unit_result) -> u.seed = (List.hd p.units).seed) p.units in
  let v = Checks.check_units p.units in
  Checks.report v;
  let sum f = List.fold_left (fun acc (u : W.unit_result) -> acc + f u) 0 p.units in
  print_line
    [
      ("executions", Json.I (W.executions p.units));
      ("wall_ns", Json.I p.wall_ns);
      ("cpu_s", Json.F p.cpu_s);
      ("cal_wall_s", Json.F p.cal_wall_s);
      ("cal_cpu_s", Json.F p.cal_cpu_s);
      ("slowness", Json.F p.slowness);
      ("minor_words", Json.F p.minor_words);
      ("units", Json.I (List.length p.units));
      ( "cov_pct",
        Json.F
          (mean_over p.units (fun u ->
               Pdf_instr.Coverage.percent u.coverage u.subject.registry)) );
      ( "tokens",
        Json.F
          (mean_over p.units (fun u ->
               float_of_int
                 (List.length (Pdf_eval.Token_report.found_tags u.subject u.valid)))) );
      ("valid", Json.F (mean_over p.units (fun u -> float_of_int (List.length u.valid))));
      ("failed", Json.I (sum (fun u -> u.failed)));
      ("hangs", Json.I (sum (fun u -> u.hangs)));
      ("checked", Json.I v.checked);
      ("rejected", Json.I (List.length v.rejected));
      ("digest_first", Json.S (W.digest first));
      ("chunks", Json.I size.chunks);
      ("profile", Json.S Build_profile.profile);
      ("ocaml", Json.S Sys.ocaml_version);
    ]

(* Chunk 0's first campaign once more; its digest must equal the one the
   chunk reported. *)
let repeat args =
  let size = W.size ~smoke:args.smoke args.kind in
  let p = W.run_chunk args.kind ~seed:args.seed ~chunk:0 { size with campaigns = 1 } in
  print_line [ ("digest_first", Json.S (W.digest p.units)) ]

(* No calibration here: the set-up time is this process's CPU time. *)
let setup args =
  let size = W.setup_size args.kind in
  let units =
    List.concat_map
      (fun seed ->
        List.concat_map (fun step -> step ()) (W.steps args.kind ~seed ~budget:size.budget))
      (W.seeds ~seed:args.seed ~chunk:0 size.campaigns)
  in
  print_line [ ("executions", Json.I (W.executions units)) ]

(* The machine's slowness right after a set-up probe: the median of three
   slices after a warm-up one. *)
let calib () =
  ignore (Calib.slowness ());
  print_line [ ("slowness", Json.F (W.median (List.init 3 (fun _ -> Calib.slowness ())))) ]

let reference args =
  let size = W.size ~smoke:args.smoke args.kind in
  let mismatches =
    match args.kind with
    | W.Dist_campaign ->
      Checks.dist_reference
        ~seed:(List.hd (W.seeds ~seed:args.seed ~chunk:0 1))
        ~budget:size.budget
    | _ -> 0
  in
  print_line [ ("mismatches", Json.I mismatches) ]

let trace args =
  let out = match args.out with Some f -> f | None -> die "trace needs --out FILE" in
  let metrics, guard_failures, replayed =
    Layers.run args.kind ~seed:args.seed ~size:(W.size ~smoke:args.smoke args.kind) ~out
  in
  print_line
    (List.map (fun (m, v) -> (m, Json.F v)) metrics
    @ [
        ("guard_failures", Json.I guard_failures);
        ("replayed", Json.I replayed);
        ("profile", Json.S Build_profile.profile);
        ("ocaml", Json.S Sys.ocaml_version);
      ])

let () =
  let args = parse_args () in
  W.tune_gc ();
  match args.mode with
  | "chunk" -> chunk args
  | "repeat" -> repeat args
  | "setup" -> setup args
  | "calib" -> calib ()
  | "reference" -> reference args
  | _ -> trace args
