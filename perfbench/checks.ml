(* Output checks, run outside the timed section: every reported valid
   input must be accepted by its subject on a fresh run and, for the
   subjects that have one, by the independent reference oracle. *)

module Subject = Pdf_subjects.Subject
module W = Workload

type verdict = { checked : int; rejected : (string * string * string) list }
(** [rejected] lists (subject, judge, input) for every failed check. *)

let check_units units =
  let checked = ref 0 in
  let rejected = ref [] in
  List.iter
    (fun (u : W.unit_result) ->
      let oracle = Pdf_check.Oracle.find u.subject.Subject.name in
      List.iter
        (fun input ->
          incr checked;
          if not (Subject.accepts u.subject input) then
            rejected := (u.subject.name, "subject", input) :: !rejected;
          match oracle with
          | Some o when not (o.Pdf_check.Oracle.accepts input) ->
            rejected := (u.subject.name, "oracle", input) :: !rejected
          | _ -> ())
        u.valid)
    units;
  { checked = !checked; rejected = List.rev !rejected }

let report v =
  List.iter
    (fun (subject, judge, input) ->
      Printf.eprintf "perfbench: %s rejects valid input %S of %s\n%!" judge input subject)
    v.rejected

(* dist-campaign's merged result must equal the sequential in-process
   reference on the same plan. Returns the number of mismatches (0 or 1). *)
let dist_reference ~seed ~budget =
  let subject = List.hd (W.subjects W.Dist_campaign) in
  let campaign = W.campaign ~seed ~budget in
  let reference = Pdf_eval.Dist.reference (W.config ~seed ~budget) subject in
  if Pdf_check.Invariants.results_equal campaign.result reference then 0
  else begin
    Printf.eprintf "perfbench: dist campaign (seed %d) differs from Dist.reference\n%!" seed;
    1
  end
