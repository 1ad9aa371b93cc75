(* In-memory spans for the traced run: name, start, end and parent of
   every timed call into a layer, written out when the run finishes.
   Per-name totals are kept as spans close, so the per-layer metrics are
   sums over exactly the spans the file holds. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable labels : string array;  (** name id -> name *)
  mutable sum_ns : int array;  (** per name id *)
  mutable count : int array;
  mutable len : int;  (** spans recorded *)
  mutable parent : int array;  (** per span id; -1 for a root *)
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
}

let create () =
  let n = 1 lsl 16 in
  {
    names = Hashtbl.create 64;
    labels = [||];
    sum_ns = [||];
    count = [||];
    len = 0;
    parent = Array.make n 0;
    name = Array.make n 0;
    start = Array.make n 0;
    stop = Array.make n 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.add t.names s i;
    t.labels <- Array.append t.labels [| s |];
    t.sum_ns <- Array.append t.sum_ns [| 0 |];
    t.count <- Array.append t.count [| 0 |];
    i

let add t ~parent name t0 t1 =
  if t.len = Array.length t.parent then begin
    t.parent <- grow t.parent;
    t.name <- grow t.name;
    t.start <- grow t.start;
    t.stop <- grow t.stop
  end;
  let id = t.len in
  let n = intern t name in
  t.parent.(id) <- parent;
  t.name.(id) <- n;
  t.start.(id) <- t0;
  t.stop.(id) <- t1;
  t.len <- id + 1;
  if t1 >= 0 then begin
    t.sum_ns.(n) <- t.sum_ns.(n) + (t1 - t0);
    t.count.(n) <- t.count.(n) + 1
  end;
  id

(* An enclosing span (workload, subject, replay pass), closed by
   [close]. *)
let open_ t ~parent name = add t ~parent name (Pdf_obs.Clock.now_ns ()) (-1)

let close t id =
  let t1 = Pdf_obs.Clock.now_ns () in
  let n = t.name.(id) in
  t.stop.(id) <- t1;
  t.sum_ns.(n) <- t.sum_ns.(n) + (t1 - t.start.(id));
  t.count.(n) <- t.count.(n) + 1

(* Time one call into a layer. *)
let time t ~parent name f =
  let t0 = Pdf_obs.Clock.now_ns () in
  let r = f () in
  ignore (add t ~parent name t0 (Pdf_obs.Clock.now_ns ()));
  r

let sum_ns t name =
  match Hashtbl.find_opt t.names name with Some n -> t.sum_ns.(n) | None -> 0

let count t name =
  match Hashtbl.find_opt t.names name with Some n -> t.count.(n) | None -> 0

(* Mean duration of the named spans; 0 when there are none. *)
let mean_ns t name =
  match count t name with 0 -> 0.0 | c -> float_of_int (sum_ns t name) /. float_of_int c

(* JSON lines: first the name table, then one array per span,
   [id, parent, name index, start_ns, duration_ns], with start times
   relative to the first span and a parent of -1 for the root. *)
let write t path =
  let origin = if t.len = 0 then 0 else t.start.(0) in
  let oc = open_out path in
  output_string oc "{\"names\":[";
  Array.iteri (fun i s -> Printf.fprintf oc "%s%S" (if i = 0 then "" else ",") s) t.labels;
  output_string oc "]}\n";
  for id = 0 to t.len - 1 do
    Printf.fprintf oc "[%d,%d,%d,%d,%d]\n" id t.parent.(id) t.name.(id)
      (t.start.(id) - origin) (t.stop.(id) - t.start.(id))
  done;
  close_out oc
