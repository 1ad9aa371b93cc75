(* The machine's speed, measured. The benchmark was written on vCPUs
   shared with other tenants, whose speed drifts by up to 1.6× in phases
   that last from seconds to minutes: the same chunk of campaigns,
   repeated back to back, ran anywhere between 2.5 and 4.2 s. A
   calibration slice is fixed work that depends on nothing in the
   repository; timing one next to every timed step and dividing the
   step's time by the slice's slowness removes most of the drift from
   the timing metrics.

   A slice runs three kernels of about 10 ms each, because no single
   kind of work tracks the campaigns in every phase of the machine:
   short-lived allocation with string hashing (like a fuzzer's candidate
   handling), pure arithmetic with data-dependent branches (core speed),
   and random reads and writes over a 256 KiB array (cache contention).
   Over repeated identical campaigns the mean of the three cut the
   spread of per-pass times from 0.12 to 0.035–0.05 (interquartile range
   over median); a 4 MiB random-access kernel, tried too, tracked worse
   than no calibration in some phases.

   Nothing the allocating kernel allocates outlives a minor collection,
   so it promotes nothing to the major heap; the other two allocate
   nothing. *)

let table = Array.make (1 lsl 15) 0
let buckets = Array.make (1 lsl 16) 0

let alloc n =
  let acc = ref 0 and state = ref 12345 in
  for _ = 1 to n do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    let len = 4 + (!state land 15) in
    let s = String.init len (fun j -> Char.chr (97 + ((!state lsr j) land 15))) in
    let h = ref 0 in
    String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0xffff) s;
    let slot = Array.unsafe_get buckets !h in
    Array.unsafe_set buckets !h (slot + 1);
    acc := !acc + List.fold_left ( + ) 0 (List.init (len land 7) (fun j -> j + slot))
  done;
  !acc

let arith n =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to n do
    x := ((!x * 0x5851F42D) + 0x14057B7E) land 0x3fffffffffff;
    if (!x lsr 9) land 3 = 0 then acc := !acc + (!x lsr 13) else acc := !acc lxor (!x lsr 5)
  done;
  !acc

let cache n =
  let x = ref 0x2545F491 and acc = ref 0 in
  let mask = Array.length table - 1 in
  for _ = 1 to n do
    x := ((!x * 0x5851F42D) + 0x14057B7E) land 0x3fffffffffff;
    let i = (!x lsr 7) land mask in
    let c = Array.unsafe_get table i in
    if c land 1 = 0 then acc := !acc + c else acc := !acc lxor (c lsl 3);
    Array.unsafe_set table i ((c + !acc) land 0xffff)
  done;
  !acc

(* Each kernel with its iterations and its nominal time: about its median
   on the machine the benchmark was written on. Calibrated times are
   expressed at that speed. *)
let kernels = [ (alloc, 40_000, 9.9e6); (arith, 4_000_000, 10.3e6); (cache, 2_600_000, 10.0e6) ]

(* One slice; returns the machine's slowness against nominal (2.0: the
   kernels took on average twice their nominal time). *)
let slowness () =
  let ratio (kernel, n, nominal_ns) =
    let t0 = Pdf_obs.Clock.now_ns () in
    ignore (Sys.opaque_identity (kernel n));
    float_of_int (Pdf_obs.Clock.now_ns () - t0) /. nominal_ns
  in
  List.fold_left (fun acc k -> acc +. ratio k) 0.0 kernels /. float_of_int (List.length kernels)
