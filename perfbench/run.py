#!/usr/bin/env python3
"""Repository benchmark: four fuzzing workloads, end-to-end metrics with
output checks, and a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload pfuzzer-machine --seed 1 --seconds 25 --trace 0

It builds perfbench/main.exe in the release profile, runs the workload
in child processes, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from
the traced replay. It exits non-zero when any output check fails.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["pfuzzer-machine", "pfuzzer-direct", "eval-grid", "dist-campaign"]

# name -> unit; every workload reports every one of these with --trace 0.
END_TO_END = {
    "execs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "minor_words_per_exec": "words",
    "peak_mem_mb": "MB",
    "branch_cov_pct": "%",
    "tokens_found": "count",
    "valid_inputs": "count",
}

# name -> unit; the traced run reports every one of these (0 where the
# workload does not exercise the layer).
PER_LAYER = {
    "subjects.parse_ns_per_exec": "ns",
    "subjects.parse_share": "ratio",
    "subjects.chars_per_exec": "chars",
    "instr.record_ns_per_exec": "ns",
    "instr.comparisons_per_exec": "count",
    "instr.trace_ns_per_exec": "ns",
    "cache.hit_rate": "ratio",
    "cache.chars_saved_per_exec": "chars",
    "cache.evictions_per_exec": "ratio",
    "cache.rescues": "count",
    "cache.resume_ns": "ns",
    "cache.snapshot_ns": "ns",
    "cache.lookup_ns": "ns",
    "cache.store_ns": "ns",
    "compiled.exec_ns": "ns",
    "machine.exec_ns": "ns",
    "core.overhead_ns_per_exec": "ns",
    "core.candidates_per_exec": "ratio",
    "core.useful_ratio": "ratio",
    "core.queue_peak": "count",
    "core.dedupe_resets": "count",
    "core.path_resets": "count",
    "heuristic.score_ns": "ns",
    "heuristic.rerank_ns_per_entry": "ns",
    "pqueue.push_ns": "ns",
    "pqueue.pop_ns": "ns",
    "pqueue.truncate_ns": "ns",
    "pqueue.ops_per_exec": "ratio",
    "gc.minor_collections_per_kexec": "count",
    "gc.promoted_words_per_exec": "words",
    "gc.major_collections": "count",
    "afl.exec_ns": "ns",
    "afl.mutate_ns": "ns",
    "afl.bitmap_ns": "ns",
    "afl.new_bits_ratio": "ratio",
    "afl.execs_per_s": "1/s",
    "klee.solve_ns": "ns",
    "klee.solver_failure_ratio": "ratio",
    "klee.execs_per_s": "1/s",
    "eval.cell_s_max": "s",
    "eval.parallel_efficiency": "ratio",
    "dist.frames": "count",
    "dist.frame_bytes": "bytes",
    "dist.checkpoint_ns": "ns",
    "dist.frame_encode_ns": "ns",
    "dist.merge_ns": "ns",
    "dist.frame_overhead": "ratio",
    "obs.attributed_share": "ratio",
    "obs.metrics_overhead_pct": "%",
    "trace.overhead_s": "s",
}

MIN_PROBES = 15
PROBES_PER_CHUNK = 3
CHILD_TIMEOUT_S = 170
OUT_DIR = os.path.join("perfbench", "out")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Files a checkout of this repository has; without them there is nothing
# to build or measure.
REQUIRED = ["dune-project", "lib/core/pfuzzer.mli", "lib/eval/dist.mli", "perfbench/main.ml"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    # Keep the build inside the checkout: no shared dune cache, and the
    # compiler's temporary files under perfbench/out.
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = dune_command() + ["build", "--root", ".", "--profile", "release", "./perfbench/main.exe"]
    r = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail("build failed", 1)


def child(args):
    """Run main.exe with [args]; return its last stdout line parsed and its
    resource usage, which covers its reaped children."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(args[:3]), p.returncode), 1)
    return json.loads(lines[-1]), ru


def git_rev():
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def timed_run(a, common):
    setups = []

    # Set-up is measured as the probe's CPU time (user + system, from exec
    # to exit, worker processes included): on a machine shared with other
    # tenants, wall time also counts the waits for a core, which swing by
    # 2x between phases on eval-grid's two domains. Like every timing
    # metric it is calibrated: divided by the slowness that calibration
    # slices, run right after the probe, measure (perfbench/calib.ml).
    def probe():
        _, ru = child(["setup"] + common)
        slowness = child(["calib"] + common)[0]["slowness"]
        setups.append((ru.ru_utime + ru.ru_stime) / slowness)

    # Chunks of distinct campaign seeds, at least the workload's fixed
    # number, more while --seconds have not passed. What the search found
    # is averaged over the fixed chunks only, so it depends on the seed
    # alone; timing metrics are medians over all chunks. The set-up
    # probes are spread over the run, between chunks, so that their
    # median does not hang on one moment of a noisy machine.
    chunks = []
    t_start = time.monotonic()
    while not chunks or len(chunks) < chunks[0]["chunks"] or time.monotonic() - t_start < a.seconds:
        for _ in range(PROBES_PER_CHUNK):
            probe()
        r, ru = child(["chunk", "--chunk", str(len(chunks))] + common)
        r["rss_mb"] = ru.ru_maxrss / 1024.0  # KiB on Linux; largest process
        chunks.append(r)
    while len(setups) < MIN_PROBES:
        probe()
    fixed = chunks[: chunks[0]["chunks"]]
    repeat = child(["repeat"] + common)[0]
    deterministic = repeat["digest_first"] == chunks[0]["digest_first"]
    if not deterministic:
        print("perfbench: a repeat run with one seed found different results", file=sys.stderr)
    reference = {"mismatches": 0}
    if a.workload == "dist-campaign":
        reference = child(["reference"] + common)[0]
    attempted = sum(c["executions"] for c in chunks)
    failed = sum(c["failed"] + c["rejected"] for c in chunks) + reference["mismatches"]
    correct = deterministic and failed == 0
    med = lambda f: statistics.median(f(c) for c in chunks)
    units = sum(c["units"] for c in fixed)
    mean = lambda key: sum(c[key] * c["units"] for c in fixed) / units
    # Times are calibrated: seconds at the calibration's nominal speed.
    values = {
        "execs_per_s": med(lambda c: c["executions"] / c["cal_wall_s"]),
        "wall_s": med(lambda c: c["cal_wall_s"]),
        "setup_s": statistics.median(setups),
        "cpu_s": med(lambda c: c["cal_cpu_s"]),
        "minor_words_per_exec": med(lambda c: c["minor_words"] / c["executions"]),
        "peak_mem_mb": med(lambda c: c["rss_mb"]),
        "branch_cov_pct": mean("cov_pct"),
        "tokens_found": mean("tokens"),
        "valid_inputs": mean("valid"),
    }
    extra = {
        "failed_frac": failed / attempted,
        "hangs": sum(c["hangs"] for c in chunks),
        "chunks": len(chunks),
        "setup_probes": len(setups),
        "chunk_execs_per_s": [c["executions"] / c["cal_wall_s"] for c in chunks],
        "chunk_raw_execs_per_s": [c["executions"] / (c["wall_ns"] / 1e9) for c in chunks],
        "chunk_slowness": [c["slowness"] for c in chunks],
        "raw_wall_s": med(lambda c: c["wall_ns"] / 1e9),
        "raw_cpu_s": med(lambda c: c["cpu_s"]),
        "checked_valid_inputs": sum(c["checked"] for c in chunks),
        "build_profile": chunks[0]["profile"],
        "ocaml_version": chunks[0]["ocaml"],
    }
    return correct, attempted, failed, values, END_TO_END, extra


def traced_run(a, common):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s.jsonl" % a.workload)
    r, _ = child(["trace", "--out", spans] + common)
    guard = r.pop("guard_failures")
    attempted = r.pop("replayed")
    extra = {"spans": spans, "build_profile": r.pop("profile"), "ocaml_version": r.pop("ocaml")}
    extra.update({k: v for k, v in r.items() if k not in PER_LAYER})
    missing = [m for m in PER_LAYER if m not in r]
    if missing:
        fail("traced run did not report " + ", ".join(missing), 1)
    # The replay-equivalence guard: a replay that disagrees with the
    # recorded stream measured something else, so its numbers are refused.
    values = {} if guard else {m: r[m] for m in PER_LAYER}
    return guard == 0, attempted, guard, values, PER_LAYER, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets, for the benchmark's own tests")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        fail("run from the repository root (missing %s)" % ", ".join(missing))
    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)] + (["--smoke"] if a.smoke else [])
    run = traced_run if a.trace else timed_run
    correct, attempted, failed, values, units, extra = run(a, common)
    meta = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
    }
    meta.update(extra)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-trace%d.json" % (a.workload, a.trace)), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    sys.exit(0 if correct and failed == 0 else 1)


if __name__ == "__main__":
    main()
