#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-1e4 --seed 1 --seconds 15 --trace 0

Run from the repository root.  It builds the poprank library and the
measurement harness (perfbench/harness.cpp) in Release mode under
.bench_build/, runs the workload described in perfbench/workloads.json, and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 also replays every
trial with spans around each library call, writes the Chrome trace to
.bench_build/out/<workload>-s<seed>-t1/trace.json and reports the
per-layer metrics (a per-spec breakdown lands next to it in layers.json).
The process exits 1 when a correctness check fails and 2 when it cannot
build or run at all.

--steadiness runs the traced workload twice at the same seed and fails
unless every exact count (events, interactions, counters, cache hits)
repeats: any drift is nondeterminism, not noise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import summary  # noqa: E402

ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_ROOT = ROOT / ".bench_build" / "out"
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no poprank sources next to {BENCH_DIR.name}/")
    cmds = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     *generator, "-DCMAKE_BUILD_TYPE=Release"])
    # An existing tree re-configures itself when a CMakeLists.txt changes.
    cmds.append(["cmake", "--build", str(BUILD_DIR), "-j",
                 str(os.cpu_count() or 1), "--target", "perfbench_harness"])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench_harness"


def spec_lines(workload):
    # roster_scheduler is the conformance-roster name the harness resolves
    # before applying edge_death_per_n; "scheduler" is the resulting name.
    lines = []
    for s in workload["specs"]:
        lines.append(" ".join(str(x) for x in (
            s["label"], s["protocol"], s["n"], s["init"],
            s.get("roster_scheduler", s["scheduler"]),
            s.get("edge_death_per_n", 0), s["budget_parallel_time"],
            s["trials"])))
    return "\n".join(lines) + "\n"


def run_harness(harness, name, workload, seed, seconds, trace, tag="",
               timeout=HARNESS_TIMEOUT_S):
    out = OUT_ROOT / f"{name}-s{seed}-t{trace}{tag}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    specs = out / "specs.txt"
    specs.write_text(spec_lines(workload))
    env = {k: v for k, v in os.environ.items() if not k.startswith("POPRANK_")}
    cmd = [str(harness), "--specs", str(specs), "--workload", name,
           "--path", workload["path"], "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {timeout} s")
    if r.returncode != 0:
        fail(f"harness exited with {r.returncode}")
    raw = json.loads((out / "raw.json").read_text())
    spans = None
    if trace:
        spans = summary.spans_from_trace(
            json.loads((out / "trace.json").read_text()))
    return out, raw, spans


def steadiness(harness, name, workload, seed, seconds):
    counts = []
    for rep in range(2):
        _, raw, spans = run_harness(harness, name, workload, seed, seconds, 1,
                                   tag=f"-steady{rep}")
        c = summary.exact_counts(raw)
        r0 = [s for s in raw["sets"] if s["round"] == 0]
        c["round0_sets"] = [(s["spec"], s["pass"], s["events"],
                             s["interactions"], s["cache_hits"],
                             s["cache_misses"], s["counters"]) for s in r0]
        counts.append(c)
    drift = [k for k in counts[0] if counts[0][k] != counts[1][k]]
    for k in drift:
        print(f"perfbench: nondeterminism in {k}", file=sys.stderr)
    print(json.dumps({"steady": not drift, "drift": drift}))
    return 0 if not drift else 1


def calibrate(harness, name, workload, trials, seed):
    """Reference means for workloads.json: every spec with `trials` trials
    through run_trials at the reference seed."""
    wl = dict(workload, path="pool",
              specs=[dict(s, trials=trials) for s in workload["specs"]])
    _, raw, _ = run_harness(harness, name, wl, seed, 0, 0,
                           tag="-calibrate", timeout=None)
    refs = {}
    for i, s in enumerate(raw["specs"]):
        capped = s["budget_parallel_time"] > 0
        groups = [summary.reference_moments(x, capped)
                  for x in raw["sets"] if x["spec"] == i]
        mean, sd, n = summary.pooled_mean_sd(groups)
        refs[s["label"]] = {"mean": mean, "sd": sd, "trials": n}
    print(json.dumps(refs, indent=1))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--calibrate", type=int, metavar="TRIALS")
    args = ap.parse_args()

    workloads_path = BENCH_DIR / "workloads.json"
    doc = json.loads(workloads_path.read_text())
    workloads = doc["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; have {sorted(workloads)}")
    workload = workloads[args.workload]
    harness = build()

    if args.calibrate:
        return calibrate(harness, args.workload, workload, args.calibrate,
                         doc["reference_seed"])
    if args.seed is None or args.seconds is None:
        fail("--seed and --seconds are required")
    if args.steadiness:
        return steadiness(harness, args.workload, workload, args.seed,
                          args.seconds)

    out, raw, spans = run_harness(harness, args.workload, workload, args.seed,
                                 args.seconds, args.trace)
    if not summary.spec_list_matches(raw, workload):
        fail("harness specs disagree with workloads.json")
    ok, attempted, failed, problems = summary.correctness(raw, workload)
    if args.trace:
        metrics, layers = summary.per_layer(raw, spans)
        (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        for lab, s in layers["specs"].items():
            print(f"perfbench: {lab:22s} {s['scheduler']:34s} "
                  f"{s['loop_ns_per_event']:12.1f} ns/event "
                  f"{s['loop_ns_per_step']:10.3f} ns/step "
                  f"build {s['scheduler_build_ms']:.3f} ms", file=sys.stderr)
    else:
        metrics = summary.end_to_end(raw)
    for p in problems:
        print(f"perfbench: correctness check failed: {p}", file=sys.stderr)
    provenance = {"build": raw["build"], "nproc": raw["nproc"],
                  "pool_threads": raw["threads"], "rounds": raw["rounds"],
                  "workload": args.workload, "seed": args.seed}
    print("perfbench provenance: " + json.dumps(provenance))
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
