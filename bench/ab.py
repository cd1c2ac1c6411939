#!/usr/bin/env python3
"""Before/after benchmark pairs: one command, one record.

    python3 bench/ab.py --base HEAD~1 --workload schedulers-1e4 --pairs 10

Run from the repository root.  The base revision is checked out with
`git worktree add` under .bench_build/ab/base (reused on later runs, so
its perfbench build is too); the head is this working tree, or with
--head REV a second worktree under .bench_build/ab/head (--head equal to
--base gives a base-vs-base control, whose verdicts should read noise).
Each tree runs its own perfbench/run.py with --trace 0, so both sides
measure with their own copy of the benchmark.  Remove the worktrees with
`git worktree remove --force .bench_build/ab/base` (and .../head).

For every workload it first runs each side once for WARMUP_SECONDS
(which also builds it), then N pairs at the same seed, the seed
advancing by one per pair and the side that runs first alternating.
Each paired run lasts the run_seconds that BENCHMARK.json fixes.  It
reads the end-to-end metrics BENCHMARK.json lists, with their direction,
and gives each (workload, metric) a verdict by the pair rule:

  faster  the head wins at least nine tenths of the pairs (ties count
          for neither) and its median is better than the base's by more
          than the base's interquartile range;
  slower  the same with the sides swapped;
  noise   anything else.

"faster" and "slower" mean better and worse in the metric's direction
(lower cpu_s_per_trial, peak_rss_mb and setup_s are "faster").

Next to each verdict it prints the base's drift: the least-squares slope
of the base values over the pair index, times (pairs - 1), over the base
median, i.e. how far the host moved the base from the first pair to the
last.  A drift near the base's relative IQR says a "noise" verdict may be
the host's, not the change's; the verdict rule does not read it.

It writes BENCH_ab.json in the working directory (JSON lines: one "run"
header, then one "ab" row per workload and metric with every pair's
values, both sides' median and quartiles, the median ratio head/base, the
win count, the base drift and the verdict) and appends one "perf" row
with the host's nproc and CPU model to bench/perf_history.jsonl.

Stdlib-only, like the other bench scripts.
"""

import argparse
import datetime
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
HISTORY = ROOT / "bench" / "perf_history.jsonl"
WIN_SHARE = 0.9
WARMUP_SECONDS = 2


def percentile(xs, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(xs)
    if not s:
        return math.nan
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs):
    return percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)


def verdict(base, head, better):
    """The pair rule over aligned per-pair values; `better` is "higher" or
    "lower".  Returns (verdict, head wins, base wins)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    need = math.ceil(WIN_SHARE * len(base) - 1e-9)
    q1, med_b, q3 = quartiles(base)
    gap = sign * (percentile(head, 0.5) - med_b)
    if len(base) > 0 and abs(gap) > q3 - q1:
        if gap > 0 and wins >= need:
            return "faster", wins, losses
        if gap < 0 and losses >= need:
            return "slower", wins, losses
    return "noise", wins, losses


def drift(values):
    """Least-squares slope of `values` over their index, times
    (len - 1), over their median: the relative change the trend predicts
    from the first value to the last (0 for fewer than two values)."""
    n = len(values)
    med = percentile(values, 0.5)
    if n < 2 or not med:
        return 0.0
    mean_i = (n - 1) / 2
    mean_v = sum(values) / n
    sxx = sum((i - mean_i) ** 2 for i in range(n))
    sxy = sum((i - mean_i) * (v - mean_v) for i, v in enumerate(values))
    return sxy / sxx * (n - 1) / med


def summarise(workload, metric, better, base, head):
    """One "ab" row of BENCH_ab.json."""
    v, wins, losses = verdict(base, head, better)
    bq = quartiles(base)
    hq = quartiles(head)
    return {
        "kind": "ab", "workload": workload, "metric": metric,
        "better": better, "pairs": len(base), "base": base, "head": head,
        "base_q1": bq[0], "base_median": bq[1], "base_q3": bq[2],
        "head_q1": hq[0], "head_median": hq[1], "head_q3": hq[2],
        "median_ratio": hq[1] / bq[1] if bq[1] else None,
        "wins": wins, "losses": losses, "base_drift": drift(base),
        "verdict": v,
    }


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(role, rev):
    """A detached worktree of `rev` at .bench_build/ab/<role>."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = AB_DIR / role
    if (path / ".git").exists():
        git("checkout", "--quiet", "--detach", sha, cwd=path)
    else:
        AB_DIR.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(path), sha)
    return path, sha


def run_side(tree, workload, seed, seconds):
    """One perfbench run; returns its end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"ab: {' '.join(cmd)} failed in {tree}")
    out = json.loads(lines[-1])
    return {k: v["value"] for k, v in out["metrics"].items()}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--head", help="head revision (default: this tree)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_ab.json")
    ap.add_argument("--history", default=str(HISTORY))
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    base_tree, base_sha = checkout("base", args.base)
    if args.head:
        head_tree, head_sha = checkout("head", args.head)
    else:
        head_tree = ROOT
        head_sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            head_sha += "+dirty"
    sides = {"base": base_tree, "head": head_tree}

    rows = []
    for workload in args.workload:
        for tree in sides.values():
            run_side(tree, workload, args.seed, WARMUP_SECONDS)
        values = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                values[side].append(
                    run_side(sides[side], workload, seed, seconds))
            got = {s: values[s][-1].get("trials_per_s") for s in order}
            print(f"ab: {workload} pair {i + 1}/{args.pairs} seed {seed} "
                  f"trials/s base {got['base']} head {got['head']}",
                  file=sys.stderr)
        for metric, better in metrics.items():
            base = [v[metric] for v in values["base"] if metric in v]
            head = [v[metric] for v in values["head"] if metric in v]
            if len(base) == len(head) == args.pairs:
                rows.append(summarise(workload, metric, better, base, head))

    header = {"kind": "run", "base": base_sha, "head": head_sha,
              "pairs": args.pairs, "seconds": seconds,
              "seed": args.seed, "nproc": os.cpu_count(),
              "cpu": cpu_model()}
    with open(args.out, "w", encoding="utf-8") as f:
        for rec in [header, *rows]:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    history = dict(header, kind="perf",
                   date=datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(timespec="seconds"),
                   rows=[{k: r[k] for k in ("workload", "metric",
                                            "base_median", "head_median",
                                            "wins", "losses", "base_drift",
                                            "verdict")}
                         for r in rows])
    with open(args.history, "a", encoding="utf-8") as f:
        f.write(json.dumps(history, sort_keys=True) + "\n")
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:16} "
              f"base {r['base_median']:.6g} [{r['base_q1']:.6g}, "
              f"{r['base_q3']:.6g}]  head {r['head_median']:.6g}  "
              f"wins {r['wins']}/{r['pairs']}  {r['verdict']}  "
              f"base drift {r['base_drift']:+.1%}")


if __name__ == "__main__":
    main()
