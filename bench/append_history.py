#!/usr/bin/env python3
"""Appends one per-commit summary row to the bench/history.jsonl
trajectory from a directory of BENCH_*.json records.

The regression gate (check_bench_regression.py) answers "did THIS commit
regress against the committed baselines?"; history.jsonl answers "what
has the trajectory looked like over time?" — one JSON line per commit,
each carrying the deterministic per-point means plus coarse throughput,
so a plotting script (or a plain `jq`) can draw mean-time and trials/s
series across the repo's history without re-running anything.

A row looks like:
  {"kind": "history", "sha": "...", "utc": "...", "experiments": [
     {"experiment": "...", "points": N, "trials": N,
      "wall_seconds": S, "points_detail": [
        {"point": "...", "n": N, "param": P, "trials": T,
         "mean_parallel_time": M, "timeouts": K, "invalid": V,
         "total_interactions": I, "total_productive_steps": P,
         "trials_per_sec": R}, ...]}]}

Appending is idempotent per sha: re-running on the same commit replaces
that sha's row instead of duplicating it.  CI appends the row for every
push and uploads the updated file as a build artifact; committing the
refreshed file back (alongside baseline refreshes) is a maintainer
action, which keeps the committed trajectory append-only and tied to
intentional changes.

Stdlib-only on purpose, like every other bench/*.py tool.

Usage:
  append_history.py --bench-dir build --sha $GITHUB_SHA
                    [--history bench/history.jsonl] [--utc TIMESTAMP]
"""

import argparse
import datetime
import glob
import json
import os
import sys


def load_bench(path):
    """Returns (experiment_id, point_records) for one BENCH_*.json."""
    experiment = None
    points = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "run":
                experiment = rec.get("experiment")
            elif rec.get("kind") == "point":
                points.append(rec)
    return experiment, points


def summarise(path):
    experiment, points = load_bench(path)
    if experiment is None or not points:
        return None
    detail = [
        {
            "point": p["point"],
            "n": p["n"],
            "param": p["param"],
            "trials": p["trials"],
            "mean_parallel_time": p["mean_parallel_time"],
            "timeouts": p["timeouts"],
            "invalid": p.get("invalid"),
            "total_interactions": p.get("total_interactions"),
            "total_productive_steps": p.get("total_productive_steps"),
            "trials_per_sec": p["trials_per_sec"],
        }
        for p in points
    ]
    detail.sort(key=lambda d: (d["point"], d["n"], d["param"]))
    return {
        "experiment": experiment,
        "points": len(points),
        "trials": sum(p["trials"] for p in points),
        "wall_seconds": round(sum(p["wall_seconds"] for p in points), 3),
        "points_detail": detail,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-dir", default=".")
    ap.add_argument("--sha", required=True)
    ap.add_argument(
        "--history",
        default=os.path.join(os.path.dirname(__file__), "history.jsonl"),
    )
    ap.add_argument(
        "--utc",
        default=None,
        help="ISO timestamp override (default: now, UTC)",
    )
    args = ap.parse_args()

    bench_files = sorted(glob.glob(os.path.join(args.bench_dir, "BENCH_*.json")))
    bench_files = [p for p in bench_files if not p.endswith(".manifest.json")]
    experiments = [s for s in map(summarise, bench_files) if s is not None]
    if not experiments:
        sys.exit(f"append_history: no BENCH records in {args.bench_dir}")

    utc = args.utc or datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    row = {
        "kind": "history",
        "sha": args.sha,
        "utc": utc,
        "experiments": sorted(experiments, key=lambda e: e["experiment"]),
    }

    rows = []
    if os.path.exists(args.history):
        with open(args.history, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
    # Idempotent per sha: a re-run of the same commit replaces its row.
    rows = [r for r in rows if r.get("sha") != args.sha]
    rows.append(row)
    with open(args.history, "w", encoding="utf-8") as f:
        for r in rows:
            f.write(json.dumps(r, separators=(",", ":"), sort_keys=True))
            f.write("\n")
    print(
        f"append_history: {args.history} now {len(rows)} rows "
        f"({sum(e['points'] for e in row['experiments'])} points @ "
        f"{args.sha[:12]})"
    )


if __name__ == "__main__":
    main()
