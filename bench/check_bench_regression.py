#!/usr/bin/env python3
"""Per-commit bench-regression gate over the BENCH_*.json records.

Compares the current run's machine-readable bench records against the
committed baselines in bench/baselines/ and fails (exit 1) when any
matched measurement point differs:

  * mean parallel stabilisation time, timeouts, invalid count and the
    exact integer sums of interactions and productive steps over the
    point's trials are compared by equality.  The runner's per-trial seed streams make these
    numbers *deterministic* for a fixed (seed, trials) — identical across
    thread counts, build types and machines — so any mismatch, up or
    down, is a semantic change in the simulation, never scheduling noise.
    A mean can hide two changes that cancel out; the sums cannot.
    --factor only labels how large a mean mismatch is;
  * optionally, trials/s fell by more than --throughput-factor.  Off by
    default: wall-clock throughput is machine-dependent, so it only means
    something when baseline and current ran on comparable hardware.

Points are matched by (point label, n, param, trials); trials is part of
the key because the deterministic mean is a function of the trial count.
New points (present only in the current run) are reported but never fail
the gate — new benches should not need a baseline to land.  A baseline
point MISSING from the current run fails the gate ("missing point"),
because a silently vanished measurement is exactly the kind of coverage
loss the gate exists to catch.  The one legitimate reason for a missing
point is a size cap: the current run's header records its effective
--max-n, and baseline points above that cap are excused as notes — CI
runs different subsets per build type (Debug smoke steps cap n hard).

The gate also prints the trajectory: for each point of the current run,
which of the HISTORY_FIELDS moved against the last row of
bench/history.jsonl (see append_history.py), and which points that row
lacks ("new").  A field the row does not carry is not compared.  This
diff is informational and never fails the gate.

Stdlib-only on purpose, like the figure script: the gate runs on any CI
runner straight after the bench step.

Usage:
  check_bench_regression.py --bench-dir build [--baseline-dir bench/baselines]
  check_bench_regression.py --bench-dir build --update-baseline

  --bench-dir          where the current BENCH_*.json files live
  --baseline-dir       committed baselines (default: bench/baselines next
                       to this script)
  --history            trajectory rows (default: bench/history.jsonl next
                       to this script); a missing file skips the diff
  --factor             a mean mismatch beyond this ratio either way is
                       labelled "beyond <factor>x" (default 2.0); every
                       mismatch fails regardless
  --throughput-factor  trials/s regression factor; 0 disables (default 0)
  --update-baseline    rewrite the baselines from the current records
                       (normalised: stable fields only, sorted), then exit

Refreshing baselines after an intentional semantics change (the
invocations must match CI's Release leg — trials is part of the match
key, and a baseline generated under a smaller cap would instantly trip
the missing-point check there):
  cd build && ./bench_scheduler_comparison --quick --trials=3 --max-n=10000000
  ./bench_hostile_sweep --quick --trials=2 --max-n=10000
  ./bench_whp_concentration --quick --trials=3
  ./bench_sampler_update --quick --trials=2 --max-n=10000
  python3 ../bench/check_bench_regression.py --bench-dir . --update-baseline
"""

import argparse
import glob
import json
import os
import sys

# The stable, machine-independent fields a baseline keeps per point.
STABLE_FIELDS = ("point", "n", "param", "trials", "mean_parallel_time",
                 "timeouts", "invalid", "total_interactions",
                 "total_productive_steps")
# Pinned by equality besides the mean; a field absent on one side reads
# None and fails against a present one.
EXACT_FIELDS = ("timeouts", "invalid", "total_interactions",
                "total_productive_steps")
# Kept for human reference and --throughput-factor; machine-dependent.
REFERENCE_FIELDS = ("trials_per_sec",)
# Diffed against the last history row (printed, never failing).
HISTORY_FIELDS = ("mean_parallel_time", "total_interactions",
                  "total_productive_steps", "timeouts", "invalid")


def point_key(rec):
    return (rec["point"], rec["n"], rec["param"], rec["trials"])


def load_records(path):
    """(experiment id, {match key: point record}, effective max_n).

    max_n is the run header's population cap (0 = uncapped); records
    written before the field existed load as 0, which keeps the
    missing-point check strict for them.
    """
    experiment = None
    points = {}
    max_n = 0
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "run":
                experiment = rec.get("experiment")
                max_n = rec.get("max_n", 0)
            elif rec.get("kind") in ("point", "baseline-point"):
                points[point_key(rec)] = rec
    return experiment, points, max_n


def write_baseline(path, experiment, points):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": "baseline",
                            "experiment": experiment}) + "\n")
        for key in sorted(points, key=lambda k: (k[0], k[1], k[2])):
            rec = points[key]
            slim = {"kind": "baseline-point"}
            for field in STABLE_FIELDS + REFERENCE_FIELDS:
                slim[field] = rec.get(field)
            f.write(json.dumps(slim) + "\n")


def fmt_key(key):
    point, n, param, trials = key
    return f"{point} (n={n}, param={param:g}, trials={trials})"


def ratio_label(base, cur, factor):
    """Size of a mean mismatch: "1.9x, +90%", or "10x, +900%, beyond 2x"."""
    if base == 0:
        return "baseline 0"
    ratio = cur / base
    label = f"{ratio:.3g}x, {100 * (ratio - 1):+.3g}%"
    if ratio > factor or ratio * factor < 1:
        label += f", beyond {factor:g}x"
    return label


def compare(name, base_points, cur_points, factor, throughput_factor,
            cur_max_n=0):
    """Returns (failures, notes) for one experiment's record pair.

    cur_max_n is the current run's effective population cap (0 =
    uncapped): baseline points with n above it were legitimately skipped
    by --max-n and only produce notes; any other baseline-only point is
    a "missing point" failure.
    """
    failures = []
    notes = []
    matched = 0
    for key, cur in sorted(cur_points.items()):
        base = base_points.get(key)
        if base is None:
            notes.append(f"  new point (no baseline): {fmt_key(key)}")
            continue
        matched += 1
        bt, ct = base["mean_parallel_time"], cur["mean_parallel_time"]
        if ct != bt:
            failures.append(
                f"  {fmt_key(key)}: mean parallel time {ct!r} vs baseline "
                f"{bt!r} ({ratio_label(bt, ct, factor)})"
            )
        for field in EXACT_FIELDS:
            if cur.get(field) != base.get(field):
                failures.append(
                    f"  {fmt_key(key)}: {field} {cur.get(field)} vs "
                    f"baseline {base.get(field)}"
                )
        if throughput_factor > 0:
            btp = base.get("trials_per_sec") or 0
            ctp = cur.get("trials_per_sec") or 0
            if btp > 0 and ctp * throughput_factor < btp:
                failures.append(
                    f"  {fmt_key(key)}: throughput {ctp:g} trials/s vs "
                    f"baseline {btp:g} (> {throughput_factor:g}x slower)"
                )
    # A baseline point absent from the current run is a coverage loss,
    # not a diff curiosity: a renamed label, a dropped sweep size or a
    # bench that stopped emitting a section would otherwise shrink the
    # gate's reach silently.  Only a point sitting above the current
    # run's population cap is excused (that subset was never attempted).
    missing = 0
    for key in sorted(base_points.keys() - cur_points.keys()):
        missing += 1
        if cur_max_n > 0 and key[1] > cur_max_n:
            notes.append(f"  baseline point above current --max-n="
                         f"{cur_max_n} (skipped): {fmt_key(key)}")
        else:
            failures.append(
                f"  missing point: {fmt_key(key)} is in the baseline but "
                f"absent from the current run — if the removal is "
                f"intentional, refresh with --update-baseline"
            )
    print(f"{name}: {matched} matched, {len(cur_points) - matched} new, "
          f"{missing} baseline-only, {len(failures)} failure(s)")
    return failures, notes


def load_last_history(path):
    """(sha, {experiment: {match key: point}}) of the file's last row, or
    (None, {}) when there is no row."""
    last = None
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    last = json.loads(line)
    if last is None:
        return None, {}
    return last.get("sha"), {
        e["experiment"]: {point_key(p): p for p in e["points_detail"]}
        for e in last.get("experiments", [])
    }


def history_diff(name, row_points, cur_points):
    """Prints which HISTORY_FIELDS moved per current point against the
    last history row, and the points that row lacks."""
    moved = []
    new = []
    for key, cur in sorted(cur_points.items()):
        row = row_points.get(key)
        if row is None:
            new.append(f"  new since last history row: {fmt_key(key)}")
            continue
        fields = [field for field in HISTORY_FIELDS
                  if field in row and cur.get(field) != row[field]]
        if fields:
            moved.append(f"  moved since last history row: {fmt_key(key)}: "
                         + ", ".join(f"{field} {row[field]!r} -> "
                                     f"{cur.get(field)!r}"
                                     for field in fields))
    print(f"{name}: {len(cur_points) - len(new) - len(moved)} unchanged, "
          f"{len(moved)} moved, {len(new)} new since the last history row")
    for line in moved + new:
        print(line)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--baseline-dir",
                    default=os.path.join(os.path.dirname(
                        os.path.abspath(__file__)), "baselines"))
    ap.add_argument("--history",
                    default=os.path.join(os.path.dirname(
                        os.path.abspath(__file__)), "history.jsonl"))
    ap.add_argument("--factor", type=float, default=2.0)
    ap.add_argument("--throughput-factor", type=float, default=0.0)
    ap.add_argument("--update-baseline", action="store_true")
    args = ap.parse_args()

    current = sorted(glob.glob(os.path.join(args.bench_dir, "BENCH_*.json")))
    # The provenance sidecars (obs/provenance.hpp) share the BENCH_ prefix
    # but are not perf records — and must never become baselines.
    current = [p for p in current if not p.endswith(".manifest.json")]
    if not current:
        sys.exit(f"no BENCH_*.json in {args.bench_dir} — run the benches "
                 "first")

    if args.update_baseline:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in current:
            experiment, points, _ = load_records(path)
            out = os.path.join(args.baseline_dir, os.path.basename(path))
            write_baseline(out, experiment, points)
            print(f"baseline updated: {out} ({len(points)} points)")
        return

    sha, history = load_last_history(args.history)
    if sha is None:
        print(f"no history row in {args.history} — trajectory diff skipped")
    else:
        print(f"trajectory against the last history row ({sha[:12]}):")
    all_failures = []
    checked = 0
    for path in current:
        name = os.path.basename(path)
        experiment, cur_points, cur_max_n = load_records(path)
        if sha is not None:
            history_diff(name, history.get(experiment, {}), cur_points)
        base_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(base_path):
            print(f"{name}: no committed baseline — skipped "
                  f"(add one with --update-baseline)")
            continue
        _, base_points, _ = load_records(base_path)
        failures, notes = compare(name, base_points, cur_points,
                                  args.factor, args.throughput_factor,
                                  cur_max_n)
        for note in notes:
            print(note)
        all_failures.extend(f"{name}:\n{f}" for f in failures)
        checked += 1

    if checked == 0:
        print("WARNING: no experiment had a committed baseline; the gate "
              "checked nothing")
    if all_failures:
        print("\nBENCH REGRESSION GATE FAILED:")
        for f in all_failures:
            print(f)
        sys.exit(1)
    print("bench regression gate: OK")


if __name__ == "__main__":
    main()
