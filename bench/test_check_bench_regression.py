#!/usr/bin/env python3
"""Self-test for the bench-regression gate (check_bench_regression.py).

The gate is the only line of defence between a semantic perf change and
a green CI run, so its own failure modes are pinned here by driving the
real script as a subprocess over synthesized BENCH files.  The headline
regression: a baseline point that vanished from the current run used to
be *printed* but never *failed* — a renamed label or dropped sweep size
silently shrank the gate's coverage.  Now it fails with a "missing
point" diagnostic unless the point sits above the current run's
recorded --max-n cap (that subset was legitimately never attempted).
Matched points are pinned by equality: a mean that moves either way, by
any factor, or a changed timeouts count fails.  The diff against the last
bench/history.jsonl row names the fields that moved and the new points,
and never fails the gate.

Stdlib-only, like the gate itself; registered under `ctest -L lint`.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def write_bench(dir_, name, points, max_n=0, bump_sum=None):
    """Writes a minimal BENCH_<name>.json: run header + point records.

    Each point is (label, n, mean) or (label, n, mean, timeouts).  A
    point's integer sums are 1000·n interactions and 10·n productive
    steps; bump_sum = (label, field) adds 1 to that point's field.
    """
    path = os.path.join(dir_, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": "run", "experiment": name,
                            "run_id": 1, "seed": 42, "threads": 1,
                            "max_n": max_n, "size": "quick"}) + "\n")
        for (label, n, mean, *timeouts) in points:
            rec = {
                "kind": "point", "run_id": 1, "point": label, "n": n,
                "param": 0, "trials": 3, "wall_seconds": 0.1,
                "trials_per_sec": 30.0, "mean_parallel_time": mean,
                "timeouts": timeouts[0] if timeouts else 0,
                "invalid": 0, "total_interactions": 1000 * n,
                "total_productive_steps": 10 * n}
            if bump_sum is not None and bump_sum[0] == label:
                rec[bump_sum[1]] += 1
            f.write(json.dumps(rec) + "\n")
    return path


def write_history(path, name, points):
    """Appends a history row (append_history.py's shape, without
    "invalid", like the rows written before it was added) holding the
    points of write_bench(dir_, name, points)."""
    detail = [{"point": label, "n": n, "param": 0, "trials": 3,
               "mean_parallel_time": mean, "timeouts": 0,
               "total_interactions": 1000 * n,
               "total_productive_steps": 10 * n, "trials_per_sec": 30.0}
              for (label, n, mean) in points]
    row = {"kind": "history", "sha": "abcdef0123456789", "utc": "x",
           "experiments": [{"experiment": name, "points": len(detail),
                            "points_detail": detail}]}
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")


def run_gate(bench_dir, baseline_dir, *extra):
    # Without --history in `extra`, point the gate at a file that does not
    # exist so the repository's own history stays out of these runs.
    if "--history" not in extra:
        extra = ("--history", os.path.join(baseline_dir, "none.jsonl"),
                 *extra)
    proc = subprocess.run(
        [sys.executable, GATE, "--bench-dir", bench_dir,
         "--baseline-dir", baseline_dir, *extra],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond, what, output):
    if not cond:
        sys.exit(f"FAIL: {what}\n--- gate output ---\n{output}")
    print(f"ok: {what}")


def main():
    full = [("s1-a", 100, 1.5), ("s1-a", 100000, 9.0), ("s1-b", 100, 2.0)]

    with tempfile.TemporaryDirectory() as tmp:
        cur_dir = os.path.join(tmp, "cur")
        base_dir = os.path.join(tmp, "base")
        os.makedirs(cur_dir)

        # Seed the baseline from a full run via the gate's own writer.
        write_bench(cur_dir, "t", full)
        code, out = run_gate(cur_dir, base_dir, "--update-baseline")
        expect(code == 0, "--update-baseline exits 0", out)
        expect(os.path.exists(os.path.join(base_dir, "BENCH_t.json")),
               "--update-baseline writes the baseline file", out)

        # Identical records pass.
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 0, "identical records pass the gate", out)

        # THE BUG: a vanished point (uncapped run) must fail, with a
        # diagnostic naming the point.
        write_bench(cur_dir, "t", [p for p in full if p[0] != "s1-b"])
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 1, "vanished point fails the gate", out)
        expect("missing point" in out and "s1-b" in out,
               "failure carries a 'missing point' diagnostic", out)

        # A vanished point ABOVE the current run's cap is excused …
        write_bench(cur_dir, "t",
                    [p for p in full if p[1] <= 1000], max_n=1000)
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 0, "point above current --max-n is excused", out)
        expect("above current --max-n" in out,
               "excused point is still reported as a note", out)

        # … but the cap does not excuse a vanished point UNDER it.
        write_bench(cur_dir, "t",
                    [p for p in full if p[0] != "s1-b" and p[1] <= 1000],
                    max_n=1000)
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 1 and "missing point" in out,
               "cap does not excuse a sub-cap vanished point", out)

        # New points (no baseline entry) never fail.
        write_bench(cur_dir, "t", full + [("s3-new", 500, 3.0)])
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 0, "new point without a baseline passes", out)

        # Means are pinned by equality: a move by any factor, up or
        # down, fails, and --factor only labels its size.
        for scale, label in ((10, "10x"), (1.5, "1.5x"), (0.5, "0.5x")):
            moved = [(l, n, m * scale if l == "s1-a" and n == 100 else m)
                     for (l, n, m) in full]
            write_bench(cur_dir, "t", moved)
            code, out = run_gate(cur_dir, base_dir)
            expect(code == 1 and "mean parallel time" in out
                   and f"({label}" in out,
                   f"a {label} mean fails the gate, labelled {label}", out)
            expect(("beyond 2x" in out) == (scale == 10),
                   f"a {label} mean is labelled beyond --factor iff it is",
                   out)

        # A changed timeouts count fails even when the mean is unchanged.
        write_bench(cur_dir, "t",
                    [(l, n, m, 1 if l == "s1-b" else 0)
                     for (l, n, m) in full])
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 1 and "timeouts 1 vs baseline 0" in out,
               "a changed timeouts count fails the gate", out)

        # The exact integer sums are pinned by equality too: an off-by-one
        # fails with the field named, mean unchanged.
        for field, base in (("total_interactions", 100000),
                            ("total_productive_steps", 1000)):
            write_bench(cur_dir, "t", full, bump_sum=("s1-b", field))
            code, out = run_gate(cur_dir, base_dir)
            expect(code == 1 and
                   f"{field} {base + 1} vs baseline {base}" in out,
                   f"a changed {field} fails the gate, labelled", out)
            expect("s1-b" in out and "mean parallel time" not in out,
                   f"the {field} failure names its point alone", out)

        # A baseline carrying the sums fails a record that lacks them.
        write_bench(cur_dir, "t", full)
        path = os.path.join(cur_dir, "BENCH_t.json")
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(l) for l in f]
        for rec in lines:
            rec.pop("total_productive_steps", None)
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in lines)
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 1 and "total_productive_steps None vs baseline" in out,
               "a record without the sums fails against a baseline with "
               "them", out)

        # Identical records still pass after the failures above.
        write_bench(cur_dir, "t", full)
        code, out = run_gate(cur_dir, base_dir)
        expect(code == 0, "identical records pass again", out)
        expect("trajectory diff skipped" in out,
               "no history file skips the trajectory diff", out)

        # The trajectory: only the last history row counts.  An older row
        # with a different mean is ignored; against a matching last row
        # nothing moved.
        history = os.path.join(tmp, "history.jsonl")
        write_history(history, "t", [(l, n, m + 1) for (l, n, m) in full])
        write_history(history, "t", full)
        code, out = run_gate(cur_dir, base_dir, "--history", history)
        expect(code == 0 and "3 unchanged, 0 moved, 0 new" in out
               and "abcdef012345" in out,
               "the diff against a matching last history row is empty", out)

        # A moved point and a point the row lacks are printed, and the gate
        # still passes when the baselines match.
        with open(history, "w", encoding="utf-8") as f:
            f.write("")
        write_history(history, "t",
                      [(l, n, 7.0 if l == "s1-b" else m)
                       for (l, n, m) in full if n != 100000])
        code, out = run_gate(cur_dir, base_dir, "--history", history)
        expect(code == 0, "a history diff never fails the gate", out)
        expect("1 unchanged, 1 moved, 1 new" in out
               and "s1-b (n=100, param=0, trials=3): "
                   "mean_parallel_time 7.0 -> 2.0" in out
               and "new since last history row: s1-a (n=100000" in out,
               "moved fields and new points are named", out)
        expect("invalid" not in out.split("moved since last history row")[1],
               "a field the history row lacks is not compared", out)

    print("check_bench_regression self-test: OK")


if __name__ == "__main__":
    main()
