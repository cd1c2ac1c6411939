#!/usr/bin/env python3
"""Turn bench_scheduler_comparison's BENCH records into the
stabilisation-vs-model figure.

Reads the JSON-lines perf records the bench writes
(BENCH_s1-protocols-under-alternative-schedulers.json), keeps the largest
population per (protocol, scheduler) point, and renders one horizontal-bar
panel per protocol: mean parallel stabilisation time per interaction model,
with models that failed to stabilise within the budget flagged on the bar.

Dependency-free on purpose (stdlib + hand-written SVG): the CI smoke step
runs it right after a tiny-n bench pass and uploads the figure as an
artifact, so it must work on any runner.  A text summary goes to stdout for
terminals without an SVG viewer.

Usage:
  plot_scheduler_comparison.py [--bench-dir DIR] [--out FILE.svg]

  --bench-dir  where the BENCH_*.json files live (default: cwd)
  --out        output SVG path (default: scheduler_comparison.svg in
               --bench-dir)
"""

import argparse
import json
import os
import re
import sys

BENCH_FILE = "BENCH_s1-protocols-under-alternative-schedulers.json"

# Point labels are "s1-<protocol>-<scheduler>" where both halves may
# contain hyphens (tree-ranking, accelerated-uniform); the scheduler half
# always starts with a registered kind name, so anchor the split there.
SCHED_ALT = (
    r"accelerated-uniform$|uniform$|random-matching$|"
    r"(?:weighted|dynamic|graph-restricted|churn|partition|adversarial)\[.*"
)
POINT_RE = re.compile(r"^s1-(.+?)-(" + SCHED_ALT + r")$")

# The budget-capped large-n throughput points: "s1-scale-<protocol>-..."
# (hierarchical samplers, 10^4..10^5 — ag plus the extra-state protocols
# line-of-traps/tree-ranking, whose weighted[ring-decay]/
# weighted[trap-decay]/dynamic rows ride the same fast path since the
# dense-only cap was retired).  They never stabilise by design, so they
# feed their own throughput panel instead of the stabilisation panels.
SCALE_RE = re.compile(r"^s1-scale-(.+?)-(" + SCHED_ALT + r")$")

# Categorical slot 1 (blue) for the measured bars, the reserved "serious"
# status red for models that never stabilised, and text/grid inks — the
# skill-validated default palette, light mode.
BAR = "#2a78d6"
BAR_STRANDED = "#e34948"
INK = "#1a1a2e"
INK_MUTED = "#6b6b7b"
GRID = "#d8d8e0"
SURFACE = "#ffffff"

FONT = "ui-sans-serif, system-ui, 'Helvetica Neue', Arial, sans-serif"


def load_points(path):
    """Splits records into stabilisation points ({(proto, sched, n): rec})
    and large-n throughput points ([(proto, sched, rec), ...])."""
    points = {}
    scale = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") != "point":
                continue
            m = SCALE_RE.match(rec["point"])
            if m:
                scale.append((m.group(1), m.group(2), rec))
                continue
            m = POINT_RE.match(rec["point"])
            if not m:
                continue
            proto, sched = m.group(1), m.group(2)
            points[(proto, sched, rec["n"])] = rec
    return points, scale


def largest_n(points):
    """Keep one record per (protocol, scheduler): the largest population."""
    best = {}
    for (proto, sched, n), rec in points.items():
        key = (proto, sched)
        if key not in best or n > best[key]["n"]:
            best[key] = rec
    by_proto = {}
    for (proto, sched), rec in best.items():
        by_proto.setdefault(proto, []).append((sched, rec))
    return by_proto


def esc(s):
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def row_order(item):
    """Sort key: clean models by mean time, then partially stranded, then
    fully stranded.

    A stranded run's mean_parallel_time is the time at which it got stuck,
    not a stabilisation time — a (partially) stranded model's mean is
    biased low, and sorting it among the real times would present it as
    the fastest row.
    """
    _, rec = item
    if rec["timeouts"] == 0:
        strandedness = 0
    elif rec["timeouts"] < rec["trials"]:
        strandedness = 1
    else:
        strandedness = 2
    return (strandedness, rec["mean_parallel_time"])


def svg_panel(out, proto, rows, x0, y0, width):
    """One protocol's horizontal-bar panel; returns the panel height."""
    row_h = 26
    bar_h = 14
    label_w = 240
    value_w = 120
    plot_w = width - label_w - value_w
    top_pad = 34
    height = top_pad + row_h * len(rows) + 14

    max_time = max(max(r["mean_parallel_time"] for _, r in rows), 1e-9)
    panel_n = max(r["n"] for _, r in rows)

    out.append(
        f'<text x="{x0}" y="{y0 + 16}" font-family="{FONT}" font-size="15" '
        f'font-weight="600" fill="{INK}">{esc(proto)} — mean parallel '
        f"stabilisation time (n = {panel_n})</text>"
    )
    # Recessive gridlines at quarter marks of the time axis.
    for frac in (0.25, 0.5, 0.75, 1.0):
        gx = x0 + label_w + plot_w * frac
        out.append(
            f'<line x1="{gx:.1f}" y1="{y0 + top_pad - 6}" x2="{gx:.1f}" '
            f'y2="{y0 + height - 10}" stroke="{GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{gx:.1f}" y="{y0 + height + 2}" font-family="{FONT}" '
            f'font-size="10" fill="{INK_MUTED}" text-anchor="middle">'
            f"{max_time * frac:.0f}</text>"
        )

    for i, (sched, rec) in enumerate(rows):
        cy = y0 + top_pad + i * row_h
        t = rec["mean_parallel_time"]
        trials = rec["trials"]
        timeouts = rec["timeouts"]
        stranded = timeouts == trials
        # Clamp to the 4px corner radius: narrower would emit negative
        # horizontal path segments poking left of the baseline.
        w = max(plot_w * t / max_time, 4.0)
        color = BAR_STRANDED if stranded else BAR
        out.append(
            f'<text x="{x0 + label_w - 10}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="12" fill="{INK}" '
            f'text-anchor="end">{esc(sched)}</text>'
        )
        # Thin bar, rounded data end, anchored square at the baseline.
        out.append(
            f'<path d="M {x0 + label_w} {cy} h {w - 4:.1f} '
            f"q 4 0 4 4 v {bar_h - 8} q 0 4 -4 4 "
            f'h {-(w - 4):.1f} z" fill="{color}"/>'
        )
        note = f"{t:,.0f}"
        if rec["n"] != panel_n:
            # largest_n() is per (protocol, scheduler): a model whose
            # records stop at a smaller population must say so rather than
            # masquerade on the shared axis.
            note += f"  (at n = {rec['n']})"
        if timeouts:
            # A stranded run contributes its time-at-stuck to the mean, so
            # partially stranded means are biased low — say so on the bar.
            note += f"  ({timeouts}/{trials} unstab."
            note += ")" if stranded else ", mean biased low)"
        out.append(
            f'<text x="{x0 + label_w + w + 8:.1f}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="11" '
            f'fill="{INK_MUTED}">{esc(note)}</text>'
        )
    return height + 18


def svg_scale_panel(out, rows, x0, y0, width):
    """The large-n throughput panel: one bar per (scheduler, n), width
    proportional to trials/s.  Returns the panel height.

    These points are budget-capped (AG cannot stabilise at 10^4..10^5 in
    any reasonable wall time), so throughput — how fast the hierarchical
    sampler pushes a fixed parallel-time budget — is the number the
    per-commit trajectory tracks here.
    """
    row_h = 26
    bar_h = 14
    label_w = 300
    value_w = 120
    plot_w = width - label_w - value_w
    top_pad = 34
    height = top_pad + row_h * len(rows) + 14

    max_tps = max(max(r["trials_per_sec"] for _, _, r in rows), 1e-9)
    out.append(
        f'<text x="{x0}" y="{y0 + 16}" font-family="{FONT}" font-size="15" '
        f'font-weight="600" fill="{INK}">large-n scale — runner throughput '
        f"under a fixed parallel-time budget</text>"
    )
    for i, (proto, sched, rec) in enumerate(rows):
        cy = y0 + top_pad + i * row_h
        tps = rec["trials_per_sec"]
        w = max(plot_w * tps / max_tps, 4.0)
        label = f"{proto} · {sched} @ n={rec['n']:,}"
        out.append(
            f'<text x="{x0 + label_w - 10}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="12" fill="{INK}" '
            f'text-anchor="end">{esc(label)}</text>'
        )
        out.append(
            f'<path d="M {x0 + label_w} {cy} h {w - 4:.1f} '
            f"q 4 0 4 4 v {bar_h - 8} q 0 4 -4 4 "
            f'h {-(w - 4):.1f} z" fill="{BAR}"/>'
        )
        out.append(
            f'<text x="{x0 + label_w + w + 8:.1f}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="11" fill="{INK_MUTED}">'
            f"{tps:,.2f} trials/s</text>"
        )
    return height + 18


def scale_order(row):
    proto, sched, rec = row
    return (proto, rec["n"], -rec["trials_per_sec"], sched)


def overhead_rows(points, scale_rows):
    """Rows for the per-model overhead panel, from records that carry the
    optional "counters" object (POPRANK_OBS=ON builds only): null-skip
    efficiency = null_skips / (null_skips + productive_steps), i.e. the
    fraction of scheduled interactions that changed no agent, plus the
    roster rejection rate for the models that keep a live pair roster.
    Every model but uniform counts its nulls.  On the null-skipping
    samplers the engine disposed of them analytically; in tick-by-tick
    phases (a churn storm, partition phases, random-matching rounds) each
    was a simulated step, and every churn fault tick counts among them, so
    there the figure reads the null share, not work saved."""
    rows = []
    seen = set()
    items = [(p, s, rec) for (p, s, _n), rec in points.items()]
    items += list(scale_rows)
    for proto, sched, rec in items:
        counters = rec.get("counters", {}).get("counters")
        if not counters:
            continue
        prod = counters.get("productive_steps", 0)
        skips = counters.get("null_skips", 0)
        if prod + skips == 0:
            continue
        key = (proto, sched, rec["n"])
        if key in seen:
            continue
        seen.add(key)
        rej = counters.get("roster_rejections", 0)
        grows = counters.get("roster_grows", 0)
        rows.append(
            {
                "proto": proto,
                "sched": sched,
                "n": rec["n"],
                "efficiency": skips / (prod + skips),
                "rejections_per_kprod": 1000.0 * rej / max(prod, 1),
                "roster_grows": grows,
            }
        )
    rows.sort(key=lambda r: (r["proto"], -r["efficiency"], r["sched"], r["n"]))
    return rows


def svg_overhead_panel(out, rows, x0, y0, width):
    """Per-model scheduling-overhead panel: null-skip efficiency bars on a
    fixed 0..1 axis, annotated with roster churn.  Returns the height."""
    row_h = 26
    bar_h = 14
    label_w = 300
    value_w = 120
    plot_w = width - label_w - value_w
    top_pad = 34
    height = top_pad + row_h * len(rows) + 14

    out.append(
        f'<text x="{x0}" y="{y0 + 16}" font-family="{FONT}" font-size="15" '
        f'font-weight="600" fill="{INK}">per-model overhead — null-skip '
        f"efficiency (POPRANK_OBS counters)</text>"
    )
    for frac in (0.25, 0.5, 0.75, 1.0):
        gx = x0 + label_w + plot_w * frac
        out.append(
            f'<line x1="{gx:.1f}" y1="{y0 + top_pad - 6}" x2="{gx:.1f}" '
            f'y2="{y0 + height - 10}" stroke="{GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{gx:.1f}" y="{y0 + height + 2}" font-family="{FONT}" '
            f'font-size="10" fill="{INK_MUTED}" text-anchor="middle">'
            f"{frac:.2f}</text>"
        )
    for i, r in enumerate(rows):
        cy = y0 + top_pad + i * row_h
        w = max(plot_w * r["efficiency"], 4.0)
        label = f"{r['proto']} · {r['sched']} @ n={r['n']:,}"
        out.append(
            f'<text x="{x0 + label_w - 10}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="12" fill="{INK}" '
            f'text-anchor="end">{esc(label)}</text>'
        )
        out.append(
            f'<path d="M {x0 + label_w} {cy} h {w - 4:.1f} '
            f"q 4 0 4 4 v {bar_h - 8} q 0 4 -4 4 "
            f'h {-(w - 4):.1f} z" fill="{BAR}"/>'
        )
        note = f"{r['efficiency']:.3f}"
        if r["rejections_per_kprod"] > 0 or r["roster_grows"] > 0:
            note += (
                f"  ({r['rejections_per_kprod']:.1f} roster rej./1k steps, "
                f"{r['roster_grows']:,} rehashes)"
            )
        out.append(
            f'<text x="{x0 + label_w + w + 8:.1f}" y="{cy + bar_h - 2}" '
            f'font-family="{FONT}" font-size="11" '
            f'fill="{INK_MUTED}">{esc(note)}</text>'
        )
    return height + 18


def render_svg(by_proto, scale_rows, ovh_rows, out_path):
    width = 860
    x0, y_cursor = 20, 20
    body = []
    body.append(
        f'<text x="{x0}" y="{y_cursor + 14}" font-family="{FONT}" '
        f'font-size="17" font-weight="700" fill="{INK}">Stabilisation time '
        f"by interaction model</text>"
    )
    body.append(
        f'<text x="{x0}" y="{y_cursor + 32}" font-family="{FONT}" '
        f'font-size="11" fill="{INK_MUTED}">parallel time = interactions / n '
        f"(random-matching: rounds); red bar + “unstab.” = runs stranded "
        f"within the budget (locally stuck or budget exhausted)</text>"
    )
    y_cursor += 52
    for proto in sorted(by_proto):
        rows = sorted(by_proto[proto], key=row_order)
        y_cursor += svg_panel(body, proto, rows, x0, y_cursor, width - 2 * x0)
    if scale_rows:
        y_cursor += svg_scale_panel(
            body, sorted(scale_rows, key=scale_order), x0, y_cursor,
            width - 2 * x0
        )
    if ovh_rows:
        y_cursor += svg_overhead_panel(
            body, ovh_rows, x0, y_cursor, width - 2 * x0
        )
    height = y_cursor + 10
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>\n'
        )
        f.write("\n".join(body))
        f.write("\n</svg>\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-dir", default=".")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    path = os.path.join(args.bench_dir, BENCH_FILE)
    if not os.path.exists(path):
        sys.exit(
            f"no {BENCH_FILE} in {args.bench_dir} — run "
            "bench_scheduler_comparison first (any --quick/--trials setting)"
        )
    points, scale_rows = load_points(path)
    by_proto = largest_n(points)
    if not by_proto and not scale_rows:
        sys.exit(f"{path} contains no point records")

    out_path = args.out or os.path.join(
        args.bench_dir, "scheduler_comparison.svg"
    )
    ovh_rows = overhead_rows(points, scale_rows)
    render_svg(by_proto, scale_rows, ovh_rows, out_path)

    for proto in sorted(by_proto):
        rows = sorted(by_proto[proto], key=row_order)
        panel_n = max(r["n"] for _, r in rows)
        print(f"{proto} (n = {panel_n}):")
        for sched, rec in rows:
            flag = "" if rec["n"] == panel_n else f"  [at n = {rec['n']}]"
            if rec["timeouts"]:
                flag += f"  [{rec['timeouts']}/{rec['trials']} unstab.]"
            print(f"  {sched:36s} {rec['mean_parallel_time']:12,.1f}{flag}")
    if scale_rows:
        print("large-n scale (budget-capped throughput):")
        for proto, sched, rec in sorted(scale_rows, key=scale_order):
            print(
                f"  {proto} · {sched:36s} n={rec['n']:>7,} "
                f"{rec['trials_per_sec']:10,.2f} trials/s"
            )
    if ovh_rows:
        print("per-model overhead (null-skip efficiency):")
        for r in ovh_rows:
            print(
                f"  {r['proto']} · {r['sched']:36s} n={r['n']:>7,} "
                f"{r['efficiency']:8.3f}"
            )
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
