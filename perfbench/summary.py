"""Turns the harness's raw.json (and trace.json) into benchmark metrics.

Pure functions only, so perfbench/test_summary.py can pin them on
hand-built inputs.  Stdlib only.
"""

import math
import statistics

LOOP_SPANS = ("core.run_accelerated", "schedulers.run")

# A spec fails its reference check beyond this many combined standard
# errors: wide enough that a correct run at any seed passes.
REFERENCE_Z_MAX = 6


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile in %, value, sample count).  With too few samples
    to leave `beyond` above any percentile, falls back to the median.
    """
    n = len(values)
    q = 1.0 - beyond / n if n > 2 * beyond else 0.5
    # Percentiles are reported at whole-percent steps, rounded down so the
    # count beyond never drops under `beyond`.
    q = math.floor(q * 100) / 100
    return q * 100, percentile(values, q), n


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover.

    `spans` are dicts with id, parent, ts and dur (any time unit).  Child
    spans on other threads may overlap each other; their union counts once.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in children.get(s["id"], [])]
        out[s["id"]] = s["dur"] - union_length(kids, lo, hi)
    return out


def pooled_mean_sd(groups):
    """Mean and sample sd over groups given as (count, mean, variance)."""
    n = sum(g[0] for g in groups)
    if n == 0:
        return 0.0, 0.0, 0
    mean = sum(c * m for c, m, _ in groups) / n
    if n < 2:
        return mean, 0.0, n
    ss = sum((c - 1) * v + c * m * m for c, m, v in groups) - n * mean * mean
    return mean, math.sqrt(max(ss, 0.0) / (n - 1)), n


def reference_check(mean, sd, n, ref):
    """True when the run's mean is within REFERENCE_Z_MAX standard errors of
    the reference mean (both sides' sampling error counted)."""
    se = math.sqrt(sd * sd / n + ref["sd"] ** 2 / ref["trials"])
    if se == 0:
        return mean == ref["mean"]
    return abs(mean - ref["mean"]) <= REFERENCE_Z_MAX * se


def reference_moments(s, capped):
    """(trials, mean, variance) of the quantity a set is checked on: the
    parallel time of a run-to-silence spec, the productive steps of a
    budget-capped one (its parallel time is the budget whatever pairs
    the scheduler picks)."""
    if capped:
        return s["trials"], s["ev_mean"], s["ev_var"]
    return s["trials"], s["pt_mean"], s["pt_var"]


def ratio(num, den):
    """num / den, or 0 for a metric that does not apply to the workload
    (no faults, no spec the service can serve)."""
    return num / den if den else 0.0


def spans_from_trace(doc):
    """Flattens Chrome-trace events into span dicts."""
    out = []
    for e in doc["traceEvents"]:
        a = e["args"]
        out.append({"name": e["name"], "id": a["id"], "parent": a["parent"],
                    "ts": e["ts"], "dur": e["dur"], "spec": a["spec"],
                    "trial": a["trial"]})
    return out


def _timed_sets(raw):
    return [s for s in raw["sets"] if s["pass"] != "warm"]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run."""
    sets = raw["sets"]
    trials = sum(s["trials"] for s in sets)
    wall = sum(s["wall_s"] for s in sets)
    cpu = sum(s["cpu_s"] for s in sets)
    return {
        "trials_per_s": {"value": trials / wall, "unit": "trials/s"},
        "cpu_s_per_trial": {"value": cpu / trials, "unit": "s"},
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def correctness(raw, workload):
    """(ok, attempted, failed, list of failed check names)."""
    sets = raw["sets"]
    attempted = sum(s["trials"] for s in sets)
    failed = sum(s["failed"] for s in sets)
    problems = [name for name, ok in raw["checks"].items() if not ok]
    if failed:
        problems.append("failed_trials")
    specs = raw["specs"]
    by_spec = {}
    for s in _timed_sets(raw):
        capped = specs[s["spec"]]["budget_parallel_time"] > 0
        by_spec.setdefault(s["spec"], []).append(reference_moments(s, capped))
    for i, spec in enumerate(specs):
        mean, sd, n = pooled_mean_sd(by_spec.get(i, []))
        ref = workload["specs"][i]["reference"]
        if not reference_check(mean, sd, n, ref):
            problems.append("reference_mean:" + spec["label"])
    return not problems, attempted, failed, problems


def spec_list_matches(raw, workload):
    """The specs the harness ran agree with those recorded in workloads.json."""
    keys = ("label", "protocol", "n", "init", "scheduler",
            "budget_parallel_time", "trials")
    ran = [{k: s[k] for k in keys} for s in raw["specs"]]
    recorded = [{k: s[k] for k in keys} for s in workload["specs"]]
    return ran == recorded


def _counter(block, name):
    return block["counters"].get(name, 0)


def _sketch_mean_lower_bound(block, name):
    """Mean of a log2 sketch, each bucket b read as its lower bound
    2^(b-1) (bucket 0 holds the value 0)."""
    sk = block["sketches"].get(name)
    if not sk or not sk["count"]:
        return 0.0
    total = sum((0 if int(b) == 0 else 2 ** (int(b) - 1)) * c
                for b, c in sk["buckets"].items())
    return total / sk["count"]


def _merge_counters(blocks):
    out = {"counters": {}, "sketches": {}}
    for b in blocks:
        for k, v in b["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, sk in b.get("sketches", {}).items():
            dst = out["sketches"].setdefault(k, {"count": 0, "buckets": {}})
            dst["count"] += sk["count"]
            for bk, c in sk["buckets"].items():
                dst["buckets"][bk] = dst["buckets"].get(bk, 0) + c
    return out


def exact_counts(raw):
    """The machine-independent counts of round 0 (the only round every run
    completes), which must repeat exactly at the same seed."""
    r0 = [s for s in _timed_sets(raw) if s["round"] == 0]
    events = sum(s["events"] for s in r0)
    interactions = sum(s["interactions"] for s in r0)
    faults = sum(s["faults"] for s in r0)
    c = _merge_counters(s["counters"] for s in r0)
    trials = sum(s["trials"] for s in r0)
    tr = raw["trace"]
    return {
        "core.events_per_trial": (events / trials, "count"),
        "core.interactions_per_event": (ratio(interactions, events),
                                        "count/event"),
        "core.fenwick_updates_per_event": (
            ratio(_counter(c, "fenwick_updates"), events), "count/event"),
        "core.fenwick_depth_mean": (
            _sketch_mean_lower_bound(c, "fenwick_depth"), "nodes"),
        "schedulers.group_touches_per_event": (
            ratio(_counter(c, "group_touches"), events), "count/event"),
        "schedulers.roster_rejections_per_step": (
            ratio(_counter(c, "roster_rejections"), interactions),
            "count/step"),
        "schedulers.fault_state_touches_per_fault": (
            ratio(_counter(c, "fault_state_touches"), faults), "count/fault"),
        # Over the chunks the service served; specs it cannot serialise
        # never reach it.
        "service.warm_hit_ratio": (
            ratio(tr["warm_hits"], tr["warm_chunks"]), "ratio"),
    }


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, plus a per-spec breakdown."""
    replay_root = [s["id"] for s in spans if s["name"] == "bench.replay"]
    set_spans = [s for s in spans if s["name"] == "runner.run_trials"
                 and s["parent"] in replay_root]
    set_ids = {s["id"] for s in set_spans}
    trials = [s for s in spans if s["name"] == "runner.trial"
              and s["parent"] in set_ids]
    trial_ids = {s["id"] for s in trials}
    in_trial = [s for s in spans if s["parent"] in trial_ids]

    def durs(name):
        return [s["dur"] / 1e3 for s in in_trial if s["name"] == name]

    build, init, reset = (durs("protocols.make_protocol"),
                          durs("core.initial"), durs("core.reset"))
    loops = [s for s in in_trial if s["name"] in LOOP_SPANS]
    trial_ms = [s["dur"] / 1e3 for s in trials]
    trial_total_ms = sum(trial_ms)

    # Events and steps per spec come from the timed sets the replay rebuilt.
    label_of = [s["label"] for s in raw["specs"]]
    capped = {s["label"] for s in raw["specs"]
              if s["budget_parallel_time"] > 0}
    events = {}
    steps = {}
    for s in _timed_sets(raw):
        lab = label_of[s["spec"]]
        events[lab] = events.get(lab, 0) + s["events"]
        steps[lab] = steps.get(lab, 0) + s["interactions"]
    loop_us = {}
    for s in loops:
        loop_us[s["spec"]] = loop_us.get(s["spec"], 0.0) + s["dur"]
    silence_loop_us = sum(v for k, v in loop_us.items() if k not in capped)
    silence_events = sum(v for k, v in events.items() if k not in capped)
    # Per scheduler step on the budget-capped specs (the markov spec), whose
    # steps are not swamped by the null steps of run-to-silence specs; all
    # specs on a workload without one.
    step_specs = capped or set(label_of)
    step_loop_us = sum(v for k, v in loop_us.items() if k in step_specs)
    step_count = sum(v for k, v in steps.items() if k in step_specs)

    threads = raw["threads"]
    set_wall_ms = sum(s["dur"] for s in set_spans) / 1e3
    tail_pct, tail_ms, samples = tail_percentile(trial_ms)
    tr = raw["trace"]

    def named(name):
        return [s["dur"] / 1e3 for s in spans if s["name"] == name]

    m = {
        "protocols.build_ms": (statistics.median(build), "ms"),
        "core.init_ms": (statistics.median(init), "ms"),
        "core.reset_ms": (statistics.median(reset), "ms"),
        "core.setup_share": (
            (sum(build) + sum(init) + sum(reset)) / trial_total_ms, "ratio"),
        "core.loop_ms": (statistics.median(s["dur"] / 1e3 for s in loops),
                         "ms"),
        "core.ns_per_event": (silence_loop_us * 1e3 / silence_events, "ns"),
        "schedulers.ns_per_step": (step_loop_us * 1e3 / step_count, "ns"),
        "runner.trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "runner.trial_ms_tail": (tail_ms, "ms"),
        "runner.trial_tail_pct": (tail_pct, "%"),
        "runner.trial_samples": (samples, "count"),
        "runner.parallel_efficiency": (
            trial_total_ms / (threads * set_wall_ms), "ratio"),
        "runner.overhead_ms_per_trial": (
            (threads * set_wall_ms - trial_total_ms) / len(trials), "ms"),
        "service.cold_vs_pool": (
            ratio(tr["cold_pass_wall_s"], tr["pool_served_wall_s"]), "ratio"),
        "service.store_chunk_ms": (
            statistics.median(named("service.store_chunk")), "ms"),
        "service.load_chunk_ms": (
            statistics.median(named("service.load_chunk")), "ms"),
        "service.chunk_bytes": (statistics.mean(tr["chunk_bytes"]), "bytes"),
        "service.warm_pass_s": (tr["warm_pass_wall_s"], "s"),
        "trace.overhead_ratio": (
            tr["replay_round0_wall_s"] / tr["pool_pass_wall_s"], "ratio"),
    }
    m.update(exact_counts(raw))

    # Per-spec breakdown (side report): loop cost per productive event and
    # per scheduler step, scheduler build time, and self time per layer.
    selfs = self_times(spans)
    by_spec = {}
    for lab in label_of:
        by_spec[lab] = {
            "loop_ns_per_event": loop_us.get(lab, 0.0) * 1e3
            / max(events.get(lab, 0), 1),
            "loop_ns_per_step": loop_us.get(lab, 0.0) * 1e3
            / max(steps.get(lab, 0), 1),
        }
    for s, spec in zip(raw["specs"], by_spec.values()):
        spec["scheduler"] = s["scheduler"]
        spec["scheduler_build_ms"] = s["scheduler_build_ms"]
    self_ms = {}
    for s in spans:
        self_ms[s["name"]] = self_ms.get(s["name"], 0.0) + selfs[s["id"]] / 1e3
    return ({k: {"value": v, "unit": u} for k, (v, u) in m.items()},
            {"specs": by_spec, "self_ms": self_ms})
