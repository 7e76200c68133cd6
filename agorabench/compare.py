#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit with runs of a change.

    python3 agorabench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py
(`<workload>-seed<n>-trace<t>.json`, normally a copy of `.bench_results/`
after running both sides with the same seeds and settings). Prints one
row per workload x metric: each side's median and quartiles, the change
of the median, and a verdict:

  better      the change wins at least 9 of 10 seed-paired runs (ties
              count for neither) and the medians differ by more than
              the parent's own spread (its interquartile distance)
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics,
              which have no bound: loses 9 of 10 pairs by more than the
              parent's spread)
  unresolved  the run-to-run spread is wider than the bound and the
              change does not read better than the parent on every run
  same        none of the above

Exits 1 when any end-to-end metric is worse or unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: metrics}} from a directory of results."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        d = json.loads(path.read_text())
        runs.setdefault((d["workload"], d["trace"]), {})[d["seed"]] = d["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    """parent/change: values paired by index (same seeds)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_lo, p_med, p_hi = quartiles(parent)
    c_lo, c_med, c_hi = quartiles(change)
    gap = abs(c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_hi - p_lo:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gap > p_hi - p_lo:
            return "worse"
        return "same"
    spread = max((p_hi - p_lo) / p_med if p_med else 0.0,
                 (c_hi - c_lo) / c_med if c_med else 0.0)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m.get("bound"), 0)
               for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m["better"], None, 1) for m in spec["per_layer"]})
    parent, change = load(argv[1]), load(argv[2])
    failing = False
    print(f"{'workload':12s} {'metric':36s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'delta':>8s} {'pairs':>5s} verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        for name, (better, bound, mtrace) in metrics.items():
            if mtrace != trace:
                continue
            p = [parent[key][s][name]["value"] for s in seeds
                 if name in parent[key][s]]
            c = [change[key][s][name]["value"] for s in seeds
                 if name in change[key][s]]
            if not p or len(p) != len(c):
                continue
            v = verdict(p, c, better, bound)
            failing |= bound is not None and v in ("worse", "unresolved")
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:12s} {name:36s} {fmt(pq):>32s} {fmt(cq):>32s} "
                  f"{delta:+8.1%} {len(p):5d} {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
