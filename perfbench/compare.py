"""Compare two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files hold records appended by ``run.py --out``.  Runs of one workload
and trace mode are paired in file order, so run the two commits alternately
(parent, change, change, parent, ...) with the same ``--seconds``.  For each
metric it prints each side's median and quartiles, the pairs the change won,
and a verdict:

* ``gain``: there are at least 10 pairs, the change wins at least 9 of
  every 10 (ties count for neither side), and the medians differ by more
  than the parent's interquartile distance;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound and not
  every run of the change beats every run of the parent;
* ``within bound`` otherwise.  Per-layer metrics have no bound, so they read
  ``gain``, ``loss`` (the same rule, reversed) or ``no clear change``.

The exit code is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fewer pairs than this never make a gain or a loss
MIN_PAIRS = 10
# recorded with every untraced run, declared among the per-layer metrics
INFO_METRICS = ("min_ess_x_per_s", "ess_logpi_per_s", "failed_frac")


def load(path) -> dict:
    """{(workload, trace): [metrics dict per run]} in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        metrics = dict(record["metrics"])
        if not record["trace"]:
            metrics.update({k: record["info"][k] for k in INFO_METRICS})
        runs[(record["workload"], record["trace"])].append(metrics)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    clear = len(pairs) >= MIN_PAIRS and abs(change_median - base_median) > q3 - q1
    if wins >= 0.9 * len(pairs) and clear:
        return "gain", wins, len(pairs)
    if bound is None:
        label = "loss" if losses >= 0.9 * len(pairs) and clear else "no clear change"
        return label, wins, len(pairs)
    if sign * (change_median - base_median) < -bound * abs(base_median):
        return "regression", wins, len(pairs)
    if (q3 - q1) > bound * abs(base_median) and not min(sign * c for c in change) > max(sign * b for b in base):
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="JSONL records of the parent commit")
    parser.add_argument("change", help="JSONL records of the change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_runs, change_runs = load(args.parent), load(args.change)
    regressed = False
    print(f"{'workload':14s} {'metric':40s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>7s}  verdict")
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, _ = key
        for name in base_runs[key][0]:
            meta = declared[name]
            base = [m[name] for m in base_runs[key] if name in m]
            change = [m[name] for m in change_runs[key] if name in m]
            if not base or not change:
                continue
            label, wins, pairs = verdict(base, change, meta["better"], meta.get("bound"))
            regressed |= label == "regression"
            sides = []
            for values in (base, change):
                q1, median, q3 = quartiles(values)
                sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:14s} {name:40s} {sides[0]:>34s} {sides[1]:>34s} "
                  f"{wins:>3d}/{pairs:<3d}  {label}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
