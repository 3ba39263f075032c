"""Reseed check: run every workload at several seeds and report the spread.

    python3 perfbench/reseed.py --out perfbench/reseed

It runs every workload of BENCHMARK.json at seeds FIRST_SEED to
FIRST_SEED + SEEDS - 1, for run_seconds each.  For each workload and
end-to-end metric it reports the median, the quartiles, and the
interquartile distance as a share of the median next to the metric's bound.
The same spread is reported for the ESS-per-second metrics
(``min_ess_x_per_s``, ``ess_logpi_per_s``) next to the largest bound a gated
metric may have; they are not gated (see README.md).  Also reported:
the deterministic per-1000-iteration ESS counts and, on ``models``, the tuned
cells of every seed, so that a later change can tell a re-realised chain
from slower code.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import quartiles  # noqa: E402

FIRST_SEED = 1000
SEEDS = 10
ESS_METRICS = ("min_ess_x_per_s", "ess_logpi_per_s")
MAX_BOUND = 0.25


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / median if median else float("inf"),
        "range_frac": (max(values) - min(values)) / median if median else float("inf"),
    }


def summarize(records: list[dict], spec: dict) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        if len(runs) < 2:
            continue
        entry = {"seeds": [r["seed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "metrics": {}, "ess": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            s = spread(values)
            s.update(values=values, bound=bound, within_bound=s["iqr_frac"] <= bound,
                     within_third=s["iqr_frac"] <= bound / 3)
            entry["metrics"][name] = s
        for name in ESS_METRICS:
            values = [r["info"][name] for r in runs]
            if all(values):
                s = spread(values)
                s.update(values=values, bound=MAX_BOUND, within_bound=s["iqr_frac"] <= MAX_BOUND,
                         within_third=s["iqr_frac"] <= MAX_BOUND / 3)
                entry["ess"][name] = s
        entry["ess_per_1000"] = [
            [r["info"]["min_ess_x_per_1000"], r["info"]["ess_logpi_per_1000"]] for r in runs]
        tuned = [[u["tuned"] for u in r["info"]["units"]] for r in runs]
        if any(t for cells in tuned for t in cells):
            entry["tuned"] = tuned
        out[workload] = entry
    return out


def markdown(summary: dict) -> str:
    lines = ["| workload | metric | median | q1 | q3 | IQR/median | bound | within bound | within bound/3 |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    yes = {True: "yes", False: "NO"}
    for workload, entry in summary.items():
        for name, s in entry["metrics"].items():
            lines.append(f"| {workload} | {name} | {s['median']:.5g} | {s['q1']:.5g} | "
                         f"{s['q3']:.5g} | {s['iqr_frac']:.3f} | {s['bound']} | "
                         f"{yes[s['within_bound']]} | {yes[s['within_third']]} |")
        for name, s in entry["ess"].items():
            lines.append(f"| {workload} | {name} (demoted) | {s['median']:.5g} | {s['q1']:.5g} | "
                         f"{s['q3']:.5g} | {s['iqr_frac']:.3f} | {s['bound']} (largest allowed) | "
                         f"{yes[s['within_bound']]} | {yes[s['within_third']]} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for runs.jsonl and the summary")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.jsonl"
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
                   "--out", str(runs_path)]
            began = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} in "
                  f"{time.monotonic() - began:.1f} s {last[0]}", flush=True)
            status |= proc.returncode != 0

    records = [json.loads(line) for line in runs_path.read_text().splitlines()]
    summary = summarize(records, spec)
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    table = markdown(summary)
    (out / "summary.md").write_text(table)
    print(table)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
