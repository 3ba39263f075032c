"""Run one hughop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lg25-plain --seed 1 --seconds 30 --trace 0

A run executes a fixed number of units, ``--seconds`` over the workload's
typical unit time, so the parent and a change run the same units at the same
seeds.  ``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
measured with tracing off, in SPAWNS worker processes run one after another;
the units are shared out among them and each measures its own set-up.
``--trace 1`` prints the per-layer metrics: one worker runs every unit twice,
untraced and then traced, so the difference between the two is the tracing
overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
output check passed.  ``--out FILE`` appends the full record (every unit's
ESS, acceptance rates and tuned cells, and the environment) as one JSON line,
the input of ``compare.py`` and ``reseed.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# worker processes of an untraced run; setup_s is the median of their set-ups
SPAWNS = 9
# units pooled for the per-iteration ESS counts; every mode runs at least these
COUNT_UNITS = 2
# a traced run runs each unit untraced and traced: about this many unit times
TRACED_COST = 2.2
# a pooled component mean further than this many MC standard errors from the
# lg-U target's mean of 0 fails the run
MEAN_Z_LIMIT = 4.0


class BenchmarkError(Exception):
    """The benchmark could not run at all (as opposed to a failed check)."""


def spawn_worker(args, work: Path, deadline: float, **options) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to ready, worker result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--work", str(work)]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def pooled_ess(units: list[dict]) -> dict:
    """ESS summed over chains: min over components, and of log pi.

    Per second divides by the chains' summed sampling time, per 1000 by their
    summed recorded iterations.
    """
    ess = [u["ess"] for u in units if "ess" in u]
    seconds = sum(e["sampling_s"] for e in ess)
    recorded = sum(e["recorded"] for e in ess)
    logpi = sum(e["ess_logpi"] for e in ess)
    min_x = 0.0
    if ess and all(e["ess_x"] is not None for e in ess):
        min_x = min(map(sum, zip(*(e["ess_x"] for e in ess))))
    return {
        "min_ess_x_per_s": min_x / seconds if seconds else 0.0,
        "ess_logpi_per_s": logpi / seconds if seconds else 0.0,
        "min_ess_x_per_1000": 1000.0 * min_x / recorded if recorded else 0.0,
        "ess_logpi_per_1000": 1000.0 * logpi / recorded if recorded else 0.0,
    }


def mean_check(units: list[dict]) -> list[str]:
    """lg-U is symmetric about 0: each component mean pooled over the chains
    must lie within MEAN_Z_LIMIT Monte Carlo standard errors of 0."""
    chains = [u for u in units if "means" in u]
    if not chains:
        return []
    total = sum(u["ess"]["recorded"] for u in chains)
    problems = []
    for j in range(len(chains[0]["means"])):
        mean = sum(u["ess"]["recorded"] * u["means"][j] for u in chains) / total
        var = sum((u["ess"]["recorded"] / total) ** 2 * u["vars"][j] / u["ess"]["ess_x"][j]
                  for u in chains)
        if abs(mean) > MEAN_Z_LIMIT * math.sqrt(var):
            problems.append(f"x{j + 1}: pooled mean {mean:.4g} is {abs(mean) / math.sqrt(var):.1f}"
                            " MC standard errors from 0")
    return problems


def unit_count(args) -> int:
    per_unit = WORKLOADS[args.workload].unit_s * (TRACED_COST if args.trace else 1.0)
    return max(COUNT_UNITS, round(args.seconds / per_unit))


def measure(args, work: Path) -> dict:
    """Run the workers of one benchmark run and collect their results."""
    units = unit_count(args)
    # twice the nominal run time, plus the workers' set-ups
    deadline = time.monotonic() + 2.0 * args.seconds + 60.0
    if args.trace:
        setup, result = spawn_worker(args, work, deadline, units=units, trace=True)
        return {"setups": [setup], "workers": [result]}
    setups, workers = [], []
    # spread the units evenly, so the set-ups sample the whole run
    bounds = [i * units // SPAWNS for i in range(SPAWNS + 1)]
    for first, end in zip(bounds, bounds[1:]):
        setup, result = spawn_worker(args, work, deadline, first_unit=first, units=end - first)
        setups.append(setup)
        workers.append(result)
        if result["errors"]:
            break
    return {"setups": setups, "workers": workers}


def summarize(args, raw: dict) -> dict:
    workers = raw["workers"]
    units = [u for w in workers for u in w["units"]]
    problems = [e for w in workers for e in w["errors"]]
    problems += [f"unit {u['index']}: {c}" for u in units for c in u["checks"]]
    problems += mean_check(units)
    warnings = sum(w["warnings"] for w in workers)
    attempted = sum(u["steps"] for u in units)
    failed = warnings + len(problems)

    ess = pooled_ess(units)
    counted = pooled_ess(sorted(units, key=lambda u: u["index"])[:COUNT_UNITS])
    info = {
        "setups_s": raw["setups"],
        "run_s": [u["run_s"] for u in units],
        "units": [{k: u.get(k) for k in ("index", "seed", "run_s", "sampling_s", "acceptance",
                                         "ess", "tuned", "ess_per_1000", "trace_bytes")}
                  for u in units],
        "min_ess_x_per_s": ess["min_ess_x_per_s"],
        "ess_logpi_per_s": ess["ess_logpi_per_s"],
        "min_ess_x_per_1000": counted["min_ess_x_per_1000"],
        "ess_logpi_per_1000": counted["ess_logpi_per_1000"],
        "failed_frac": failed / attempted if attempted else 1.0,
        "warnings": warnings,
        "warning_samples": [s for w in workers for s in w["warning_samples"]][:5],
        "problems": problems[:20],
    }
    if args.trace:
        traced = workers[0]
        info["spans"] = traced["spans"]
        untraced_s = sum(u["run_s"] for u in units)
        traced_s = sum(u["traced_run_s"] for u in units)
        metrics = dict(traced["layers"])
        metrics.update({
            "harness.trace_bytes": statistics.median(
                [u.get("trace_bytes", 0) for u in units] or [0]),
            "diagnostics.min_ess_x_per_1000": info["min_ess_x_per_1000"],
            "diagnostics.ess_logpi_per_1000": info["ess_logpi_per_1000"],
            "min_ess_x_per_s": info["min_ess_x_per_s"],
            "ess_logpi_per_s": info["ess_logpi_per_s"],
            "failed_frac": info["failed_frac"],
            "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
        })
    else:
        # Unit times on a shared host are bimodal (fast and slow phases of a
        # few seconds), so a median over units flips between the two modes;
        # totals over all units vary less from run to run.
        sampled = [u for u in units if u.get("sampling_s")]
        sampling = sum(u["sampling_s"] for u in sampled)
        metrics = {
            "setup_s": statistics.median(raw["setups"]),
            "run_s": statistics.fmean(info["run_s"]) if units else 0.0,
            "iters_per_s": sum(u["iterations"] for u in sampled) / sampling if sampling else 0.0,
            "peak_rss_mb": statistics.median(
                [w["rss_mb"] for w in workers if w["units"]] or [0.0]),
        }
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "env": workers[0]["env"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal seconds of timed units in one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "hughop" / "__init__.py").is_file():
        print(f"error: no hughop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        record = summarize(args, measure(args, work))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, source=source_digest(), commit=git_commit())
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        for name, unit in (("min_ess_x_per_s", "1/s"), ("ess_logpi_per_s", "1/s"),
                           ("min_ess_x_per_1000", "per_1000"), ("ess_logpi_per_1000", "per_1000"),
                           ("failed_frac", "frac")):
            print(f"{name:42s} {record['info'][name]:>14.6g} {unit}  (not gated)")
        for unit in record["info"]["units"]:
            if unit["tuned"]:
                print(f"tuned cells of unit {unit['index']}: {json.dumps(unit['tuned'], sort_keys=True)}")
    for problem in record["info"]["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
