"""One benchmark worker process: set up a workload, then run units.

Started by ``run.py`` with a fixed range of units (none for a process that
only measures set-up); prints one JSON object as its last stdout line.  BLAS
is pinned to one thread before numpy is first imported, and the time at
which set-up finished is reported on the system-wide monotonic clock so the
parent can measure set-up from the moment it spawned this process.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import traceback
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


class WarningCounter(logging.Handler):
    """Counts the kernels' one-warning-per-rejected-step log records."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0
        self.samples: list[str] = []

    def emit(self, record):
        self.count += 1
        if len(self.samples) < 5:
            self.samples.append(f"{record.name}: {record.getMessage()}")


def unit_seed(seed: int, unit: int) -> int:
    """The seed of unit ``unit``: child ``unit`` of SeedSequence(seed).spawn."""
    child = np.random.SeedSequence(seed, spawn_key=(unit,))
    return int(child.generate_state(1)[0])


def environment() -> dict:
    import hughop

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "hughop": hughop.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for output files")
    parser.add_argument("--first-unit", type=int, default=0)
    parser.add_argument("--units", type=int, required=True,
                        help="number of units to run; 0 measures set-up only")
    parser.add_argument("--trace", action="store_true",
                        help="run every unit a second time with tracing on")
    args = parser.parse_args(argv)

    warnings = WarningCounter()
    logging.getLogger("hughop").addHandler(warnings)
    work = Path(args.work)
    workload = WORKLOADS[args.workload]()
    workload.setup(work)
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    ready = time.monotonic()

    units, errors = [], []
    for index in range(args.first_unit, args.first_unit + args.units):
        seed = unit_seed(args.seed, index)
        out = work / f"unit{index}"
        out.mkdir()
        try:
            record = workload.run(seed, out)
            record["checks"] = workload.check(record, seed, out)
            if tracer is not None:
                # the same unit again, traced, right after the untraced run so
                # that both see the same phase of a shared host
                shutil.rmtree(out)
                out.mkdir()
                with tracer.installed():
                    traced = workload.run(seed, out, tracer.spans)
                record["checks"] += workload.check(traced, seed, out)
                record["traced_run_s"] = traced["run_s"]
                record["steps"] += traced["steps"]
        except Exception:
            errors.append(traceback.format_exc(limit=-3))
            break
        finally:
            shutil.rmtree(out)
        record.update(index=index, seed=seed)
        units.append(record)

    result = {
        "ready": ready,
        "units": units,
        "errors": errors,
        "warnings": warnings.count,
        "warning_samples": warnings.samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        counters = tracer.spans.counters
        iterations = sum(u["iterations"] for u in units)
        counted = counters["harness.run_kernels.iterations"] + counters["models.gibbs_sweep.calls"]
        if counted != iterations:
            errors.append(f"traced {counted} iterations, workload accounts for {iterations}")
        result["layers"] = layer_metrics(tracer.spans, iterations, len(units))
        result["spans"] = tracer.spans.aggregate()
        result["counters"] = dict(counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
