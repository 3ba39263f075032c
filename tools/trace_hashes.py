"""SHA-256 manifest of short traces of every shipped kernel, mode and guard.

A refactor that leaves the arithmetic unchanged must leave every trace
byte-identical for the same config and seed.  This script runs a fixed set
of short chains, hashes the recorded log-density, positions and accept
flags of each, hashes the reports and dataset files of three small model
comparisons with their timing fields dropped, and writes or checks a JSON
manifest of the hashes together with the environment they were computed in
(Python, numpy, scipy, BLAS).
Hashes are only comparable within one environment; ``--check`` reports a
differing environment next to any mismatch.

Usage, from the repository root::

    python tools/trace_hashes.py --check          # compare against the manifest
    python tools/trace_hashes.py --write          # regenerate the manifest

A change that alters floating-point order regenerates the manifest and says
so in CHANGES.md.  BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hughop.baselines import HmcKernel, HmcParams  # noqa: E402
from hughop.harness import ExperimentConfig, run_chain, run_kernels  # noqa: E402
from hughop.hop import HopKernel, HopParams  # noqa: E402
from hughop.hug import HugKernel, HugParams  # noqa: E402
from hughop.model_runs import (  # noqa: E402
    run_cauchit_comparison,
    run_gibbs,
    run_rasch_comparison,
    run_spatial_comparison,
)
from hughop.models import (  # noqa: E402
    CauchitPosterior,
    RaschPosterior,
    SpatialProbitModel,
    simulate_cauchit,
    simulate_rasch,
    simulate_spatial,
)

MANIFEST = Path(__file__).with_name("trace_hashes.json")

# the lg25-plain workload's chain (perfbench/workloads.py: LG25_CONFIG)
LG25_PLAIN = {
    "target": {"target": "lg", "a": 5.0, "scales": "U", "dim": 25},
    "kernels": [
        {"kernel": "hug", "T": 1.0, "B": 10},
        {"kernel": "hop", "lambda": 4.0, "kappa": 0.5},
    ],
    "iterations": 4000,
    "burn_in": 1000,
    "record": "full",
}

# the lg100-hessian workload's chain (perfbench/workloads.py: LG100_CONFIG),
# recording positions too so that they are hashed
LG100_HESSIAN = {
    "target": {"target": "lg", "a": 5.0, "scales": "U", "dim": 100},
    "kernels": [
        {"kernel": "hug", "T": 0.25, "B": 10, "mode": "hessian"},
        {"kernel": "hop", "lambda": 4.0, "kappa": 0.5, "hessian": True},
    ],
    "iterations": 150,
    "burn_in": 0,
    "record": "full",
}

LG5 = {"target": "lg", "a": 2.0, "scales": "L", "dim": 5}
GAUSS25L = {"target": "gauss", "scales": "L", "dim": 25}
QG25L = {"target": "qg", "scales": "L", "dim": 25}

BANANA = {"target": "banana", "dim": 4, "scales": [1.0, 0.5, 1.0, 2.0]}
PRECOND = [[1.0, 0.3, 0.0, 0.0, 0.0],
           [0.3, 2.0, 0.1, 0.0, 0.0],
           [0.0, 0.1, 1.5, 0.0, 0.0],
           [0.0, 0.0, 0.0, 3.0, 0.2],
           [0.0, 0.0, 0.0, 0.2, 4.0]]
PRECOND_DIAG = [1.0, 2.0, 1.5, 3.0, 4.0]  # the diagonal of PRECOND, given as a vector


def _chain(target: dict, kernels: list, iterations: int = 400) -> dict:
    return {"target": target, "kernels": kernels, "iterations": iterations, "record": "full"}


def _hessian_hug_hop(total_time: float, lam: float) -> list:
    return [{"kernel": "hug", "T": total_time, "B": 5, "mode": "hessian"},
            {"kernel": "hop", "lambda": lam, "kappa": 0.5, "hessian": True}]


# name -> (config, seed); every kernel, hug mode and velocity, hop guard and
# metric, RWM covariance (a matrix or a vector), HMC mass (a vector or a
# matrix), and every diagonal-Hessian target
CHAINS = {
    **{f"lg25-plain/seed{s}": (LG25_PLAIN, s) for s in (1, 2, 3)},
    "lg100-hessian/seed1": (LG100_HESSIAN, 1),
    "hug-hessian+hop-hessian/gauss25L": (_chain(GAUSS25L, _hessian_hug_hop(1.0, 2.0)), 23),
    "hug-hessian+hop-hessian/qg25L": (_chain(QG25L, _hessian_hug_hop(0.1, 1.0)), 24),
    "rwm-hessian/qg25L": (_chain(QG25L, [{"kernel": "rwm", "step_scale": 0.1,
                                          "local_cov": "hessian"}]), 25),
    "hug-plain+hop-plus1/lg5": (_chain(LG5, [{"kernel": "hug", "T": 1.0, "B": 5},
                                              {"kernel": "hop", "lambda": 1.5, "kappa": 0.5}]), 11),
    "hop-raw/lg5": (_chain(LG5, [{"kernel": "hop", "lambda": 1.5, "kappa": 1.0, "guard": "raw"}]), 12),
    "hug-precond+hop/lg5": (_chain(LG5, [{"kernel": "hug", "T": 1.0, "B": 5, "mode": "precond",
                                          "precond_cov": PRECOND},
                                         {"kernel": "hop", "lambda": 1.5, "kappa": 0.5}]), 13),
    "hug-hessian+hop-hessian/lg5": (_chain(LG5, [{"kernel": "hug", "T": 0.5, "B": 5, "mode": "hessian"},
                                                 {"kernel": "hop", "lambda": 1.5, "kappa": 0.5,
                                                  "hessian": True}]), 14),
    "hug-hessian+hop-hessian/banana": (_chain(BANANA, [{"kernel": "hug", "T": 0.5, "B": 5,
                                                        "mode": "hessian"},
                                                       {"kernel": "hop", "lambda": 1.0, "kappa": 0.5,
                                                        "hessian": True}]), 15),
    "hug-hessian-isotropic/banana": (_chain(BANANA, [{"kernel": "hug", "T": 0.5, "B": 5,
                                                      "mode": "hessian", "velocity": "isotropic"}]), 16),
    "rwm-none+mala/lg5": (_chain(LG5, [{"kernel": "rwm", "step_scale": 0.8},
                                       {"kernel": "mala", "step_scale": 0.6}]), 17),
    "rwm-fixed/lg5": (_chain(LG5, [{"kernel": "rwm", "step_scale": 0.8, "local_cov": "fixed",
                                    "cov": PRECOND}]), 18),
    "hug-precond-diag+hop/lg5": (_chain(LG5, [{"kernel": "hug", "T": 1.0, "B": 5,
                                               "mode": "precond", "precond_cov": PRECOND_DIAG},
                                              {"kernel": "hop", "lambda": 1.5, "kappa": 0.5}]), 27),
    "rwm-fixed-diag/lg5": (_chain(LG5, [{"kernel": "rwm", "step_scale": 0.8, "local_cov": "fixed",
                                         "cov": PRECOND_DIAG}]), 28),
    "rwm-hessian/banana": (_chain(BANANA, [{"kernel": "rwm", "step_scale": 0.8,
                                           "local_cov": "hessian"}]), 19),
    "hmc-identity/lg5": (_chain(LG5, [{"kernel": "hmc", "L": 8, "step_size": 0.2}]), 20),
    "hmc-diag-mass/lg5": (_chain(LG5, [{"kernel": "hmc", "L": 8, "step_size": 0.2,
                                        "mass_matrix": [1.0, 0.5, 2.0, 1.5, 0.8]}]), 21),
    "hmc-full-mass/lg5": (_chain(LG5, [{"kernel": "hmc", "L": 8, "step_size": 0.2,
                                        "mass_matrix": PRECOND}]), 22),
    # three Hessian kernels whose floors differ (hug) or agree (hop, RWM);
    # at eps=0.05 hug's metric is regularised where the others' is not
    "hug-hessian-eps0.05+hop-hessian+rwm-hessian/lg5": (
        _chain(LG5, [{"kernel": "hug", "T": 0.5, "B": 5, "mode": "hessian", "eps": 0.05},
                     {"kernel": "hop", "lambda": 1.5, "kappa": 0.5, "hessian": True,
                      "eps": 1e-6},
                     {"kernel": "rwm", "step_scale": 0.8, "local_cov": "hessian"}]), 26),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _chain_hash(raw: dict, seed: int) -> str:
    trace, _ = run_chain(ExperimentConfig.from_dict({**raw, "seed": seed}))
    accepts = [trace.accept[label] for label in sorted(trace.accept)]
    return _digest(trace.log_target, trace.positions, *accepts)


def _gibbs_hashes() -> dict:
    seeds = np.random.SeedSequence(2024).spawn(3)
    data = simulate_spatial(4, 4, float(np.log(2.0)), float(np.log(0.2)), 1.0,
                            np.random.default_rng(seeds[0]))
    model = SpatialProbitModel(data)
    inner = {
        "gibbs-hug+hop/spatial4x4": [HugKernel(HugParams(total_time=1.0, n_bounces=10)),
                                     HopKernel(HopParams(lam=9.0, kappa=0.6))],
        "gibbs-hmc/spatial4x4": [HmcKernel(HmcParams(n_steps=9, step_size=0.12))],
    }
    hashes = {}
    for (name, kernels), seed in zip(inner.items(), seeds[1:]):
        trace, _, _ = run_gibbs(model, kernels, 200, np.random.default_rng(seed), burn_in=100)
        accepts = [trace.accept[key] for key in sorted(trace.accept)]
        # the manifest hashes the field's bytes, then theta's
        field, theta = np.hsplit(trace.positions, [model.field_dim])
        hashes[name] = _digest(trace.log_target, field, theta, *accepts)
    return hashes


def _model_hashes() -> dict:
    """Chains on the cauchit (d=10) and Rasch (d=4+8) posteriors; the Hessian
    chain on the cauchit carries dense ``eigh`` metrics."""
    seeds = np.random.SeedSequence(2025).spawn(6)
    cauchit = CauchitPosterior(simulate_cauchit(200, 10, 1.0, np.random.default_rng(seeds[0])))
    rasch = RaschPosterior(simulate_rasch(5, 8, 1.0, np.random.default_rng(seeds[1])))
    chains = {
        "hug+hop/cauchit": (cauchit, [HugKernel(HugParams(total_time=0.5, n_bounces=5)),
                                      HopKernel(HopParams(lam=1.0, kappa=0.5))]),
        "hmc/cauchit": (cauchit, [HmcKernel(HmcParams(n_steps=10, step_size=0.06))]),
        "hug+hop/rasch": (rasch, [HugKernel(HugParams(total_time=1.0, n_bounces=5)),
                                  HopKernel(HopParams(lam=1.5, kappa=0.5))]),
        "hug-hessian+hop-hessian/cauchit": (
            cauchit, [HugKernel(HugParams(total_time=0.5, n_bounces=5, mode="hessian")),
                      HopKernel(HopParams(lam=1.0, kappa=0.5, use_hessian=True))]),
    }
    hashes = {}
    for (name, (target, kernels)), seed in zip(chains.items(), seeds[2:]):
        trace, _ = run_kernels(target, kernels, 300, np.random.default_rng(seed))
        accepts = [trace.accept[label] for label in sorted(trace.accept)]
        hashes[name] = _digest(trace.log_target, trace.positions, *accepts)
    return hashes


# name -> a model comparison, small: 250-iteration pilots, 300-iteration
# finals, and a 4x4 spatial grid
REPORTS = {
    "report/cauchit": lambda out: run_cauchit_comparison(
        seed=1, iterations=300, out_dir=out, n_obs=100, n_pred=5, pilot_iterations=250),
    "report/rasch": lambda out: run_rasch_comparison(
        seed=2, iterations=300, out_dir=out, n_questions=5, n_subjects=20, pilot_iterations=250),
    "report/spatial4x4": lambda out: run_spatial_comparison(
        seed=3, sweeps=300, out_dir=out, n_rows=4, n_cols=4),
}


TIMED_LINE = re.compile(rb'"(wall_time|\w+_per_sec)":')


def _untimed(value):
    """``value`` without its wall-clock fields (``wall_time``, ``*_per_sec``)."""
    if isinstance(value, dict):
        return {key: _untimed(item) for key, item in value.items()
                if key != "wall_time" and not key.endswith("_per_sec")}
    return value


def _report_hashes() -> dict:
    """The model comparisons' returned reports, their report files and their
    dataset files, with the timing fields dropped: from the returned report
    by key, from the files line by line (the report is written one key a
    line)."""
    hashes = {}
    for name, run in REPORTS.items():
        with tempfile.TemporaryDirectory() as out:
            report = run(out)
            h = hashlib.sha256(json.dumps(_untimed(report), sort_keys=True, default=str).encode())
            for path in sorted(Path(out).rglob("*")):
                if path.is_file():
                    lines = [line for line in path.read_bytes().splitlines()
                             if not TIMED_LINE.search(line)]
                    h.update(str(path.relative_to(out)).encode() + b"\0" + b"\n".join(lines))
        hashes[name] = h.hexdigest()
    return hashes


def compute_hashes() -> dict:
    hashes = {name: _chain_hash(raw, seed) for name, (raw, seed) in CHAINS.items()}
    hashes.update(_gibbs_hashes())
    hashes.update(_model_hashes())
    hashes.update(_report_hashes())
    return hashes


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare against the manifest")
    mode.add_argument("--write", action="store_true", help="regenerate the manifest")
    args = parser.parse_args(argv)
    logging.disable(logging.WARNING)  # the kernels' per-rejection warnings

    current = {"environment": environment(), "traces": compute_hashes()}
    if args.write:
        MANIFEST.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(current['traces'])} trace hashes to {MANIFEST}")
        return 0

    recorded = json.loads(MANIFEST.read_text())
    names = sorted(set(recorded["traces"]) | set(current["traces"]))
    mismatched = [n for n in names if recorded["traces"].get(n) != current["traces"].get(n)]
    for name in names:
        status = "MISMATCH" if name in mismatched else "ok"
        print(f"{status:8s} {name}")
    if mismatched and recorded["environment"] != current["environment"]:
        print(f"environment differs: manifest {recorded['environment']}, "
              f"here {current['environment']}")
    print(f"{len(names) - len(mismatched)}/{len(names)} traces identical")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
