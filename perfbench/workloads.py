"""The three benchmark workloads.

A workload builds its inputs once (``setup``) and then runs units: one unit
is one call into hughop's public entry points at a seed spawned from the
workload seed.  ``run`` times only that call and returns what the parent
needs to aggregate metrics; ``check`` lists the unit's failed output checks.
``unit_s`` is the typical seconds of one untraced unit on the reference host
(README.md); ``run.py`` derives a fixed unit count from it and ``--seconds``,
so two commits run the same units at the same seeds.

Why these three (see README.md for the full rationale):

* ``lg25-plain``: the ``hughop run`` CLI path with output files; the plain
  hug hot path, and the workload on which ``metric`` is never called.
* ``lg100-hessian``: Hessian-mode hug and hop at d=100, where
  ``metric.local_covariance`` dominates.
* ``models``: grid tuning, the HMC baseline and Metropolis-within-Gibbs on
  matrix-vector targets: many short chains.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

LG25_CONFIG = {
    "target": {"target": "lg", "a": 5.0, "scales": "U", "dim": 25},
    "kernels": [
        {"kernel": "hug", "T": 1.0, "B": 10},
        {"kernel": "hop", "lambda": 4.0, "kappa": 0.5},
    ],
    "iterations": 4000,
    "burn_in": 1000,
    "record": "full",
}

# T=0.25: at T in {0.5, 1} Hessian hug accepts only 3-5% of moves at d=100.
# The chain starts from an exact draw ("auto" init), so it needs no burn-in.
LG100_CONFIG = {
    "target": {"target": "lg", "a": 5.0, "scales": "U", "dim": 100},
    "kernels": [
        {"kernel": "hug", "T": 0.25, "B": 10, "mode": "hessian"},
        {"kernel": "hop", "lambda": 4.0, "kappa": 0.5, "hessian": True},
    ],
    "iterations": 150,
    "burn_in": 0,
    "record": "logpi",
}

# Pilots dominate the models unit on purpose: every grid cell runs whatever
# the tuner picks, so the pick moves only the short final runs' cost.
MODELS_SIZES = {"pilot_iterations": 250, "iterations": 300, "sweeps": 400}
# model_runs.run_cauchit_comparison tunes 12 hug+hop cells and 9 HMC cells;
# the traced run cross-checks this against the iterations it counts.
CAUCHIT_CELLS = {"hug_hop": 12, "hmc": 9}


@contextmanager
def timed(record: dict, spans=None):
    """Time the enclosed program call into ``record["run_s"]``.

    In a traced worker the call is also the root span ``bench.unit``.
    """
    idx = spans.open("bench.unit") if spans is not None else None
    start = perf_counter()
    try:
        yield
    finally:
        record["run_s"] = perf_counter() - start
        if idx is not None:
            spans.close(idx)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _rate_problems(where: str, rates: dict) -> list[str]:
    return [
        f"{where}: acceptance {name}={rate!r} outside (0, 1]"
        for name, rate in rates.items()
        if not (_finite(rate) and 0.0 < rate <= 1.0)
    ]


def _summary_problems(where: str, summary: dict) -> list[str]:
    problems = _rate_problems(where, summary["acceptance"])
    for key in ("wall_time", "ess_logpi"):
        if not (_finite(summary[key]) and summary[key] > 0):
            problems.append(f"{where}: {key}={summary[key]!r} not finite and positive")
    if summary["ess_x"] is not None and not all(_finite(v) for v in summary["ess_x"]):
        problems.append(f"{where}: non-finite ess_x")
    return problems


def _ess_record(summary: dict) -> dict:
    return {
        "ess_x": summary["ess_x"],
        "ess_logpi": summary["ess_logpi"],
        "recorded": summary["iterations"],
        "sampling_s": summary["wall_time"],
    }


class Lg25Plain:
    """``hughop run --config ... --seed ... --out ...`` through ``cli.main``."""

    name = "lg25-plain"
    unit_s = 2.5
    kernels_per_iter = 2

    def setup(self, work: Path) -> None:
        from hughop import __version__, cli
        from hughop.harness import ExperimentConfig

        self.cli = cli
        self.version = __version__
        self.config_path = work / "lg25.json"
        self.config_path.write_text(json.dumps(LG25_CONFIG))
        config = ExperimentConfig.from_dict(LG25_CONFIG)
        config.build_kernels(config.build_target().dim)

    def run(self, seed: int, out: Path, spans=None) -> dict:
        argv = ["run", "--config", str(self.config_path), "--seed", str(seed), "--out", str(out)]
        record: dict = {}
        stdout = io.StringIO()
        with timed(record, spans), redirect_stdout(stdout):
            record["exit_code"] = self.cli.main(argv)
        record["stdout"] = stdout.getvalue()
        record["iterations"] = LG25_CONFIG["iterations"]
        record["steps"] = LG25_CONFIG["iterations"] * self.kernels_per_iter
        return record

    def check(self, record: dict, seed: int, out: Path) -> list[str]:
        """Check the CLI's JSON, ``trace.csv`` and ``results.jsonl``.

        Adds the per-component means, variances and ESS the parent pools
        for the across-chain mean check.
        """
        import numpy as np

        exit_code = record.pop("exit_code")
        if exit_code != 0:
            return [f"hughop run exited with code {exit_code}"]
        summary = json.loads(record.pop("stdout"))
        problems = _summary_problems("summary", summary)
        dim = LG25_CONFIG["target"]["dim"]
        rows = LG25_CONFIG["iterations"] - LG25_CONFIG["burn_in"]

        trace_path = out / "trace.csv"
        with trace_path.open() as handle:
            head = [handle.readline().rstrip("\n") for _ in range(3)]
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        record["trace_bytes"] = trace_path.stat().st_size
        if head[0] != f"# hughop {self.version}" or not head[1].startswith("# config: "):
            problems.append("trace.csv: missing config header")
        else:
            header_config = json.loads(head[1][len("# config: "):])
            expected = {**LG25_CONFIG, "seed": seed, "out": str(out)}
            for key, value in expected.items():
                if header_config.get(key) != value:
                    problems.append(f"trace.csv header: {key}={header_config.get(key)!r}")
        columns = head[2].split(",")
        if len(columns) != dim + 4 or data.shape != (rows, dim + 4):
            problems.append(f"trace.csv: shape {data.shape}, {len(columns)} columns")
        elif not np.all(np.isfinite(data)):
            problems.append("trace.csv: non-finite values")

        lines = (out / "results.jsonl").read_text().splitlines()
        results = [json.loads(line) for line in lines]
        if len(results) != 1 or results[0]["summary"]["iterations"] != summary["iterations"]:
            problems.append("results.jsonl: expected one record matching the CLI summary")

        if data.shape == (rows, dim + 4):
            positions = data[:, 1 : dim + 1]
            record["means"] = positions.mean(axis=0).tolist()
            record["vars"] = positions.var(axis=0, ddof=1).tolist()
        record["ess"] = _ess_record(summary)
        record["sampling_s"] = summary["wall_time"]
        record["acceptance"] = summary["acceptance"]
        return problems


class Lg100Hessian:
    """``harness.run_chain`` with Hessian hug and hop, recording log pi only."""

    name = "lg100-hessian"
    unit_s = 1.9
    kernels_per_iter = 2

    def setup(self, work: Path) -> None:
        from hughop.harness import ExperimentConfig, run_chain

        self.run_chain = run_chain
        self.config_class = ExperimentConfig
        config = ExperimentConfig.from_dict(LG100_CONFIG)
        config.build_kernels(config.build_target().dim)

    def run(self, seed: int, out: Path, spans=None) -> dict:
        record: dict = {}
        with timed(record, spans):
            trace, summary = self.run_chain(self.config_class.from_dict({**LG100_CONFIG, "seed": seed}))
        record["summary"] = summary.to_dict()
        record["finite_trace"] = bool(all(map(math.isfinite, trace.log_target)))
        record["iterations"] = LG100_CONFIG["iterations"]
        record["steps"] = LG100_CONFIG["iterations"] * self.kernels_per_iter
        return record

    def check(self, record: dict, seed: int, out: Path) -> list[str]:
        summary = record.pop("summary")
        problems = _summary_problems("summary", summary)
        if not record.pop("finite_trace"):
            problems.append("non-finite log pi in the trace")
        record["ess"] = _ess_record(summary)
        record["sampling_s"] = summary["wall_time"]
        record["acceptance"] = summary["acceptance"]
        return problems


class Models:
    """``run_cauchit_comparison`` then ``run_spatial_comparison``."""

    name = "models"
    unit_s = 4.3

    def setup(self, work: Path) -> None:
        from hughop import model_runs

        self.model_runs = model_runs

    def run(self, seed: int, out: Path, spans=None) -> dict:
        sizes = MODELS_SIZES
        record: dict = {}
        with timed(record, spans):
            cauchit = self.model_runs.run_cauchit_comparison(
                seed, iterations=sizes["iterations"], pilot_iterations=sizes["pilot_iterations"]
            )
            spatial = self.model_runs.run_spatial_comparison(seed, sweeps=sizes["sweeps"])
        record["reports"] = {"cauchit": cauchit, "spatial": spatial}
        pilots = sizes["pilot_iterations"] * sum(CAUCHIT_CELLS.values())
        record["iterations"] = pilots + 2 * sizes["iterations"] + 2 * sizes["sweeps"]
        # hug+hop sweeps take two kernel steps, HMC one; a Gibbs sweep adds
        # the theta random-walk step to its inner kernels
        record["steps"] = (
            sizes["pilot_iterations"] * (2 * CAUCHIT_CELLS["hug_hop"] + CAUCHIT_CELLS["hmc"])
            + 3 * sizes["iterations"]
            + 5 * sizes["sweeps"]
        )
        # the program reports no pilot wall times, so the unit is the sampling time
        record["sampling_s"] = record["run_s"]
        return record

    def check(self, record: dict, seed: int, out: Path) -> list[str]:
        reports = record.pop("reports")
        cauchit, spatial = reports["cauchit"], reports["spatial"]
        problems = []
        for sampler in ("hug_hop", "hmc"):
            problems += _summary_problems(f"cauchit {sampler}", cauchit[sampler])
            block = spatial[sampler]
            problems += _rate_problems(f"spatial {sampler}", block["acceptance"])
            for key, value in block.items():
                if key != "acceptance" and not _finite(value):
                    problems.append(f"spatial {sampler}: {key}={value!r} not finite")
        tuned = cauchit["tuned"]
        if set(tuned["hug_hop"]) != {"T", "B", "lam", "kappa"} or set(tuned["hmc"]) != {"L", "step"}:
            problems.append(f"cauchit: unexpected tuned cells {tuned}")
        record["tuned"] = tuned
        record["ess"] = _ess_record(cauchit["hug_hop"])
        record["acceptance"] = {
            "cauchit_hug_hop": cauchit["hug_hop"]["acceptance"],
            "cauchit_hmc": cauchit["hmc"]["acceptance"],
            "spatial_hug_hop": spatial["hug_hop"]["acceptance"],
            "spatial_hmc": spatial["hmc"]["acceptance"],
        }
        record["ess_per_1000"] = {
            "cauchit_hmc": [cauchit["hmc"]["min_ess_x_per_1000"], cauchit["hmc"]["ess_logpi_per_1000"]],
            "spatial_hug_hop": [spatial["hug_hop"]["min_ess_field_per_1000"],
                                spatial["hug_hop"]["ess_logpi_per_1000"]],
            "spatial_hmc": [spatial["hmc"]["min_ess_field_per_1000"],
                            spatial["hmc"]["ess_logpi_per_1000"]],
        }
        return problems


WORKLOADS = {w.name: w for w in (Lg25Plain, Lg100Hessian, Models)}
