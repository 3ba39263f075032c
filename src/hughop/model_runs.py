"""Desk-scale sampler comparisons on the three statistical models.

Each runner simulates a dataset, grid-tunes a hug/hop pair and an HMC
baseline on short pilots, runs both at full length, and reports per-kernel
acceptance rates plus ESS per iteration and per second.  The spatial model
runs under Metropolis-within-Gibbs with the field block handled by either
sampler and the covariance parameters by an adaptively scaled random walk.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .baselines import HmcKernel, HmcParams
from .diagnostics import RunSummary, Trace, min_finite, summarize_run
from .diagnostics import ess  # noqa: F401  (benchmark tracers patch model_runs.ess by name)
from .harness import _record_sweeps, grid_cells, run_kernels, tune_cells
from .hop import HopKernel, HopParams
from .hug import HugKernel, HugParams
from .models import (
    CauchitPosterior,
    GibbsSampler,
    RaschPosterior,
    SpatialProbitModel,
    save_dataset,
    simulate_cauchit,
    simulate_rasch,
    simulate_spatial,
)

__all__ = [
    "tune_kernels",
    "run_cauchit_comparison",
    "run_rasch_comparison",
    "run_spatial_comparison",
    "run_gibbs",
]


def _hug_hop(cell: dict) -> list:
    return [
        HugKernel(HugParams(total_time=cell["T"], n_bounces=cell["B"])),
        HopKernel(HopParams(lam=cell["lam"], kappa=cell["kappa"])),
    ]


def _hmc(cell: dict) -> list:
    return [HmcKernel(HmcParams(n_steps=cell["L"], step_size=cell["step"]))]


def tune_kernels(target, kernel_factory, grid: dict, pilot_iterations: int, seed):
    """Grid-tune a kernel list on a built target with ``harness.tune_cells``.

    ``grid`` maps parameter names to value lists; ``kernel_factory`` turns
    one cell dict into a kernel list.  Each cell's pilot runs
    ``pilot_iterations`` sweeps from zero, a fifth of them discarded as
    burn-in, on a stream spawned from ``seed`` (an int or a
    ``SeedSequence``).  Cells score ``"ess_per_iteration"``, the compromise
    sqrt(min ESS(X) * ESS(log pi)) per 1000 iterations.  ``tune_cells``
    documents the pick and its 5% rule for sizing ``pilot_iterations``.
    Returns a ``TuneResult``; when every cell is degenerate it raises
    ``ConfigError`` for ``"grid"``.
    """
    cells = grid_cells(grid)

    def run_pilot(i, cell_seed):
        _, summary = run_kernels(
            target,
            kernel_factory(cells[i]),
            iterations=pilot_iterations,
            rng=np.random.default_rng(cell_seed),
            burn_in=pilot_iterations // 5,
            init="zero",
        )
        return summary

    return tune_cells(cells, run_pilot, seed, "ess_per_iteration")


def _final_run(target, kernels, iterations: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    _, summary = run_kernels(
        target,
        kernels,
        iterations=iterations,
        rng=rng,
        burn_in=iterations // 2,
        init="zero",
    )
    return summary.to_dict()


def _write_outputs(out_dir, model: str, data, seed: int, report: dict) -> None:
    """Write the dataset and ``<model>_report.json`` under ``out_dir``, if given."""
    if out_dir is not None:
        save_dataset(data, Path(out_dir) / "dataset", seed=seed)
        text = json.dumps(report, indent=2, sort_keys=True, default=str)
        (Path(out_dir) / f"{model}_report.json").write_text(text)


def _compare_on_posterior(
    model, simulate, posterior, sizes, hh_grid, hmc_grid, seed, iterations, out_dir, pilots
) -> dict:
    """Tune hug+hop and HMC on the ``posterior`` of ``simulate(rng)``'s dataset
    with ``pilots``-iteration pilots over their grids, then run and report both."""
    iterations = iterations or 50_000
    seeds = np.random.SeedSequence(seed).spawn(5)
    data = simulate(np.random.default_rng(seeds[0]))
    target = posterior(data)
    hh_best = tune_kernels(target, _hug_hop, hh_grid, pilots, seeds[1]).best
    hmc_best = tune_kernels(target, _hmc, hmc_grid, pilots, seeds[2]).best

    report = {
        "model": model,
        "sizes": {**sizes, "dim": target.dim},
        "tuned": {"hug_hop": hh_best, "hmc": hmc_best},
        "hug_hop": _final_run(target, _hug_hop(hh_best), iterations, seeds[3]),
        "hmc": _final_run(target, _hmc(hmc_best), iterations, seeds[4]),
    }
    _write_outputs(out_dir, model, data, seed, report)
    return report


def run_cauchit_comparison(
    seed: int = 0,
    iterations: int | None = None,
    out_dir=None,
    n_obs: int = 500,
    n_pred: int = 10,
    tau: float = 1.0,
    pilot_iterations: int = 20_000,
) -> dict:
    """Hug-and-hop vs HMC on a simulated cauchit regression posterior.

    Both samplers are tuned by ``tune_kernels``, which runs the harness
    grid tuner on this target, with the same ``pilot_iterations``, sized by
    its 5% rule.  When this default was set (commit 9b1b461), at seed 2109
    and 6,000 iterations the hug+hop cells spread by 4.5-14%, as much as
    the leading cells differ, and the tuner picked the cell that ranked
    11th of 12 on the 50,000-iteration objective.  At 20,000 the four
    leading cells spread by 4.4-6.4%; the tuner put them on top, 11% clear
    of the rest, and picked the 3rd.  The spread falls more slowly than
    1/sqrt(n); most of it comes from the ESS(log pi) estimate.  HMC's best
    cell led its grid by 26% on the 50,000-iteration objective and was
    picked at either length.  The ranks were not measured again after later
    changes to floating-point order; at 20,000 the tuner now picks T=1,
    B=20, lam=10 for hug+hop and L=10, step 0.06 for HMC.
    """
    hh_grid = {
        "T": [0.5, 1.0],
        "B": [5, 10, 20],
        "lam": [6.0, 10.0],
        "kappa": [0.5],
    }
    hmc_grid = {"L": [3, 6, 10], "step": [0.06, 0.1, 0.15]}
    return _compare_on_posterior(
        "cauchit", lambda rng: simulate_cauchit(n_obs, n_pred, tau, rng), CauchitPosterior,
        {"n_obs": n_obs, "n_pred": n_pred}, hh_grid, hmc_grid,
        seed, iterations, out_dir, pilot_iterations,
    )


def run_rasch_comparison(
    seed: int = 0,
    iterations: int | None = None,
    out_dir=None,
    n_questions: int = 10,
    n_subjects: int = 100,
    tau: float = 1.0,
    pilot_iterations: int = 40_000,
) -> dict:
    """Hug-and-hop vs HMC on a simulated item-response posterior.

    Both samplers are tuned by ``tune_kernels``, which runs the harness
    grid tuner on this target, with the same ``pilot_iterations``, sized by
    its 5% rule.  At seed 0 and 4,000 iterations the leading hug+hop cells (T=1.2, B=8)
    spread by 13-20%, more than the 7-13% by which they differ on the
    50,000-iteration objective, and the leading HMC cells by 12-13%, which
    let the tuner pick the HMC cell 18% short of the best.  The spread
    falls as 1/sqrt(n) here: at 40,000 iterations it is 4.7-5.7% for
    hug+hop and 3.5-4.5% for HMC.
    """
    hh_grid = {
        "T": [0.3, 0.6, 1.2],
        "B": [5, 8],
        "lam": [6.0, 12.0, 20.0],
        "kappa": [0.5],
    }
    hmc_grid = {"L": [5, 8], "step": [0.05, 0.1, 0.2]}
    return _compare_on_posterior(
        "rasch", lambda rng: simulate_rasch(n_questions, n_subjects, tau, rng), RaschPosterior,
        {"n_questions": n_questions, "n_subjects": n_subjects}, hh_grid, hmc_grid,
        seed, iterations, out_dir, pilot_iterations,
    )


def run_gibbs(
    model: SpatialProbitModel,
    inner_kernels,
    sweeps: int,
    rng: np.random.Generator,
    burn_in: int = 0,
    rwm_scale: float = 0.3,
) -> tuple[Trace, RunSummary, float]:
    """Run the Metropolis-within-Gibbs chain through ``run_kernels``' sweep loop.

    During burn-in the theta random-walk scale adapts on a decaying schedule
    towards an acceptance rate of 0.4, then freezes.  Returns the ``Trace``,
    its ``summarize_run`` summary and the frozen scale.  Positions are the
    whitened field then theta; ``log_target`` is the joint log-density, and
    ``accept`` has one flag array per entry of ``GibbsSampler.labels``.
    """
    sampler = GibbsSampler(model, inner_kernels, rwm_scale=rwm_scale)

    def sweep(it, state):
        state, info = sampler.step(state, rng)
        if it < burn_in and sampler.rwm_scale > 0:
            # Robbins-Monro on the log scale towards the target rate
            step = 0.5 / (1.0 + it) ** 0.6
            sampler.rwm_scale *= float(np.exp(step * (float(info["theta_rwm"]) - 0.4)))
        return state, info.values()

    def observe(state):
        field, theta = state.field_state, state.theta
        return field.logp + model.theta_log_prior(theta), np.concatenate((field.position, theta))

    trace = _record_sweeps(
        sweep, observe, sampler.init_state(), model.total_dim, sampler.labels, sweeps, burn_in
    )
    return trace, summarize_run(trace), sampler.rwm_scale


def _gibbs_block(summary: RunSummary, field_dim: int, rwm_scale: float) -> dict:
    """A spatial report block: ``summary`` with ESS(X) split into the field
    (the first ``field_dim`` components) and theta."""
    min_field = min_finite(summary.ess_x[:field_dim])
    min_theta = min_finite(summary.ess_x[field_dim:])
    return {
        "acceptance": summary.acceptance,
        "min_ess_field": min_field,
        "min_ess_theta": min_theta,
        "ess_logpi": summary.ess_logpi,
        "min_ess_field_per_1000": summary.per_1000(min_field),
        "min_ess_theta_per_1000": summary.per_1000(min_theta),
        "ess_logpi_per_1000": summary.ess_logpi_per_1000,
        "wall_time": summary.wall_time,
        "theta_rwm_scale": rwm_scale,
    }


def run_spatial_comparison(
    seed: int = 0,
    sweeps: int | None = None,
    out_dir=None,
    n_rows: int = 8,
    n_cols: int = 8,
    rho: float = float(np.log(2.0)),
    psi: float = float(np.log(0.2)),
    tau: float = 1.0,
) -> dict:
    """Gibbs with hug/hop vs Gibbs with HMC on the spatial probit posterior."""
    sweeps = sweeps or 20_000
    burn_in = sweeps // 2
    seeds = np.random.SeedSequence(seed).spawn(3)
    data = simulate_spatial(n_rows, n_cols, rho, psi, tau, np.random.default_rng(seeds[0]))
    model = SpatialProbitModel(data)

    hug_hop = [
        HugKernel(HugParams(total_time=1.0, n_bounces=10)),
        HopKernel(HopParams(lam=9.0, kappa=0.6)),
    ]
    hmc = [HmcKernel(HmcParams(n_steps=9, step_size=0.12))]

    blocks = {}
    for name, inner, stream in (("hug_hop", hug_hop, seeds[1]), ("hmc", hmc, seeds[2])):
        _, summary, scale = run_gibbs(
            model, inner, sweeps, np.random.default_rng(stream), burn_in=burn_in
        )
        blocks[name] = _gibbs_block(summary, model.field_dim, scale)

    report = {
        "model": "spatial",
        "sizes": {
            "grid": [n_rows, n_cols],
            "field_dim": model.field_dim,
            "total_dim": model.total_dim,
        },
        "true_theta": {"rho": rho, "psi": psi},
        **blocks,
    }
    _write_outputs(out_dir, "spatial", data, seed, report)
    return report
