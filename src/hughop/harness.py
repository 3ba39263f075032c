"""Config-driven experiment harness.

Builds targets and kernels from declarative specs, runs (possibly composite)
chains, grid-tunes kernel parameters on short pilot runs, and reproduces the
desk-scale versions of the benchmarking procedures: the hug efficiency sweep,
inner-loop stability traces, the hop dimension-scaling table, and the
limiting-acceptance check for hop on random-precision Gaussians.

Randomness policy: every entry point takes a single master seed; independent
pieces of work (grid cells, replicates) draw their generators from
``np.random.SeedSequence(seed).spawn(...)`` in declaration order, so results
are reproducible and cells are independent.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from itertools import product
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import HmcKernel, HmcParams, MalaKernel, MalaParams, RwmKernel, RwmParams
from .diagnostics import RunSummary, Trace, summarize_run
from .exceptions import (
    ConfigError,
    DegenerateSeriesError,
    NonFiniteInputError,
    TrajectoryError,
    config_integer,
    config_number,
)
from .hop import HopKernel, HopParams, default_lam
from .hug import HugKernel, HugParams, hug_trajectory
from .state import ChainState, kernel_labels
from .targets import GaussianDiag, TargetModel, make_target

__all__ = [
    "ExperimentConfig",
    "make_kernel",
    "run_chain",
    "run_kernels",
    "grid_tune",
    "grid_cells",
    "tune_cells",
    "set_by_path",
    "TuneResult",
    "hug_efficiency_experiment",
    "stability_experiment",
    "hop_scaling_experiment",
    "theorem2_experiment",
    "write_trace_csv",
    "append_summary",
]


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------


def _floor(value, field: str) -> float:
    """A metric floor ``eps``: a finite positive number."""
    eps = config_number(value, field)
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(field, f"must be positive and finite, got {value!r}")
    return eps


def _flag(value, field: str) -> bool:
    """A config boolean; a string such as ``"false"`` is an error, not true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(field, f"must be true or false, got {value!r}")
    return bool(value)


def _hug_from_spec(spec: dict, where: str) -> HugKernel:
    kwargs = dict(
        total_time=config_number(spec.pop("T", 1.0), f"{where}.T"),
        n_bounces=config_integer(spec.pop("B", 10), f"{where}.B"),
        mode=str(spec.pop("mode", "plain")),
        eps=_floor(spec.pop("eps", 1e-6), f"{where}.eps"),
        velocity=str(spec.pop("velocity", "local")),
    )
    return HugKernel(HugParams(**kwargs, precond_cov=spec.pop("precond_cov", None)))


def _hop_from_spec(spec: dict, dim: int | None, where: str) -> HopKernel:
    lam = spec.pop("lambda", None)
    if lam is None:
        lam = default_lam(dim) if dim else 1.0
    kwargs = dict(
        lam=config_number(lam, f"{where}.lambda"),
        use_hessian=_flag(spec.pop("hessian", False), f"{where}.hessian"),
        eps=_floor(spec.pop("eps", 1e-6), f"{where}.eps"),
        guard=str(spec.pop("guard", "plus1")),
    )
    if "mu" in spec:
        kwargs["mu"] = config_number(spec.pop("mu"), f"{where}.mu")
    else:
        kwargs["kappa"] = config_number(spec.pop("kappa", 0.5), f"{where}.kappa")
    return HopKernel(HopParams(**kwargs))


def make_kernel(spec: dict, dim: int | None = None, where: str = "kernel"):
    """Build a kernel from a config mapping like ``{"kernel": "hug", ...}``.

    A malformed or out-of-range value raises :class:`ConfigError` naming
    ``where``, or the entry below it.  Given ``dim``, a fixed covariance
    must be (dim,) or (dim, dim).
    """
    if not isinstance(spec, dict):
        raise ConfigError(where, f"must be a mapping, got {spec!r}")
    spec = dict(spec)
    try:
        name = str(spec.pop("kernel")).lower()
    except KeyError:
        raise ConfigError(where, "missing 'kernel' name entry")
    try:
        if name == "hug":
            built = _hug_from_spec(spec, where)
        elif name == "hop":
            built = _hop_from_spec(spec, dim, where)
        elif name == "hmc":
            built = HmcKernel(
                HmcParams(
                    n_steps=config_integer(spec.pop("L", 10), f"{where}.L"),
                    step_size=config_number(spec.pop("step_size", 0.1), f"{where}.step_size"),
                    mass_matrix=spec.pop("mass_matrix", None),
                )
            )
        elif name == "rwm":
            built = RwmKernel(
                RwmParams(
                    step_scale=config_number(spec.pop("step_scale", 1.0), f"{where}.step_scale"),
                    local_cov=str(spec.pop("local_cov", "none")),
                    cov=spec.pop("cov", None),
                    eps=_floor(spec.pop("eps", 1e-6), f"{where}.eps"),
                )
            )
        elif name == "mala":
            step_scale = config_number(spec.pop("step_scale", 0.5), f"{where}.step_scale")
            built = MalaKernel(MalaParams(step_scale=step_scale))
        else:
            built = None
        fixed = {"hug": "precond_cov", "hmc": "mass_matrix", "rwm": "cov"}.get(name)
        metric = built.params.metric if fixed else None
        if metric is not None and dim not in (None, metric.eigvals.size):
            shape = getattr(built.params, fixed).shape
            raise ValueError(f"{fixed} must be ({dim},) or ({dim}, {dim}), got shape {shape}")
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(where, str(exc))
    if built is None:
        raise ConfigError(where, f"unknown kernel {name!r}")
    if spec:
        raise ConfigError(where, f"unknown parameters for kernel {name!r}: {sorted(spec)}")
    return built


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Declarative description of one chain run (plus an optional grid).

    ``kernels`` are applied in order within each iteration; one full sweep
    counts as one iteration.  ``grid`` maps dotted paths into the config
    (e.g. ``"kernels.1.lambda"``) to lists of values for :func:`grid_tune`.
    """

    target: dict
    kernels: list
    iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    record: str = "full"  # "full" records positions, "logpi" only the log-density
    init: object = "auto"  # "auto" | "zero" | explicit vector
    out: str | None = None
    grid: dict | None = None
    pilot_iterations: int = 10_000
    objective: str = "ess_per_second"

    def __post_init__(self):
        if not isinstance(self.target, dict):
            raise ConfigError("target", "must be a mapping")
        if not isinstance(self.kernels, (list, tuple)) or not self.kernels:
            raise ConfigError("kernels", "must be a nonempty list of kernel specs")
        self.iterations = config_integer(self.iterations, "iterations")
        if self.iterations < 1:
            raise ConfigError("iterations", "must be a positive integer")
        self.burn_in = config_integer(self.burn_in, "burn_in")
        if self.burn_in < 0:
            raise ConfigError("burn_in", "must be nonnegative")
        if self.burn_in >= self.iterations:
            raise ConfigError("burn_in", "must be less than iterations, or no sweep is recorded")
        self.thin = config_integer(self.thin, "thin")
        if self.thin < 1:
            raise ConfigError("thin", "must be a positive integer")
        if not isinstance(self.seed, np.random.SeedSequence):
            self.seed = config_integer(self.seed, "seed")
            if self.seed < 0:
                raise ConfigError("seed", "must be nonnegative")
        if self.record not in ("full", "logpi"):
            raise ConfigError("record", "must be 'full' or 'logpi'")
        self.pilot_iterations = config_integer(self.pilot_iterations, "pilot_iterations")
        if self.pilot_iterations < 1:
            raise ConfigError("pilot_iterations", "must be positive")
        if self.objective not in OBJECTIVES:
            raise ConfigError("objective", f"unknown objective {self.objective!r}")
        if self.grid is not None:
            grid_cells(self.grid)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        missing = [k for k in ("target", "kernels", "iterations") if k not in raw]
        if missing:
            raise ConfigError(missing[0], "required key is missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {
            "target": dict(self.target),
            "kernels": [dict(k) for k in self.kernels],
            "iterations": int(self.iterations),
            "burn_in": int(self.burn_in),
            "thin": int(self.thin),
            "seed": int(self.seed),
            "record": self.record,
            "init": self.init if isinstance(self.init, str) else list(self.init),
            "out": self.out,
            "grid": self.grid,
            "pilot_iterations": int(self.pilot_iterations),
            "objective": self.objective,
        }

    def build_target(self) -> TargetModel:
        try:
            return make_target(self.target)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError("target", str(exc))

    def build_kernels(self, dim: int):
        return [
            make_kernel(spec, dim=dim, where=f"kernels[{i}]")
            for i, spec in enumerate(self.kernels)
        ]


def _initial_position(target: TargetModel, init, rng: np.random.Generator) -> np.ndarray:
    if isinstance(init, str):
        if init == "zero":
            return np.zeros(target.dim)
        if init == "auto":
            # an exact draw where possible, otherwise a scale-aware Gaussian
            # draw: deterministic mode starts can sit exactly on a zero
            # gradient, which hop's guarded proposal cannot escape
            if target.has_exact_sampler:
                return target.sample_exact(rng, 1)[0]
            scales = getattr(target, "scales", None)
            draw = rng.standard_normal(target.dim)
            return draw * scales if scales is not None else draw
        if init == "exact":
            return target.sample_exact(rng, 1)[0]
        raise ConfigError("init", f"unknown init mode {init!r}")
    x0 = np.asarray(init, dtype=float)
    if x0.shape != (target.dim,):
        raise ConfigError("init", f"expected length {target.dim}, got shape {x0.shape}")
    return x0


def _record_sweeps(sweep, observe, state, dim, labels, iterations, burn_in, thin=1, record="full"):
    """The sweep loop of every chain: run ``iterations`` sweeps from ``state``
    and record them as a :class:`Trace`.

    ``sweep(it, state)`` returns the new state and its accept flags, in the
    order of ``labels``; ``observe(state)`` returns the log-density and the
    (dim,) position.  After ``burn_in`` sweeps every ``thin``-th is recorded,
    its position only when ``record`` is ``"full"``.
    """
    n_recorded = max(0, (iterations - burn_in + thin - 1) // thin)
    log_target = np.empty(n_recorded)
    positions = np.empty((n_recorded, dim)) if record == "full" else None
    accept = {label: np.zeros(n_recorded, dtype=bool) for label in labels}

    start = time.perf_counter()
    row = 0
    for it in range(iterations):
        state, flags = sweep(it, state)
        if it >= burn_in and (it - burn_in) % thin == 0:
            log_target[row], position = observe(state)
            if positions is not None:
                positions[row] = position
            for label, flag in zip(labels, flags):
                accept[label][row] = flag
            row += 1
    wall_time = time.perf_counter() - start

    return Trace(
        log_target=log_target,
        positions=positions,
        accept=accept,
        wall_time=wall_time,
        burn_in_fraction=burn_in / iterations if iterations else 0.0,
        iterations=iterations - burn_in,
    )


def run_kernels(
    target: TargetModel,
    kernels,
    iterations: int,
    rng: np.random.Generator,
    burn_in: int = 0,
    thin: int = 1,
    record: str = "full",
    init="auto",
) -> tuple[Trace, RunSummary]:
    """Run a kernel sweep chain against an already-built target.

    This is the engine behind :func:`run_chain`; it also serves targets that
    are not registry-constructible (the statistical models).  The accept
    flags are keyed by :func:`~hughop.state.kernel_labels`.
    """

    def sweep(it, state):
        flags = []
        for kernel in kernels:
            state, outcome = kernel.step(target, state, rng)
            flags.append(outcome.accepted)
        return state, flags

    state = ChainState.at(target, _initial_position(target, init, rng))
    trace = _record_sweeps(
        sweep, attrgetter("logp", "position"), state, target.dim, kernel_labels(kernels),
        int(iterations), int(burn_in), int(thin), record,
    )
    return trace, summarize_run(trace)


def run_chain(config: ExperimentConfig) -> tuple[Trace, RunSummary]:
    """Run the configured chain and summarise it.

    The kernels are applied in order within each iteration; burn-in sweeps
    are discarded, then every ``thin``-th iteration is recorded.  Identical
    configs (including the seed) produce identical traces.
    """
    target = config.build_target()
    kernels = config.build_kernels(target.dim)
    rng = np.random.default_rng(config.seed)
    trace, summary = run_kernels(
        target,
        kernels,
        iterations=config.iterations,
        rng=rng,
        burn_in=config.burn_in,
        thin=config.thin,
        record=config.record,
        init=config.init,
    )
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(out_dir / "trace.csv", trace, config)
        append_summary(out_dir / "results.jsonl", summary, config)
    return trace, summary


# ---------------------------------------------------------------------------
# Grid tuning
# ---------------------------------------------------------------------------


def set_by_path(tree: dict, path: str, value) -> None:
    """Set the entry of ``tree`` that the dotted ``path`` names to ``value``.

    Keys into lists are integer indices.  Every key but the last must
    already exist; the last may add a new key to a mapping.  A path that
    does not resolve (a missing key, an index out of range or not an
    integer, a step into a scalar) raises :class:`ConfigError` naming it.
    """
    *parents, last = path.split(".")
    node = tree
    try:
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if isinstance(node, list):
            node[int(last)] = value
        elif isinstance(node, dict):
            node[last] = value
        else:
            raise TypeError
    except (KeyError, IndexError, ValueError, TypeError):
        raise ConfigError(path, "path does not resolve in the config") from None


OBJECTIVES = ("ess_per_second", "ess_per_iteration")


def _objective_value(summary: RunSummary, objective) -> float:
    if callable(objective):
        return float(objective(summary))
    if objective == "ess_per_second":
        a, b = summary.min_ess_x_per_sec, summary.ess_logpi_per_sec
    else:
        a, b = summary.min_ess_x_per_1000, summary.ess_logpi_per_1000
    if a is None or b is None or not (np.isfinite(a) and np.isfinite(b)):
        return np.nan
    return float(np.sqrt(a * b))


@dataclass
class TuneResult:
    """Outcome of a grid tune: the winning cell and the full table."""

    best: dict
    best_score: float
    table: list[dict] = dataclass_field(default_factory=list)


def grid_cells(grid: dict) -> list[dict]:
    """Every combination of a grid mapping names to value lists, in order."""
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid", "must map at least one parameter to a value list")
    if any(not isinstance(values, (list, tuple)) or not values for values in grid.values()):
        raise ConfigError("grid", "each entry must be a nonempty list of values")
    return [dict(zip(grid, combo)) for combo in product(*grid.values())]


def tune_cells(cells: list[dict], run_pilot, seed, objective) -> TuneResult:
    """Score every cell with one pilot run and return the argmax.

    ``run_pilot(i, cell_seed)`` runs the pilot of ``cells[i]`` and returns
    its :class:`RunSummary`; ``cell_seed`` is the i-th ``SeedSequence``
    spawned from ``seed``, so every cell has its own stream.  A cell scores
    ``objective``: the geometric mean of min ESS(X) and ESS(log pi), per
    second (``"ess_per_second"``) or per 1000 iterations
    (``"ess_per_iteration"``), or a callable of the summary.  A degenerate
    cell (a series ESS cannot be estimated on, or parameter values the
    kernel rejects) scores NaN and stays in the table with its failure
    note; any other error, such as a dimension mismatch or a non-finite
    input, propagates.  When no cell scores, :class:`ConfigError` is raised
    for ``"grid"``.

    The pick is the argmax of single-pilot estimates, so it follows the
    objective only while the spread of a cell's score over pilots is small
    beside the gaps between the leading cells.  A near-tie is otherwise
    settled by pilot noise, and the winner's score is biased upwards.  Size
    the pilots so that the leading cells' scores spread by about 5% (sd over
    mean of 8 pilots on fresh streams).
    """
    if not callable(objective) and objective not in OBJECTIVES:
        raise ConfigError("objective", f"unknown objective {objective!r}")

    def describe(summary):
        return dict(
            score=_objective_value(summary, objective),
            min_ess_x=summary.min_ess_x,
            ess_logpi=summary.ess_logpi,
            min_ess_x_per_1000=summary.min_ess_x_per_1000,
            ess_logpi_per_1000=summary.ess_logpi_per_1000,
            wall_time=summary.wall_time,
            acceptance=summary.acceptance,
            note="; ".join(summary.notes),
        )

    table = _pilot_rows([dict(c) for c in cells], run_pilot, seed, describe, {"score": np.nan})
    scored = [i for i, row in enumerate(table) if np.isfinite(row["score"])]
    if not scored:
        failures = "; ".join(
            f"{cell}: {row.get('note', 'NaN score')}" for cell, row in zip(cells, table)
        )
        raise ConfigError("grid", f"all grid cells degenerate: {failures}")
    best = max(scored, key=lambda i: table[i]["score"])
    return TuneResult(best=dict(cells[best]), best_score=table[best]["score"], table=table)


def _pilot_rows(rows: list[dict], run_pilot, seed, describe, failed: dict) -> list[dict]:
    """The per-cell loop of every grid, as :func:`tune_cells` documents it:
    ``rows[i]`` gains ``describe`` of cell i's pilot summary, or for a
    degenerate cell ``failed`` and its failure ``note``."""
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for i, (row, cell_seed) in enumerate(zip(rows, entropy.spawn(len(rows)))):
        try:
            row.update(describe(run_pilot(i, cell_seed)))
        except (DegenerateSeriesError, ConfigError) as exc:
            row.update(failed, note=str(exc))
    return rows


def _pilot_config(config: ExperimentConfig, cell: dict) -> ExperimentConfig:
    raw = config.to_dict()
    for path, value in cell.items():
        set_by_path(raw, path, value)
    raw.update(
        iterations=int(config.pilot_iterations),
        burn_in=config.pilot_iterations // 5,
        grid=None,
        out=None,
    )
    return ExperimentConfig.from_dict(raw)


def grid_tune(config: ExperimentConfig, objective=None) -> TuneResult:
    """Grid-tune a config with :func:`tune_cells`, which documents the pick.

    ``config.grid`` maps dotted paths into the config (see
    :func:`set_by_path`) to value lists.  Each cell's pilot is the config
    with the cell's values set, ``pilot_iterations`` sweeps of which the
    first fifth (``pilot_iterations // 5``) is discarded, run by
    :func:`run_chain`.
    ``objective`` defaults to ``config.objective``.  A path that does not
    resolve, or a cell config that fails validation, raises before any
    pilot runs.
    """
    cells, run_pilot = _grid_pilots(config)
    objective = objective if objective is not None else config.objective
    return tune_cells(cells, run_pilot, config.seed, objective)


def _grid_pilots(config: ExperimentConfig):
    """The cells of ``config.grid`` and the ``run_pilot(i, cell_seed)`` that
    runs the pilot of cell i with :func:`run_chain`, for :func:`_pilot_rows`."""
    cells = grid_cells(config.grid)
    pilots = [_pilot_config(config, cell) for cell in cells]

    def run_pilot(i, cell_seed):
        return run_chain(replace(pilots[i], seed=cell_seed))[1]

    return cells, run_pilot


# ---------------------------------------------------------------------------
# Experiment procedures
# ---------------------------------------------------------------------------


def _exact_start_steps(target: TargetModel, kernel, n: int, rng: np.random.Generator):
    """Yield ``(x0, outcome)`` for one ``kernel`` step from each of ``n``
    exact draws ``x0`` of ``target``, all drawn before the first step."""
    for x0 in target.sample_exact(rng, n):
        yield x0, kernel.step(target, ChainState.at(target, x0), rng)[1]


def hug_efficiency_experiment(
    target: TargetModel,
    n_bounces_grid,
    total_time_grid,
    n_reps: int,
    seed: int = 0,
    mode: str = "plain",
) -> list[dict]:
    """Proposal-quality sweep over (bounce count, integration time).

    For every grid cell, draws ``n_reps`` exact target samples, all before
    the first step, and applies one hug kernel step to each, with an isotropic
    velocity, recording the step's acceptance probability ``alpha`` and the
    squared distance to its proposal.  A step whose trajectory fails scores
    alpha = 0 with its proposal at the start, so a zero jump.  The
    efficiency column is mean(alpha * ||x' - x||^2) / (dim * n_bounces):
    acceptance-weighted squared movement per unit of gradient work.
    """
    if not target.has_exact_sampler:
        raise ValueError(f"{target.name}: hug efficiency sweep needs exact sampling")
    rows = []
    cells = list(product(n_bounces_grid, total_time_grid))
    seeds = np.random.SeedSequence(seed).spawn(len(cells))
    for (n_bounces, total_time), cell_seed in zip(cells, seeds):
        # isotropic velocities keep the acceptance a pure log-density
        # difference in every mode
        params = HugParams(
            total_time=float(total_time),
            n_bounces=int(n_bounces),
            mode=mode,
            velocity="isotropic",
        )
        rng = np.random.default_rng(cell_seed)
        steps = list(_exact_start_steps(target, HugKernel(params), n_reps, rng))
        alphas = np.array([outcome.alpha for _, outcome in steps])
        sq_jumps = np.array([float(np.sum((outcome.proposal - x0) ** 2)) for x0, outcome in steps])
        rows.append(
            {
                "n_bounces": int(n_bounces),
                "total_time": float(total_time),
                "mean_alpha": float(np.mean(alphas)),
                "efficiency": float(np.mean(alphas * sq_jumps) / (target.dim * n_bounces)),
                "n_reps": int(n_reps),
            }
        )
    return rows


def stability_experiment(
    target: TargetModel,
    step: float,
    steps: int,
    seed: int = 0,
    divergence_threshold: float = 1e8,
) -> dict:
    """Track the log-density drift of the raw bounce loop, no accept/reject.

    Returns the per-bounce drift ``delta[b] = l(x_b) - l(x_0)`` for
    b = 1..steps, plus a divergence flag when |delta| crosses the threshold
    (recorded, not fatal) and the index where the loop lost finiteness, if
    it did.  The loop starts from an exact draw when the target has an
    exact sampler, and from the origin otherwise.
    """
    rng = np.random.default_rng(seed)
    x = target.sample_exact(rng, 1)[0] if target.has_exact_sampler else np.zeros(target.dim)
    v = rng.standard_normal(target.dim)
    logp0 = target.log_density(x)
    params = HugParams(total_time=step, n_bounces=1)

    deltas = np.full(steps, np.nan)
    diverged = False
    failed_at = None
    recorded = 0
    for b in range(steps):
        try:
            traj = hug_trajectory(target, x, v, params)
        except (TrajectoryError, NonFiniteInputError):
            failed_at = b
            break
        x, v = traj.x, traj.v
        with np.errstate(over="ignore", invalid="ignore"):
            deltas[b] = target.log_density(x) - logp0
        recorded = b + 1
        if np.isfinite(deltas[b]) and abs(deltas[b]) > divergence_threshold:
            diverged = True
    return {
        "delta": deltas[:recorded],
        "diverged": diverged,
        "failed_at": failed_at,
        "step": float(step),
    }


def hop_scaling_experiment(
    target_template: dict,
    dims,
    lam_grid,
    kappa_grid,
    iterations: int,
    seed: int = 0,
) -> list[dict]:
    """ESS(log pi) of hop-only chains over (dim, lambda, kappa).

    ``target_template`` is a target spec without the ``dim`` entry.  Each
    cell is a :func:`grid_tune` pilot of ``iterations`` sweeps, the first
    fifth discarded.  Returns one row per cell, also when none scores;
    degenerate cells carry a note instead of an ESS.
    """
    grid = {
        "target.dim": [int(dim) for dim in dims],
        "kernels.0.lambda": [float(lam) for lam in lam_grid],
        "kernels.0.kappa": [float(kappa) for kappa in kappa_grid],
    }
    config = ExperimentConfig(
        dict(target_template), [{"kernel": "hop"}], iterations, record="logpi", seed=seed,
        grid=grid, pilot_iterations=iterations,
    )
    cells, run_pilot = _grid_pilots(config)
    rows = [dict(zip(("dim", "lambda", "kappa"), cell.values())) for cell in cells]

    def describe(summary):
        return dict(
            ess_logpi=summary.ess_logpi,
            ess_logpi_per_1000=summary.ess_logpi_per_1000,
            acceptance=summary.acceptance.get("hop"),
            note="; ".join(summary.notes),
        )

    failed = {"ess_logpi": np.nan, "ess_logpi_per_1000": np.nan}
    return _pilot_rows(rows, run_pilot, config.seed, describe, failed)


def theorem2_experiment(
    precision_law,
    dim: int,
    lam: float,
    kappa: float,
    iterations: int,
    seed: int = 0,
) -> dict:
    """Mean hop acceptance under fresh stationary draws vs. its 2 Phi(-kappa/2) limit.

    The target is a centred :class:`~hughop.targets.GaussianDiag` with
    scales 1/sqrt(precision), the precisions drawn once from
    ``precision_law`` (a spec like ``{"dist": "uniform", "low": 0.5, "high":
    5.0}`` or a callable ``(rng, dim) -> array``).  One raw-guard
    :class:`~hughop.hop.HopKernel` step is taken from each of ``iterations``
    exact draws, and the steps' acceptance probabilities are averaged: the
    exact expectation under the stationary law, not a chain average.
    """
    # imported here so that the sampler path loads no scipy module
    from scipy.special import ndtr

    rng = np.random.default_rng(seed)
    if callable(precision_law):
        precisions = np.asarray(precision_law(rng, dim), dtype=float)
    else:
        law = dict(precision_law)
        dist = law.pop("dist", "uniform")
        if dist != "uniform":
            raise ConfigError("precision_law", f"unsupported distribution {dist!r}")
        precisions = rng.uniform(law.get("low", 0.5), law.get("high", 5.0), size=dim)
    if np.any(precisions <= 0):
        raise ConfigError("precision_law", "precisions must be positive")

    target = GaussianDiag(scales=1.0 / np.sqrt(precisions))
    kernel = HopKernel(HopParams(lam=float(lam), kappa=float(kappa), guard="raw"))
    steps = _exact_start_steps(target, kernel, iterations, rng)
    mean_acceptance = float(np.mean([outcome.alpha for _, outcome in steps]))
    limit = 2.0 * ndtr(-kappa / 2.0)
    return {
        "dim": int(dim),
        "lambda": float(lam),
        "kappa": float(kappa),
        "iterations": int(iterations),
        "mean_acceptance": mean_acceptance,
        "limit": float(limit),
        "abs_error": float(abs(mean_acceptance - limit)),
    }


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _config_header(config) -> str:
    resolved = config.to_dict() if isinstance(config, ExperimentConfig) else dict(config)
    return (
        f"# hughop {__version__}\n"
        f"# config: {json.dumps(resolved, sort_keys=True, default=str)}\n"
    )


def write_trace_csv(path, trace: Trace, config) -> None:
    """Write a trace as delimited text with a config-embedding header.

    Columns: iteration, x1..xd (when recorded), logpi, then one accept flag
    per kernel.  Identical configs produce byte-identical files.  Each row
    is formatted by one ``%``-format string (floats as ``%.17g``) and
    written as it is formed, so the file is never held in memory.
    """
    path = Path(path)
    labels = sorted(trace.accept.keys())
    positions = trace.positions
    dim = 0 if positions is None else positions.shape[1]
    columns = ["iteration"] + [f"x{j + 1}" for j in range(dim)]
    columns += ["logpi"] + [f"accept_{label}" for label in labels]
    row = "%d," + "%.17g," * dim + "%.17g" + ",%d" * len(labels) + "\n"
    n = trace.n_recorded
    log_target = np.asarray(trace.log_target).tolist()
    accepts = [np.asarray(trace.accept[label])[:n].tolist() for label in labels]
    with path.open("w") as handle:
        handle.write(_config_header(config))
        handle.write(",".join(columns) + "\n")
        for i, logpi, *flags in zip(range(n), log_target, *accepts):
            x = () if positions is None else positions[i].tolist()
            handle.write(row % (i, *x, logpi, *flags))


def append_summary(path, summary: RunSummary, config) -> None:
    """Append one JSON summary record (with the resolved config) to a results file."""
    path = Path(path)
    record = {
        "version": __version__,
        "config": config.to_dict() if isinstance(config, ExperimentConfig) else dict(config),
        "summary": summary.to_dict(),
    }
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def write_rows_csv(path, rows: list[dict], config) -> None:
    """Write a list of dict rows as CSV under a config-embedding header.

    The columns are every key of every row, in the order each first
    appears; a row without a column leaves its cell empty.
    """
    path = Path(path)
    if not rows:
        raise ValueError("no rows to write")
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with path.open("w") as handle:
        handle.write(_config_header(config))
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True).replace(",", ";")
    return str(value)
