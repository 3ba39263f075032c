"""Reference kernels: HMC with a leapfrog integrator, random-walk
Metropolis (optionally with a fixed or a local Hessian covariance), and MALA."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FactorizationError, HugHopError, NonFiniteInputError, TrajectoryError
from .metric import LocalMetric, check_floor, fixed_metric, local_covariance
from .state import ChainState, Kernel, StepOutcome, all_finite, finish_step
from .targets import TargetModel

__all__ = [
    "HmcParams",
    "RwmParams",
    "MalaParams",
    "leapfrog",
    "hmc_step",
    "rwm_step",
    "mala_step",
    "HmcKernel",
    "RwmKernel",
    "MalaKernel",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HmcParams:
    """Leapfrog steps, step size and mass matrix; trajectory time is n_steps * step_size.

    ``mass_matrix`` is ``None`` (the identity), a vector of positive
    diagonal entries, or a symmetric positive-definite matrix, built once
    into ``metric`` (see :func:`~hughop.metric.fixed_metric`); a vector
    stays elementwise, so a diagonal mass costs O(d) a step.
    """

    n_steps: int
    step_size: float
    mass_matrix: np.ndarray | None = None
    metric: LocalMetric | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_steps < 0 or int(self.n_steps) != self.n_steps:
            raise ValueError("n_steps must be a nonnegative integer")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.mass_matrix is not None:
            object.__setattr__(self, "mass_matrix", np.asarray(self.mass_matrix, dtype=float))
            object.__setattr__(self, "metric", fixed_metric(self.mass_matrix, "mass_matrix"))


@dataclass(frozen=True)
class RwmParams:
    """Random-walk proposal scale with an optional local covariance.

    ``local_cov`` is ``"none"`` (isotropic), ``"fixed"`` (covariance ``cov``)
    or ``"hessian"`` (local covariance from the Hessian, with the finite
    positive floor ``eps``).
    A fixed ``cov``, a positive vector or an SPD matrix, is built once into
    ``metric`` (see :func:`~hughop.metric.fixed_metric`); ``cov`` with another
    ``local_cov`` is an error.
    """

    step_scale: float
    local_cov: str = "none"
    cov: np.ndarray | None = None
    eps: float = 1e-6
    metric: LocalMetric | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if self.local_cov not in ("none", "fixed", "hessian"):
            raise ValueError("local_cov must be 'none', 'fixed' or 'hessian'")
        if self.local_cov == "fixed":
            if self.cov is None:
                raise ValueError("local_cov='fixed' requires cov")
            object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
            object.__setattr__(self, "metric", fixed_metric(self.cov, "cov"))
        elif self.cov is not None:
            raise ValueError(f"cov is used with local_cov='fixed' only, not {self.local_cov!r}")
        check_floor(self.eps)


@dataclass(frozen=True)
class MalaParams:
    """Langevin proposal scale."""

    step_scale: float

    def __post_init__(self):
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")


def leapfrog(
    target: TargetModel,
    x: np.ndarray,
    p: np.ndarray,
    params: HmcParams,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Run n_steps of the half-kick / drift / half-kick integrator.

    Momenta follow p ~ N(0, M) with kinetic energy p' M^-1 p / 2, so the
    drift is x += step_size * M^-1 p, with M the metric ``params.metric``.
    The two half-kicks that meet between steps are taken as one full kick
    (Neal 2011), so a step is a drift, a gradient and one kick, between a
    half-kick at each end.  ``grad`` is
    the log-density gradient at ``x`` when the caller has it; otherwise it
    is evaluated.  Returns the final position, momentum and gradient, and
    the log-density there: the last step evaluates it with its gradient
    (``target._value_and_grad``), and with no steps it is the log-density
    at ``x``.

    Finiteness is checked once, at the endpoint: a non-finite position
    carries into every later position, and a non-finite gradient or
    momentum carries into the next position or the final momentum, so the
    steps call the target's trusted gradient.  On failure the steps are
    replayed with a check after each sub-move, which names the failing one;
    the momentum checked after step k's kick is the one step k + 1 drifts
    with.

    Raises:
        TrajectoryError: on a non-finite state, identifying the step index.
    """
    x = np.asarray(x, dtype=float).copy()
    p = np.asarray(p, dtype=float).copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = target.gradient(x) if grad is None else grad
        try:
            x1, p1, g1, logp1 = _leapfrog_loop(target, x, p, g, params, checked=False)
            if all_finite(x1) and all_finite(p1):
                return x1, p1, g1, logp1
        except HugHopError:  # the checked replay raises what a per-step check would
            pass
        return _leapfrog_loop(target, x, p, g, params, checked=True)


def _leapfrog_loop(target, x, p, g, params: HmcParams, checked: bool):
    """The steps of :func:`leapfrog` from gradient ``g`` at ``x``;
    ``checked`` raises at the first non-finite position, gradient or
    momentum, so the trusted gradient only sees checked positions."""
    delta = params.step_size
    half = 0.5 * delta
    mass = params.metric
    # delta M^-1 is taken once: a dense mass drifts with one product, as one
    # without does, and a diagonal one elementwise
    if mass is None:
        drift = None
    elif mass.eigvecs is None:
        drift = (delta / mass.eigvals).__mul__
    else:
        drift = (delta * mass.inverse).dot
    last = params.n_steps - 1
    if last < 0:
        return x, p, g, target._log_density(x)
    p = p + half * g
    for step in range(params.n_steps):
        x = x + (delta * p if drift is None else drift(p))
        if checked and not all_finite(x):
            raise TrajectoryError("non-finite position in leapfrog", step)
        if step < last:
            g, kick = target._gradient(x), delta
        else:
            (logp, g), kick = target._value_and_grad(x), half
        if checked and not all_finite(g):
            raise TrajectoryError("non-finite gradient in leapfrog", step)
        p = p + kick * g
        if checked and not all_finite(p):
            raise TrajectoryError("non-finite momentum in leapfrog", step)
    return x, p, g, logp


def hmc_step(
    target: TargetModel,
    state: ChainState,
    params: HmcParams,
    rng: np.random.Generator,
) -> tuple[ChainState, StepOutcome]:
    """One HMC move: sample momentum, integrate, accept on the energy error.

    The trajectory starts from the state's cached gradient, and an accepted
    move caches the gradient at its endpoint, so a step costs n_steps
    gradients, not n_steps + 1, and the endpoint's log-density comes with
    its last gradient.
    """
    x = state.position
    mass = params.metric
    z = rng.standard_normal(x.size)
    p0 = z if mass is None else mass.unwhiten(z)
    kinetic0 = 0.5 * float(z.dot(z))  # p0' M^-1 p0 / 2 computed in whitened form

    proposal = x.copy()
    y_logp = y_grad = None
    energy_error = np.nan
    try:
        y, p1, y_grad, y_logp = leapfrog(target, x, p0, params, state.ensure_grad(target))
        with np.errstate(over="ignore", invalid="ignore"):
            kinetic1 = 0.5 * (float(p1.dot(p1)) if mass is None else mass.quad_inv(p1))
        energy_error = (y_logp - kinetic1) - (state.logp - kinetic0)
        proposal = y
    except (TrajectoryError, NonFiniteInputError) as exc:
        logger.warning("hmc: trajectory rejected (%s)", exc)

    return finish_step(
        rng, state, energy_error, proposal, y_logp, y_grad, energy_error=energy_error
    )


def rwm_step(
    target: TargetModel,
    state: ChainState,
    params: RwmParams,
    rng: np.random.Generator,
) -> tuple[ChainState, StepOutcome]:
    """One random-walk move, with the generic Hastings correction when the
    proposal covariance depends on position.  The Hessian covariance at x is
    read from the state's cache, and an accepted move caches the one at y."""
    x = state.position
    s = params.step_scale
    z = rng.standard_normal(x.size)
    y = x.copy()
    log_ratio = y_logp = metric_y = None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            correction = 0.0
            metric_x = params.metric  # the fixed covariance, or None
            if params.local_cov == "hessian":
                metric_x = state.ensure_metric(target, params.eps, local_covariance)
            y = x + s * (z if metric_x is None else metric_x.unwhiten(z))
            target._validate(y)  # y is checked once; the trusted methods follow
            if params.local_cov == "hessian":
                metric_y = local_covariance(target._hessian(y), params.eps)
                # log q(x|y) - log q(y|x); the -d log s terms cancel
                fwd = -0.5 * metric_x.quad_inv(y - x) / s**2 - 0.5 * metric_x.log_det
                rev = -0.5 * metric_y.quad_inv(x - y) / s**2 - 0.5 * metric_y.log_det
                correction = rev - fwd
            y_logp = target._log_density(y)
            log_ratio = y_logp - state.logp + correction
        except (FactorizationError, NonFiniteInputError) as exc:
            logger.warning("rwm: proposal rejected (%s)", exc)

    return finish_step(rng, state, log_ratio, y, y_logp, metric=metric_y)


def mala_step(
    target: TargetModel,
    state: ChainState,
    params: MalaParams,
    rng: np.random.Generator,
) -> tuple[ChainState, StepOutcome]:
    """One Langevin move y ~ N(x + s^2 g(x)/2, s^2 I) with the asymmetric
    drift corrected in the ratio."""
    x = state.position
    g_x = state.ensure_grad(target)
    s = params.step_scale
    log_ratio = y_logp = y_grad = None

    with np.errstate(over="ignore", invalid="ignore"):
        mean_fwd = x + 0.5 * s**2 * g_x
        y = mean_fwd + s * rng.standard_normal(x.size)
        finite = all_finite(y)
        if finite:
            y_logp, y_grad = target._value_and_grad(y)
            if math.isfinite(y_logp) and all_finite(y_grad):
                mean_rev = y + 0.5 * s**2 * y_grad
                d_fwd, d_rev = y - mean_fwd, x - mean_rev
                fwd = -0.5 * float(d_fwd.dot(d_fwd)) / s**2
                rev = -0.5 * float(d_rev.dot(d_rev)) / s**2
                log_ratio = y_logp - state.logp + rev - fwd
        else:
            logger.warning("mala: non-finite drift; rejecting")

    return finish_step(rng, state, log_ratio, y if finite else x.copy(), y_logp, y_grad)


class HmcKernel(Kernel):
    name = "hmc"
    step_fn = staticmethod(hmc_step)


class RwmKernel(Kernel):
    name = "rwm"
    step_fn = staticmethod(rwm_step)


class MalaKernel(Kernel):
    name = "mala"
    step_fn = staticmethod(mala_step)
