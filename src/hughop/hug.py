"""The contour-hugging kernel.

A velocity is repeatedly bounced off the hyperplane tangent to the local
gradient while the position drifts between bounces, so the proposal travels
a long way while staying close to one contour of the log-density.  Each of
the paper's B bounces is "drift half a step, reflect, drift half a step";
the two half-drifts that meet between bounces are taken as one full drift.
Because the inner loop is an exact involution under velocity flip and every
sub-move has unit Jacobian, a simple two-point Metropolis correction makes
the kernel exact.

Three bounce modes are provided:

* ``plain``: reflections in the Euclidean metric, velocity drawn N(0, I).
* ``precond``: a fixed covariance, a metric built once, reshapes both the
  velocity draw and the reflections.
* ``hessian``: every bounce uses the local covariance built from the Hessian
  at the bounce point, and the velocity is drawn from the local covariance
  at the current state (an isotropic draw is available as an option).  The
  metric at the state is read from the chain state's cache, and an accepted
  move caches the one built at its endpoint.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FactorizationError, HugHopError, NonFiniteInputError, TrajectoryError
from .metric import LocalMetric, check_floor, diagonal_cov_dot, fixed_metric, local_covariance
from .state import ZERO_GRAD_TOL, ChainState, Kernel, StepOutcome, all_finite, finish_step
from .targets import TargetModel

__all__ = [
    "HugParams",
    "HugTrajectory",
    "reflect",
    "hug_trajectory",
    "hug_kernel_step",
    "HugKernel",
]

logger = logging.getLogger(__name__)

MODES = ("plain", "precond", "hessian")


@dataclass(frozen=True)
class HugParams:
    """Tuning parameters for the hug kernel.

    A bounce leaves the velocity unreflected where g . g (g' S g in a metric
    mode) is at or below ``state.ZERO_GRAD_TOL**2``, which keeps the bounce
    map an involution.

    Attributes:
        total_time: trajectory duration; the proposal travels roughly
            ``total_time * ||v||``.
        n_bounces: number of bounce steps; the step size is
            ``total_time / n_bounces`` (plain division).
        mode: one of ``plain``, ``precond``, ``hessian``.
        precond_cov: a positive vector or an SPD matrix, required in
            ``precond`` mode and rejected in the others.
        eps: regularisation floor for the local metric (``hessian`` mode),
            finite and positive.
        velocity: ``local`` draws the velocity from the local covariance,
            ``isotropic`` from N(0, I) (``hessian`` mode only).
        metric: ``precond_cov`` built once (see
            :func:`~hughop.metric.fixed_metric`); not an argument.
    """

    total_time: float
    n_bounces: int
    mode: str = "plain"
    precond_cov: np.ndarray | None = None
    eps: float = 1e-6
    velocity: str = "local"
    metric: LocalMetric | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.total_time < 0:
            raise ValueError("total_time must be nonnegative")
        if self.n_bounces < 1 or int(self.n_bounces) != self.n_bounces:
            raise ValueError("n_bounces must be a positive integer")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "precond":
            if self.precond_cov is None:
                raise ValueError("precond mode requires precond_cov")
            object.__setattr__(self, "precond_cov", np.asarray(self.precond_cov, dtype=float))
            object.__setattr__(self, "metric", fixed_metric(self.precond_cov, "precond_cov"))
        elif self.precond_cov is not None:
            raise ValueError(f"precond_cov is used in precond mode only, not {self.mode!r}")
        if self.velocity not in ("local", "isotropic"):
            raise ValueError("velocity must be 'local' or 'isotropic'")
        check_floor(self.eps)

    @property
    def step(self) -> float:
        return self.total_time / self.n_bounces


@dataclass
class HugTrajectory:
    """Endpoint of the deterministic bounce trajectory."""

    x: np.ndarray
    v: np.ndarray
    zero_grad_bounces: int = 0


def reflect(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reflect ``v`` in the hyperplane orthogonal to ``g``.

    Returns v - (2 v . g / g . g) g.  A squared gradient norm g . g at or
    below ``state.ZERO_GRAD_TOL**2`` returns ``v`` unchanged.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    if v.shape != g.shape:
        raise ValueError(f"shape mismatch: v {v.shape} vs g {g.shape}")
    if not (np.isfinite(v).all() and np.isfinite(g).all()):
        raise NonFiniteInputError("reflect: non-finite input")
    return _reflect(v.copy(), g, g, float(g.dot(g)))


def _reflect(v: np.ndarray, g: np.ndarray, sg: np.ndarray, denom: float) -> np.ndarray:
    """Reflection reshaped by an SPD covariance S, v - 2 (v . g) / (g' S g) S g,
    given ``sg`` = S g and ``denom`` = g . sg, without checks; with ``sg`` = g
    it is :func:`reflect`.  It equals whitening with any factor of S,
    reflecting, and mapping back.

    A ``denom`` at or below ``state.ZERO_GRAD_TOL**2`` returns ``v``
    unchanged.  So does a non-finite one, so a finite gradient whose g . sg
    overflows leaves ``v`` unreflected, and the caller must already know
    that ``g`` is finite.
    """
    if not math.isfinite(denom) or denom <= ZERO_GRAD_TOL**2:
        return v
    return v - (2.0 * float(v.dot(g)) / denom) * sg


def _bounce_loop(
    target: TargetModel,
    x: np.ndarray,
    v: np.ndarray,
    params: HugParams,
    checked: bool,
) -> HugTrajectory:
    """The bounce loop of :func:`hug_trajectory`.

    The position drifts half a step, then each bounce takes the gradient at
    the position, reflects the velocity and drifts a full step, or half a
    step after the last bounce.

    The loop calls the target's trusted methods and the inner reflections;
    in ``hessian`` mode one ``_grad_and_hessian`` call gives both values,
    and a (d,) Hessian diagonal gives S g with no metric built; otherwise S
    is ``params.metric``, or the identity when it is ``None``.  ``checked``
    raises at the first non-finite bounce point, gradient or velocity, so
    every call sees inputs checked one sub-move earlier.  Unchecked, the
    loop tests only what a non-finite value could hide: a gradient whose
    g . g is not finite is tested entry by entry, because the reflection
    treats a non-finite quadratic form as "no reflection" and would carry a
    NaN gradient on as a finite velocity.

    The loop and the inner reflections take vector dot products with
    ``ndarray.dot``, the BLAS dot that ``@`` calls, with less call overhead,
    and scale vectors by Python floats rather than numpy scalars.
    """
    step = params.step
    half = 0.5 * step
    hessian = params.mode == "hessian"
    fixed = params.metric
    last = params.n_bounces - 1
    zero_grad = 0
    x = x + half * v
    for b in range(params.n_bounces):
        if checked and not np.isfinite(x).all():
            raise TrajectoryError("non-finite bounce point", b)
        if hessian:
            g, h = target._grad_and_hessian(x)
        else:
            g = target._gradient(x)
        gg = float(g.dot(g))
        if (checked or not math.isfinite(gg)) and not np.isfinite(g).all():
            raise TrajectoryError("non-finite gradient at bounce point", b)
        if not hessian:
            sg = g if fixed is None else fixed.cov_dot(g)
        elif h.ndim == 1:
            sg = diagonal_cov_dot(h, g, params.eps)
        else:
            sg = local_covariance(h, params.eps).cov_dot(g)
        size = gg if sg is g else float(g.dot(sg))  # what the zero-gradient test reads
        v = _reflect(v, g, sg, size)
        if size <= ZERO_GRAD_TOL**2:
            zero_grad += 1
        if checked and not np.isfinite(v).all():
            raise TrajectoryError("non-finite velocity after bounce", b)
        x = x + (step if b < last else half) * v
    return HugTrajectory(x=x, v=v, zero_grad_bounces=zero_grad)


def hug_trajectory(
    target: TargetModel,
    x0: np.ndarray,
    v0: np.ndarray,
    params: HugParams,
) -> HugTrajectory:
    """Run the deterministic inner loop: B bounces of drift half a step,
    reflect, drift half a step, with the half-drifts that meet between
    bounces taken as one drift of a full step.

    The map (x0, v0) -> (xB, vB) has unit Jacobian and is skew-reversible:
    rerunning it from (xB, -vB) returns (x0, -v0) exactly.

    Finiteness is checked once, at the endpoint.  A non-finite bounce point
    carries into every later position, a non-finite gradient makes the loop
    raise, and a non-finite velocity carries into the next position, so a
    finite endpoint means every intermediate state was finite.  On failure
    the loop is replayed with a check after each sub-move, which names the
    failing bounce.

    Raises:
        TrajectoryError: when an intermediate state becomes non-finite; the
            error identifies the failing bounce index.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _trajectory(
            target,
            np.asarray(x0, dtype=float).copy(),
            np.asarray(v0, dtype=float).copy(),
            params,
        )


def _trajectory(
    target: TargetModel, x: np.ndarray, v: np.ndarray, params: HugParams
) -> HugTrajectory:
    """:func:`hug_trajectory` without its copies and its ``errstate``, which
    the caller holds.  The endpoint position is always a new array."""
    if params.total_time == 0.0:
        return HugTrajectory(x=x.copy(), v=v)
    try:
        traj = _bounce_loop(target, x, v, params, checked=False)
        if all_finite(traj.x) and all_finite(traj.v):
            return traj
    except HugHopError:  # the checked replay raises what a per-step check would
        pass
    traj = _bounce_loop(target, x, v, params, checked=True)
    if not all_finite(traj.x):
        raise TrajectoryError("non-finite final position", params.n_bounces - 1)
    return traj


def _draw_velocity(
    target: TargetModel,
    state: ChainState,
    params: HugParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Sample v0 ~ q(.|x0) at the state's position x0 and return
    (v0, log q(v0|x0)); a local metric comes from the state's cache.

    The returned log-density drops the dimension constant, which cancels in
    the acceptance ratio.
    """
    z = rng.standard_normal(state.position.size)
    metric = params.metric
    if params.mode == "hessian" and params.velocity == "local":
        metric = state.ensure_metric(target, params.eps, local_covariance)
    if metric is None:
        return z, -0.5 * float(z.dot(z))
    return metric.unwhiten(z), -0.5 * float(z.dot(z)) - 0.5 * metric.log_det


def _velocity_log_density(
    target: TargetModel,
    x: np.ndarray,
    v: np.ndarray,
    params: HugParams,
) -> tuple[float, LocalMetric | None]:
    """log q(v|x) under the mode's velocity distribution (constants dropped),
    and the local metric at x when the distribution uses one."""
    local = params.mode == "hessian" and params.velocity == "local"
    metric = local_covariance(target._hessian(x), params.eps) if local else params.metric
    if metric is None:
        return -0.5 * float(v.dot(v)), None
    return -0.5 * metric.quad_inv(v) - 0.5 * metric.log_det, metric if local else None


def hug_kernel_step(
    target: TargetModel,
    state: ChainState,
    params: HugParams,
    rng: np.random.Generator,
) -> tuple[ChainState, StepOutcome]:
    """One Metropolis-corrected hug move from ``state``.

    The acceptance ratio compares log-density plus velocity log-density at
    both endpoints; in hessian mode the velocity density includes the
    position-dependent log-determinant.  Numerical failures during the
    trajectory are treated as log alpha = -inf: the failure set is symmetric
    under the skew-reversal, so rejecting preserves detailed balance.  A
    failed step proposes the start.  The outcome's
    ``extras["zero_grad_bounces"]`` counts the bounces left unreflected
    (see :class:`HugParams`).  In hessian mode with a local velocity, an
    accepted move caches the metric built at its endpoint in the new state.
    """
    x0 = state.position
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            v0, logq0 = _draw_velocity(target, state, params, rng)
        except FactorizationError:
            logger.warning("hug: velocity draw failed at current state; rejecting")
            return finish_step(rng, state, None, x0.copy(), zero_grad_bounces=0)

        try:
            traj = _trajectory(target, x0, v0, params)
            logp = float(target._log_density(traj.x))
            logq_end, metric = _velocity_log_density(target, traj.x, traj.v, params)
        except (TrajectoryError, FactorizationError, NonFiniteInputError) as exc:
            logger.warning("hug: trajectory rejected (%s)", exc)
            return finish_step(rng, state, None, x0.copy(), zero_grad_bounces=0)

        log_ratio = (logp + logq_end) - (state.logp + logq0)
        return finish_step(
            rng, state, log_ratio, traj.x, logp, metric=metric,
            zero_grad_bounces=traj.zero_grad_bounces,
        )


class HugKernel(Kernel):
    """Hug with fixed :class:`HugParams`."""

    name = "hug"
    step_fn = staticmethod(hug_kernel_step)
