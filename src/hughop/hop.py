"""The contour-hopping kernel.

Hop proposes anisotropic Gaussian jumps with a large scale ``lam`` along the
gradient direction and a small scale ``mu`` in every perpendicular
direction, the whole proposal shrunk by an inverse-gradient-norm guard so
that the induced change in log-density stays controlled however steep the
target is.  ``mu`` is usually parameterised through ``kappa`` via
mu^2 = kappa * lam, under which the large-dimension acceptance rate tends to
2 Phi(-kappa / 2) on product-form targets.

The acceptance ratio is always computed generically from the forward and
reverse proposal log-densities.  This stays correct under the softened
``plus1`` guard and under the Hessian-metric variant without re-derivation;
the closed-form expansions survive in the test-suite as oracles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import FactorizationError, NonFiniteInputError, ZeroGradientError
from .metric import LocalMetric, check_floor, local_covariance
from .state import ZERO_GRAD_TOL, ChainState, Kernel, StepOutcome, all_finite, finish_step
from .targets import TargetModel

__all__ = [
    "HopParams",
    "hop_propose",
    "hop_log_density",
    "hop_kernel_step",
    "HopKernel",
]

logger = logging.getLogger(__name__)

GUARDS = ("raw", "plus1")


@dataclass(frozen=True)
class HopParams:
    """Tuning parameters for the hop kernel.

    Exactly one of ``kappa`` / ``mu`` must be given; ``kappa`` sets
    mu = sqrt(kappa * lam).  ``guard`` selects the proposal-variance
    multiplier: ``raw`` uses 1/||g||^2 and fails on vanishing gradients,
    ``plus1`` uses 1/(1 + ||g||^2) and is always finite.  ``eps``, the
    floor of the Hessian variant's local metric, is finite and positive.
    """

    lam: float
    kappa: float | None = None
    mu: float | None = None
    use_hessian: bool = False
    eps: float = 1e-6
    guard: str = "plus1"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if (self.kappa is None) == (self.mu is None):
            raise ValueError("give exactly one of kappa or mu")
        if self.kappa is not None:
            if self.kappa <= 0:
                raise ValueError("kappa must be positive")
            object.__setattr__(self, "mu", float(np.sqrt(self.kappa * self.lam)))
        if self.mu <= 0:
            raise ValueError("mu must be strictly positive")
        if self.guard not in GUARDS:
            raise ValueError(f"guard must be one of {GUARDS}")
        check_floor(self.eps)


def default_lam(dim: int) -> float:
    """Default along-gradient scale 2.5 sqrt(dim) / 10.

    The optimal scale grows close to sqrt(dim) on product-form targets; the
    constant is a serviceable starting point, not a substitute for tuning.
    """
    return 0.25 * float(np.sqrt(dim))


def _guard_scale_sq(grad_norm_sq: float, guard: str) -> float:
    """The variance multiplier s^2 for a squared gradient norm."""
    if guard == "raw":
        if grad_norm_sq <= ZERO_GRAD_TOL**2:
            raise ZeroGradientError(
                "raw guard hit a zero gradient; use guard='plus1' instead"
            )
        return 1.0 / grad_norm_sq
    return 1.0 / (1.0 + grad_norm_sq)


def _whitened_jump(g_t: np.ndarray, params: HopParams, rng: np.random.Generator) -> np.ndarray:
    """Draw s * B^(1/2) z for a (whitened) gradient g_t.

    B^(1/2) = mu I + (lam - mu) ghat ghat' so the draw needs no matrices.
    With a vanishing gradient the rank-one part is dropped, leaving an
    isotropic mu-scaled jump; the density uses the same convention.  Here
    and in the density, vector dot products use ``ndarray.dot``, the BLAS
    dot that ``@`` calls, with less call overhead.
    """
    gn2 = float(g_t.dot(g_t))
    s = math.sqrt(_guard_scale_sq(gn2, params.guard))
    z = rng.standard_normal(g_t.size)
    if gn2 <= ZERO_GRAD_TOL**2:
        return s * params.mu * z
    ghat = g_t / math.sqrt(gn2)
    return s * (params.mu * z + (params.lam - params.mu) * ghat * float(ghat.dot(z)))


def _whitened_log_density(
    w_t: np.ndarray, g_t: np.ndarray, params: HopParams
) -> float:
    """Gaussian log-density of a (whitened) displacement w_t.

    Uses B^-1 = I/mu^2 + (1/lam^2 - 1/mu^2) ghat ghat' and
    det B = lam^2 mu^(2(d-1)), i.e. the eigenvalue product.
    """
    d = w_t.size
    gn2 = float(g_t.dot(g_t))
    s_sq = _guard_scale_sq(gn2, params.guard)
    wn2 = float(w_t.dot(w_t))
    if gn2 <= ZERO_GRAD_TOL**2:
        quad = wn2 / params.mu**2 / s_sq
        log_det = d * np.log(s_sq) + 2.0 * d * math.log(params.mu)
    else:
        dot = float(w_t.dot(g_t))
        along_sq = dot * dot / gn2  # (ghat . w)^2
        quad = (wn2 / params.mu**2 + (1.0 / params.lam**2 - 1.0 / params.mu**2) * along_sq) / s_sq
        log_det = (
            d * np.log(s_sq)
            + 2.0 * math.log(params.lam)
            + 2.0 * (d - 1) * math.log(params.mu)
        )
    return float(-0.5 * quad - 0.5 * log_det - 0.5 * d * math.log(2.0 * np.pi))


def hop_propose(
    x: np.ndarray,
    g: np.ndarray,
    params: HopParams,
    rng: np.random.Generator,
    metric: LocalMetric | None = None,
) -> np.ndarray:
    """Sample a hop proposal from ``x`` given the gradient there.

    Plain mode draws y = x + s [mu z + (lam - mu) ghat (ghat . z)], i.e. a
    Gaussian with covariance s^2 (mu^2 I + (lam^2 - mu^2) ghat ghat').  With
    ``metric`` given, the same recipe runs in the whitened space of the local
    covariance and is mapped back through the metric factor.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if metric is None:
        return x + _whitened_jump(g, params, rng)
    g_t = metric.factor_dot(g)
    return x + metric.unwhiten(_whitened_jump(g_t, params, rng))


def hop_log_density(
    x: np.ndarray,
    y: np.ndarray,
    g_at_x: np.ndarray,
    params: HopParams,
    metric: LocalMetric | None = None,
) -> float:
    """Exact log-density of proposing ``y`` from ``x``.

    With ``metric`` given (the local covariance at ``x``) the density is the
    Hessian-variant one; its log-determinant contributes
    -log det Sigma(x) / 2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.asarray(g_at_x, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(g).all()):
        raise NonFiniteInputError("hop_log_density: non-finite input")
    return _hop_log_density(x, y, g, params, metric)


def _hop_log_density(
    x: np.ndarray,
    y: np.ndarray,
    g: np.ndarray,
    params: HopParams,
    metric: LocalMetric | None,
) -> float:
    """:func:`hop_log_density` for finite float arrays, unchecked."""
    if metric is None:
        return _whitened_log_density(y - x, g, params)
    g_t = metric.factor_dot(g)
    w_t = metric.whiten(y - x)
    return _whitened_log_density(w_t, g_t, params) - 0.5 * metric.log_det


def hop_kernel_step(
    target: TargetModel,
    state: ChainState,
    params: HopParams,
    rng: np.random.Generator,
) -> tuple[ChainState, StepOutcome]:
    """One Metropolis-Hastings hop move from ``state``.

    log r = l(y) - l(x) + log q(x|y) - log q(y|x), with both proposal
    densities evaluated as :func:`hop_log_density` does.  Proposal or
    density failures at the proposed point reject the move, mirroring the
    symmetric failure handling of the hug kernel.

    The state is finite, and y, l(y) and its gradient are checked before the
    densities, so the target's trusted methods and the unchecked density
    are used throughout.  The Hessian variant reads the metric at x from the
    state's cache, and an accepted move caches the one built at y.
    """
    x = state.position
    g_x = state.ensure_grad(target)
    y = log_ratio = y_logp = y_grad = metric_y = None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            metric_x = (
                state.ensure_metric(target, params.eps, local_covariance)
                if params.use_hessian
                else None
            )
            y = hop_propose(x, g_x, params, rng, metric_x)
            if all_finite(y):
                y_logp, y_grad = target._value_and_grad(y)
                if math.isfinite(y_logp) and all_finite(y_grad):
                    metric_y = (
                        local_covariance(target._hessian(y), params.eps)
                        if params.use_hessian
                        else None
                    )
                    fwd = _hop_log_density(x, y, g_x, params, metric_x)
                    rev = _hop_log_density(y, x, y_grad, params, metric_y)
                    log_ratio = (y_logp - state.logp) + rev - fwd
        except (FactorizationError, ZeroGradientError, NonFiniteInputError) as exc:
            logger.warning("hop: proposal rejected (%s)", exc)

    return finish_step(
        rng, state, log_ratio, x.copy() if y is None else y, y_logp, y_grad, metric_y
    )


class HopKernel(Kernel):
    """Hop with fixed :class:`HopParams`."""

    name = "hop"
    step_fn = staticmethod(hop_kernel_step)
