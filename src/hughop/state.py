"""Chain state, step outcome, the Metropolis-Hastings finish and the kernel
wrapper shared by all kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import LocalMetric
from .targets import TargetModel

__all__ = [
    "ChainState", "StepOutcome", "Kernel", "finish_step", "log_acceptance", "all_finite",
]

# Where a gradient counts as zero: hug leaves the velocity unreflected and hop
# drops the along-gradient part of its jump.
ZERO_GRAD_TOL = 1e-12


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a 1-d float array, mostly at the cost of
    one dot product.

    Exact: a finite a . a means every entry is finite, since a NaN or an
    infinite entry makes the sum of squares NaN or infinite.  A non-finite
    a . a, from such an entry or from finite entries whose squares overflow,
    falls through to the entry-by-entry test.  Squares that overflow set
    numpy's overflow flag, which the kernels' ``errstate`` ignores.
    """
    return math.isfinite(a.dot(a)) or bool(np.isfinite(a).all())


@dataclass
class ChainState:
    """Current position with cached log-density and, lazily, its gradient
    and local metric.

    Kernels read the caches instead of re-evaluating the target.  The
    gradient and the metric are filled in on first use, so kernels that do
    not need them never pay for them, and :func:`finish_step` passes on the
    ones a kernel already computed at its proposal.

    The position is finite by construction: :meth:`at` validates it, and a
    kernel builds a new state only from a proposal it has checked.  So the
    target's trusted methods may be called on it, and ``logp`` and ``grad``
    equal what the public methods return there.  ``metric`` is ``None`` or
    the :class:`~hughop.metric.LocalMetric` that ``local_covariance`` builds
    from the Hessian there with the floor ``metric.eps``, its cache key.  A
    state belongs to one target: the caches are never checked against it.
    """

    position: np.ndarray
    logp: float
    grad: np.ndarray | None = None
    metric: LocalMetric | None = None

    @classmethod
    def at(cls, target: TargetModel, x) -> "ChainState":
        x = np.asarray(x, dtype=float)
        return cls(position=x, logp=target.log_density(x))

    def ensure_grad(self, target: TargetModel) -> np.ndarray:
        if self.grad is None:
            self.grad = target._gradient(self.position)
        return self.grad

    def ensure_metric(self, target: TargetModel, eps: float, build) -> LocalMetric:
        """The local metric at the position for the floor ``eps``.

        On a miss (no metric cached, or one built with another floor) it is
        ``build(target._hessian(position), eps)``, the calling kernel's
        ``local_covariance``, and is cached.  A ``build`` that raises leaves
        the cache as it was.
        """
        if self.metric is None or self.metric.eps != eps:
            self.metric = build(target._hessian(self.position), eps)
        return self.metric


@dataclass
class StepOutcome:
    """Result of one Metropolis-Hastings kernel application.

    A kernel's ``step`` returns ``(state, outcome)``.  ``proposal`` is the
    point proposed (the start when no proposal could be formed),
    ``log_alpha`` the log acceptance probability, capped at zero and -inf
    for a failed proposal, ``accepted`` whether the chain moved, and
    :attr:`alpha` the acceptance probability.  ``extras`` holds per-kernel
    values: ``energy_error`` for HMC, ``zero_grad_bounces`` (the bounces
    left unreflected at a g . g, or g' S g, at or below
    ``ZERO_GRAD_TOL**2``; 0 on a failed step) for hug.
    """

    proposal: np.ndarray
    log_alpha: float
    accepted: bool
    extras: dict = field(default_factory=dict)

    @property
    def alpha(self) -> float:
        """Acceptance probability min(1, r)."""
        return float(np.exp(self.log_alpha))


def log_acceptance(log_ratio: float | None) -> float:
    """log alpha = min(0, log r).  A ratio that is ``None`` (no proposal) or
    not finite, +inf included, gives -inf; :func:`metropolis_accept` on its
    own would accept +inf."""
    if log_ratio is None or not math.isfinite(log_ratio):
        return -math.inf
    return min(0.0, log_ratio)


def metropolis_accept(rng: np.random.Generator, log_alpha: float) -> bool:
    """Single accept/reject decision; always consumes one uniform draw."""
    u = rng.random()
    if log_alpha >= 0.0:
        return True
    if math.isnan(log_alpha) or log_alpha == -math.inf:
        return False
    if u == 0.0:
        return True
    return np.log(u) < log_alpha


def finish_step(
    rng, state: ChainState, log_ratio, proposal, logp=None, grad=None, metric=None, **extras
) -> tuple[ChainState, StepOutcome]:
    """The Metropolis-Hastings finish that ends every kernel's step, and the
    one place where a kernel builds an accepted state.

    Caps ``log_ratio`` with :func:`log_acceptance` and draws one uniform
    whatever it is.  The chain moves to ``proposal`` only when the draw
    accepts and ``logp`` is finite.  The new state caches the log-density
    ``logp``, and the gradient ``grad`` and local metric ``metric`` that the
    kernel computed at the checked ``proposal`` (``None`` when it did not).
    ``extras`` become the outcome's ``extras``.
    """
    log_alpha = log_acceptance(log_ratio)
    if metropolis_accept(rng, log_alpha) and math.isfinite(logp):
        new_state = ChainState(position=proposal, logp=float(logp), grad=grad, metric=metric)
        return new_state, StepOutcome(proposal, log_alpha, True, extras)
    return state, StepOutcome(proposal, log_alpha, False, extras)


class Kernel:
    """Stateless wrapper binding a kernel step function to fixed params.

    Subclasses set ``name`` and ``step_fn``, a static function
    ``(target, state, params, rng) -> (state, outcome)``.
    """

    name: str
    step_fn = None

    def __init__(self, params):
        self.params = params

    def step(self, target, state, rng):
        return self.step_fn(target, state, self.params, rng)


def kernel_labels(kernels) -> list[str]:
    """The kernels' names, a repeated one with a count: hug, hop, hop2."""
    labels = []
    for kernel in kernels:
        label = kernel.name
        if label in labels:
            label = f"{label}{sum(l.startswith(kernel.name) for l in labels) + 1}"
        labels.append(label)
    return labels
