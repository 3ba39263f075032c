"""Chain state, step outcome, the Metropolis-Hastings finish and the kernel
wrapper shared by all kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .targets import TargetModel

__all__ = ["ChainState", "StepOutcome", "Kernel", "finish_step", "log_acceptance"]


@dataclass
class ChainState:
    """Current position with cached log-density and (lazily) its gradient.

    Kernels read the caches instead of re-evaluating the target; the gradient
    is filled in on first use so gradient-free kernels never pay for it.

    The position is finite by construction: :meth:`at` validates it, and a
    kernel builds a new state only from a proposal it has checked.  So the
    target's trusted methods may be called on it, and ``logp`` and ``grad``
    equal what the public methods return there.
    """

    position: np.ndarray
    logp: float
    grad: np.ndarray | None = None

    @classmethod
    def at(cls, target: TargetModel, x, with_grad: bool = False) -> "ChainState":
        x = np.asarray(x, dtype=float)
        state = cls(position=x, logp=target.log_density(x))
        if with_grad:
            state.grad = target.gradient(x)
        return state

    def ensure_grad(self, target: TargetModel) -> np.ndarray:
        if self.grad is None:
            self.grad = target._gradient(self.position)
        return self.grad


@dataclass
class StepOutcome:
    """Result of one Metropolis-Hastings kernel application.

    A kernel's ``step`` returns ``(state, outcome)``.  ``proposal`` is the
    point proposed (the start when no proposal could be formed),
    ``log_alpha`` the log acceptance probability, capped at zero and -inf
    for a failed proposal, ``accepted`` whether the chain moved, and
    :attr:`alpha` the acceptance probability.  ``extras`` holds per-kernel
    values: ``energy_error`` for HMC, ``zero_grad_bounces`` (the bounces
    that met a zero gradient, 0 on a failed step) for hug.
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
    if np.isnan(log_alpha) or log_alpha == -np.inf:
        return False
    if u == 0.0:
        return True
    return np.log(u) < log_alpha


def finish_step(
    rng, state: ChainState, log_ratio, proposal, logp=None, grad=None, **extras
) -> tuple[ChainState, StepOutcome]:
    """The Metropolis-Hastings finish that ends every kernel's step.

    Caps ``log_ratio`` with :func:`log_acceptance` and draws one uniform
    whatever it is.  The chain moves to ``proposal``, caching its
    log-density ``logp`` and gradient ``grad``, only when the draw accepts
    and ``logp`` is finite.  ``extras`` become the outcome's ``extras``.
    """
    log_alpha = log_acceptance(log_ratio)
    if metropolis_accept(rng, log_alpha) and math.isfinite(logp):
        new_state = ChainState(position=proposal, logp=float(logp), grad=grad)
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
