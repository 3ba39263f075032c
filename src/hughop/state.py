"""Chain state, step outcome and the kernel wrapper shared by all kernels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .targets import TargetModel

__all__ = ["ChainState", "StepOutcome", "Kernel"]


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

    ``log_alpha`` is the log acceptance probability, capped at zero.
    """

    proposal: np.ndarray
    log_alpha: float
    accepted: bool
    extras: dict = field(default_factory=dict)

    @property
    def alpha(self) -> float:
        """Acceptance probability min(1, r)."""
        return float(np.exp(self.log_alpha))


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
