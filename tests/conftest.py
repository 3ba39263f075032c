"""Shared oracles and helpers for the test-suite."""

from collections import Counter

import numpy as np
import pytest

from hughop.targets import TargetModel


def fd_gradient(f, x, step=None):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-5 * (1.0 + np.linalg.norm(x))
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def fd_jacobian(f, x, step=None):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-5 * (1.0 + np.linalg.norm(x))
    cols = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((np.asarray(f(up)) - np.asarray(f(down))) / (2.0 * h))
    return np.column_stack(cols)


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.max(np.abs(approx - exact)) / (1.0 + np.max(np.abs(exact)))


class CountingTarget(TargetModel):
    """Wraps a target and counts the calls of its trusted log-density and
    gradient methods.

    Each method delegates to the same method of the wrapped target, so a
    fused ``_value_and_grad`` counts once and not as its two parts.
    """

    def __init__(self, target: TargetModel):
        self.target = target
        self.dim = target.dim
        self.name = target.name
        self.calls = Counter()

    def _call(self, method, *args):
        self.calls[method] += 1
        return getattr(self.target, method)(*args)

    def _log_density(self, x):
        return self._call("_log_density", x)

    def _gradient(self, x):
        return self._call("_gradient", x)

    def _value_and_grad(self, x):
        return self._call("_value_and_grad", x)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
