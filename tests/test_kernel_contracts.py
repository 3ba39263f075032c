"""Contracts every shipped kernel keeps, whatever its mode.

* A target's trusted ``_value_and_grad``, which the kernels call on
  proposals, gives the bits of the public log-density and gradient, and its
  ``_grad_and_hessian``, which a Hessian hug bounce calls, the bits of the
  trusted gradient and Hessian.
* The chain state's caches agree exactly with the target: after every step
  ``state.logp`` is the log-density at ``state.position``, ``state.grad``
  is either unset or the gradient there, and ``state.metric`` is either
  unset or the local metric there for its floor.  A Hessian hug step from a
  state whose metric is cached gives the outcome of one from a fresh state.
* A proposal whose log-density, gradient or Hessian is non-finite is
  rejected without raising, the state is kept, and the kernel logs the same
  warnings as it always has (none where the non-finite value is caught by a
  plain test, one where a checked replay or a metric raised).
"""

import logging
import tracemalloc

import numpy as np
import pytest

from hughop.baselines import HmcKernel, HmcParams, RwmKernel, RwmParams
from hughop.exceptions import NoHessianError
from hughop.harness import make_kernel
from hughop.hug import HugKernel, HugParams
from hughop.metric import local_covariance
from hughop.models import (
    CauchitPosterior,
    RaschPosterior,
    SpatialProbitModel,
    simulate_cauchit,
    simulate_rasch,
    simulate_spatial,
)
from hughop.state import ChainState
from hughop.targets import GaussianDiag, TargetModel, make_target


def _spd(dim: int) -> list:
    return (0.5 * np.eye(dim) + 0.1 * np.ones((dim, dim))).tolist()


def kernel_specs(dim: int) -> dict:
    """Every shipped kernel, hug mode and velocity, hop guard and metric,
    RWM covariance and HMC mass, with each fixed covariance given both as a
    matrix and as a vector."""
    return {
        "hug-plain": {"kernel": "hug", "T": 0.5, "B": 4},
        "hug-precond": {"kernel": "hug", "T": 0.5, "B": 4, "mode": "precond",
                        "precond_cov": _spd(dim)},
        "hug-precond-diag": {"kernel": "hug", "T": 0.5, "B": 4, "mode": "precond",
                             "precond_cov": np.linspace(0.5, 2.0, dim).tolist()},
        "hug-hessian": {"kernel": "hug", "T": 0.5, "B": 4, "mode": "hessian"},
        "hug-hessian-isotropic": {"kernel": "hug", "T": 0.5, "B": 4, "mode": "hessian",
                                  "velocity": "isotropic"},
        "hop-plus1": {"kernel": "hop", "lambda": 1.0, "kappa": 0.5},
        "hop-raw": {"kernel": "hop", "lambda": 1.0, "kappa": 0.5, "guard": "raw"},
        "hop-hessian": {"kernel": "hop", "lambda": 1.0, "kappa": 0.5, "hessian": True},
        "rwm-none": {"kernel": "rwm", "step_scale": 0.3},
        "rwm-fixed": {"kernel": "rwm", "step_scale": 0.3, "local_cov": "fixed", "cov": _spd(dim)},
        "rwm-fixed-diag": {"kernel": "rwm", "step_scale": 0.3, "local_cov": "fixed",
                           "cov": np.linspace(0.5, 2.0, dim).tolist()},
        "rwm-hessian": {"kernel": "rwm", "step_scale": 0.3, "local_cov": "hessian"},
        "mala": {"kernel": "mala", "step_scale": 0.3},
        "hmc-identity": {"kernel": "hmc", "L": 4, "step_size": 0.1},
        "hmc-diag-mass": {"kernel": "hmc", "L": 4, "step_size": 0.1,
                          "mass_matrix": np.linspace(0.5, 2.0, dim).tolist()},
        "hmc-full-mass": {"kernel": "hmc", "L": 4, "step_size": 0.1, "mass_matrix": _spd(dim)},
    }


def _spatial_target(rng):
    data = simulate_spatial(3, 3, float(np.log(2.0)), float(np.log(0.2)), 1.0, rng)
    return SpatialProbitModel(data).conditional_target((np.log(2.0), np.log(0.2)))


TARGETS = {
    "gauss": lambda rng: make_target({"target": "gauss", "scales": "L", "dim": 4}),
    "lg": lambda rng: make_target({"target": "lg", "a": 2.0, "scales": "L", "dim": 5}),
    "qg": lambda rng: make_target({"target": "qg", "scales": "L", "dim": 3}),
    "banana-embedded": lambda rng: make_target(
        {"target": "banana", "dim": 4, "scales": [1.0, 0.5, 1.0, 2.0]}),
    "cauchit": lambda rng: CauchitPosterior(simulate_cauchit(40, 4, 1.0, rng)),
    "rasch": lambda rng: RaschPosterior(simulate_rasch(4, 5, 1.0, rng)),
    "spatial": _spatial_target,
}


@pytest.mark.parametrize("name", list(TARGETS))
def test_value_and_grad_gives_the_bits_of_the_two_calls(name):
    rng = np.random.default_rng(30)
    target = TARGETS[name](rng)
    for _ in range(5):
        x = rng.standard_normal(target.dim)
        value, grad = target._value_and_grad(x)
        assert value == target.log_density(x)
        np.testing.assert_array_equal(grad, target.gradient(x))


class NoHessian(TargetModel):
    """Standard normal without a Hessian."""

    name = "no-hessian"
    dim = 3

    def _log_density(self, x):
        return -0.5 * float(x @ x)

    def _gradient(self, x):
        return -x


@pytest.mark.parametrize("name", [*TARGETS, "no-hessian"])
def test_grad_and_hessian_gives_the_bits_of_the_two_calls(name):
    rng = np.random.default_rng(32)
    target = NoHessian() if name == "no-hessian" else TARGETS[name](rng)
    for _ in range(5):
        x = rng.standard_normal(target.dim)
        try:
            hess = target._hessian(x)
        except NoHessianError:
            with pytest.raises(NoHessianError):
                target._grad_and_hessian(x)
            continue
        grad_both, hess_both = target._grad_and_hessian(x)
        np.testing.assert_array_equal(grad_both, target._gradient(x))
        np.testing.assert_array_equal(hess_both, hess)
        assert hess_both.shape == hess.shape


def _same_metric(cached, fresh) -> bool:
    return np.array_equal(cached.eigvals, fresh.eigvals) and cached.log_det == fresh.log_det


@pytest.mark.parametrize("name", list(TARGETS))
def test_cached_state_matches_target_after_every_step(name):
    rng = np.random.default_rng(31)
    target = TARGETS[name](rng)
    kernels = [make_kernel(spec, dim=target.dim, where=label)
               for label, spec in kernel_specs(target.dim).items()]
    state = ChainState.at(target, 0.3 * rng.standard_normal(target.dim))
    accepted = with_metric = 0
    for sweep in range(15):
        for kernel in kernels:
            state, outcome = kernel.step(target, state, rng)
            accepted += outcome.accepted
            where = f"{name}, sweep {sweep}, after {kernel.name}"
            assert np.array_equal(state.logp, target.log_density(state.position)), where
            assert state.grad is None or np.array_equal(
                state.grad, target.gradient(state.position)), where
            if state.metric is not None:
                with_metric += 1
                fresh = local_covariance(target._hessian(state.position), state.metric.eps)
                assert _same_metric(state.metric, fresh), where
    assert accepted > 0
    assert with_metric > 0


@pytest.mark.parametrize("name", ["lg", "banana-embedded", "cauchit"])
@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_hessian_hug_step_is_the_same_from_a_warm_and_a_cold_state(name, eps):
    target = TARGETS[name](np.random.default_rng(33))
    kernel = make_kernel({**kernel_specs(target.dim)["hug-hessian"], "eps": eps}, dim=target.dim)
    rng = np.random.default_rng(34)
    accepted = 0
    for _ in range(10):
        x = 0.3 * rng.standard_normal(target.dim)
        cold = ChainState.at(target, x)
        warm = ChainState.at(target, x)
        warm.ensure_metric(target, eps, local_covariance)
        seed = int(rng.integers(2**32))
        cold_state, cold_outcome = kernel.step(target, cold, np.random.default_rng(seed))
        warm_state, warm_outcome = kernel.step(target, warm, np.random.default_rng(seed))
        np.testing.assert_array_equal(warm_outcome.proposal, cold_outcome.proposal)
        assert warm_outcome.log_alpha == cold_outcome.log_alpha
        assert warm_outcome.accepted == cold_outcome.accepted
        accepted += cold_outcome.accepted
        np.testing.assert_array_equal(warm_state.position, cold_state.position)
        assert warm_state.logp == cold_state.logp
        assert _same_metric(warm_state.metric, cold_state.metric)
    assert accepted > 0


class Poisoned(TargetModel):
    """Standard normal whose log-density, gradient or Hessian is NaN at every
    point other than ``start``; the ``logp_inf`` poison makes the
    log-density +inf there instead."""

    name = "poisoned"

    def __init__(self, start, poison: str):
        self.start = np.asarray(start, dtype=float)
        self.dim = self.start.size
        self.poison = poison

    def _away(self, x) -> bool:
        return not np.array_equal(x, self.start)

    def _log_density(self, x):
        if self.poison in ("logp", "logp_inf") and self._away(x):
            return np.nan if self.poison == "logp" else np.inf
        return -0.5 * float(x @ x)

    def _gradient(self, x):
        return np.full(self.dim, np.nan) if self.poison == "grad" and self._away(x) else -x

    def _hessian(self, x):
        if self.poison == "hess" and self._away(x):
            return np.full((self.dim, self.dim), np.nan)
        return -np.eye(self.dim)


GRADIENT_WARNING = {
    "hug": "hug: trajectory rejected (non-finite gradient at bounce point (step 0))",
    "hmc": "hmc: trajectory rejected (non-finite gradient in leapfrog (step 0))",
}
HESSIAN_WARNING = {
    "hug": "hug: trajectory rejected (Hessian contains non-finite entries)",
    "hop": "hop: proposal rejected (Hessian contains non-finite entries)",
    "rwm": "rwm: proposal rejected (Hessian contains non-finite entries)",
}
POISONED_CASES = [
    (label, poison)
    for label in ("hug-plain", "hug-precond", "hug-precond-diag", "hug-hessian", "hop-plus1",
                  "hop-hessian", "hmc-identity", "mala", "rwm-fixed-diag", "rwm-hessian")
    for poison in ("logp", "logp_inf", "grad", "hess")
    if poison != "hess" or "hessian" in label
    if poison != "grad" or not label.startswith("rwm")
]


@pytest.mark.parametrize("label,poison", POISONED_CASES)
def test_non_finite_proposal_rejects_with_the_same_warnings(label, poison, caplog):
    target = Poisoned([0.3, -0.2, 0.5], poison)
    kernel = make_kernel(kernel_specs(3)[label], dim=3, where=label)
    state = ChainState.at(target, target.start)
    state.ensure_grad(target)
    with caplog.at_level(logging.WARNING, logger="hughop"):
        new_state, outcome = kernel.step(target, state, np.random.default_rng(0))
    assert not outcome.accepted
    assert outcome.log_alpha == -np.inf
    assert new_state is state
    np.testing.assert_array_equal(new_state.position, target.start)
    if kernel.name == "hug":
        assert outcome.extras == {"zero_grad_bounces": 0}
    warnings = {"grad": GRADIENT_WARNING, "hess": HESSIAN_WARNING}.get(poison, {})
    expected = [warnings[kernel.name]] if kernel.name in warnings else []
    assert [record.getMessage() for record in caplog.records] == expected


class Flat(TargetModel):
    """Constant log-density: every gradient is zero."""

    name = "flat"

    def __init__(self, dim: int):
        self.dim = dim

    def _log_density(self, x):
        return 0.0

    def _gradient(self, x):
        return np.zeros(self.dim)

    def _hessian(self, x):
        return np.zeros((self.dim, self.dim))


def test_hug_counts_zero_gradient_bounces_in_extras():
    target = Flat(3)
    kernel = make_kernel({"kernel": "hug", "T": 0.5, "B": 4}, dim=3)
    state = ChainState.at(target, np.zeros(3))
    new_state, outcome = kernel.step(target, state, np.random.default_rng(1))
    assert outcome.extras == {"zero_grad_bounces": 4}
    assert outcome.accepted  # unreflected, the velocity and density are unchanged
    assert new_state.logp == 0.0


VECTOR_COVARIANCE_KERNELS = {
    "hug-precond-diag": lambda cov: HugKernel(HugParams(0.5, 4, mode="precond", precond_cov=cov)),
    "rwm-fixed-diag": lambda cov: RwmKernel(RwmParams(0.3, local_cov="fixed", cov=cov)),
    "hmc-diag-mass": lambda cov: HmcKernel(HmcParams(4, 0.1, mass_matrix=cov)),
}


@pytest.mark.parametrize("label", list(VECTOR_COVARIANCE_KERNELS))
def test_vector_covariance_step_allocates_no_dense_matrix(label):
    # at d = 2000 one dense d x d array is 32 MB; a vector covariance is
    # built, and a step taken, in O(d) memory
    dim = 2000
    target = GaussianDiag(scales=1.0, dim=dim)
    state = ChainState.at(target, np.full(dim, 0.1))
    cov = np.linspace(0.5, 2.0, dim)
    rng = np.random.default_rng(35)
    tracemalloc.start()
    try:
        kernel = VECTOR_COVARIANCE_KERNELS[label](cov)
        kernel.step(target, state, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{label}: peak {peak / 2**20:.1f} MiB"
    assert kernel.params.metric.eigvecs is None
