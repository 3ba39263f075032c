"""Leapfrog integrator and the HMC / RWM / MALA reference kernels."""

from collections import Counter

import numpy as np
import pytest

from hughop.baselines import (
    HmcParams,
    MalaParams,
    RwmParams,
    hmc_step,
    leapfrog,
    mala_step,
    rwm_step,
)
from hughop.exceptions import TrajectoryError
from hughop.hug import HugParams, hug_kernel_step
from hughop.state import ChainState
from hughop.targets import GaussianDiag, QuarticGaussian, make_target

from conftest import CountingTarget

LG4 = make_target({"target": "lg", "a": 2.0, "scales": "L", "dim": 4})
BANANA4 = make_target({"target": "banana", "dim": 4, "scales": [1.0, 0.5, 1.0, 2.0]})
MASSES = {
    "identity": None,
    "diag": np.array([0.5, 2.0, 1.0, 1.5]),
    "full": np.array([[1.0, 0.3, 0.0, 0.1],
                      [0.3, 2.0, 0.4, 0.0],
                      [0.0, 0.4, 0.8, 0.2],
                      [0.1, 0.0, 0.2, 1.5]]),
}


def textbook_leapfrog(target, x, p, n_steps, step_size, mass):
    """The leapfrog of Neal (2011), "MCMC using Hamiltonian dynamics",
    transcribed: each step kicks p by half a step, drifts x by a step of
    M^-1 p and kicks p by half a step again."""
    mass = np.eye(x.size) if mass is None else np.diag(mass) if mass.ndim == 1 else mass
    for _ in range(n_steps):
        p = p + 0.5 * step_size * target.gradient(x)
        x = x + step_size * np.linalg.solve(mass, p)
        p = p + 0.5 * step_size * target.gradient(x)
    return x, p


class TestLeapfrog:
    def test_tiny_step_is_identity(self, rng):
        target = GaussianDiag(scales=1.0, dim=3)
        x = rng.standard_normal(3)
        p = rng.standard_normal(3)
        x1, p1, _, _ = leapfrog(target, x, p, HmcParams(n_steps=1, step_size=1e-8))
        np.testing.assert_allclose(x1, x, atol=1e-7)
        np.testing.assert_allclose(p1, p, atol=1e-7)

    def test_reversibility(self, rng):
        target = GaussianDiag(scales=[1.0, 2.0], )
        params = HmcParams(n_steps=25, step_size=0.1)
        x0 = rng.standard_normal(2)
        p0 = rng.standard_normal(2)
        x1, p1, _, _ = leapfrog(target, x0, p0, params)
        x2, p2, _, _ = leapfrog(target, x1, -p1, params)
        np.testing.assert_allclose(x2, x0, atol=1e-10)
        np.testing.assert_allclose(-p2, p0, atol=1e-10)

    def test_energy_error_second_order(self):
        # 1D standard Gaussian, fixed T=1: Hamiltonian error ~ step^2
        target = GaussianDiag(scales=1.0, dim=1)
        x0, p0 = np.array([1.0]), np.array([0.0])

        def ham(x, p):
            return -target.log_density(x) + 0.5 * float(p @ p)

        errors = []
        steps = [0.2, 0.1, 0.05, 0.025]
        for step in steps:
            n = int(round(1.0 / step))
            x1, p1, _, _ = leapfrog(target, x0, p0, HmcParams(n_steps=n, step_size=step))
            errors.append(abs(ham(x1, p1) - ham(x0, p0)))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_blowup_names_the_first_failing_step(self):
        # in the tail of an x^4 target the leapfrog overflows after a few
        # steps; the error names the step that a check after every step finds
        target = QuarticGaussian(a=3.0, scales=1.0, dim=2)
        params = HmcParams(n_steps=20, step_size=0.5)
        x, p = np.array([3.0, 3.0]), np.array([1.0, 1.0])
        first_bad = None
        with np.errstate(all="ignore"):
            g = target.gradient(x)
            for step in range(params.n_steps):
                p_half = p + 0.5 * params.step_size * g
                x = x + params.step_size * p_half
                g = target._gradient(x)
                p = p_half + 0.5 * params.step_size * g
                if not (np.isfinite(x).all() and np.isfinite(g).all() and np.isfinite(p).all()):
                    first_bad = step
                    break
        assert first_bad is not None and first_bad > 0
        with pytest.raises(TrajectoryError) as info:
            leapfrog(target, np.array([3.0, 3.0]), np.array([1.0, 1.0]), params)
        assert info.value.step_index == first_bad

    @pytest.mark.parametrize("mass", [None, np.array([2.0, 0.5, 1.0])], ids=["identity", "diag"])
    def test_infinite_momentum_fails_at_the_first_position(self, mass):
        # the checked replay calls the trusted gradient only at a position
        # that has passed its finiteness check
        params = HmcParams(n_steps=5, step_size=0.1, mass_matrix=mass)
        with pytest.raises(TrajectoryError, match=r"non-finite position in leapfrog \(step 0\)"):
            leapfrog(GaussianDiag(1.0, dim=3), np.zeros(3), np.array([np.inf, 0.0, 0.0]), params)

    def test_mass_matrix_diag_equals_full(self, rng):
        target = GaussianDiag(scales=[1.0, 3.0])
        x = rng.standard_normal(2)
        p = rng.standard_normal(2)
        diag = HmcParams(n_steps=5, step_size=0.1, mass_matrix=np.array([2.0, 0.5]))
        full = HmcParams(n_steps=5, step_size=0.1, mass_matrix=np.diag([2.0, 0.5]))
        xa, pa, _, _ = leapfrog(target, x, p, diag)
        xb, pb, _, _ = leapfrog(target, x, p, full)
        np.testing.assert_allclose(xa, xb, atol=1e-12)
        np.testing.assert_allclose(pa, pb, atol=1e-12)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 7])
@pytest.mark.parametrize("mass", list(MASSES))
@pytest.mark.parametrize("target", [LG4, BANANA4], ids=["lg4", "banana4"])
def test_leapfrog_is_the_textbook_loop(target, mass, n_steps, rng):
    # the integrator merges the half-kicks that meet between steps and
    # applies a cached inverse mass, so it matches the textbook loop up to
    # rounding; the endpoint gradient and log-density are the target's there
    params = HmcParams(n_steps=n_steps, step_size=0.15, mass_matrix=MASSES[mass])
    factor = np.eye(4) if params.metric is None else params.metric.a
    for _ in range(5):
        x0, p0 = rng.standard_normal(4), factor.T @ rng.standard_normal(4)
        x1, p1, g1, logp1 = leapfrog(target, x0, p0, params)
        x_ref, p_ref = textbook_leapfrog(target, x0, p0, n_steps, 0.15, MASSES[mass])
        assert np.linalg.norm(x1 - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.linalg.norm(p1 - p_ref) <= 1e-12 * np.linalg.norm(p_ref)
        np.testing.assert_array_equal(g1, target.gradient(x1))
        assert logp1 == target.log_density(x1)


@pytest.mark.parametrize("n_steps", [1, 2, 7])
@pytest.mark.parametrize("mass", list(MASSES))
def test_hmc_step_target_calls(mass, n_steps, rng):
    # from a state with a cached gradient, L steps cost L - 1 gradients and
    # one fused value and gradient at the endpoint, and nothing else
    target = CountingTarget(LG4)
    state = ChainState.at(target, rng.standard_normal(4))
    state.ensure_grad(target)
    params = HmcParams(n_steps=n_steps, step_size=0.15, mass_matrix=MASSES[mass])
    target.calls.clear()
    hmc_step(target, state, params, rng)
    assert target.calls == Counter(_gradient=n_steps - 1, _value_and_grad=1)


class TestHmcStep:
    def test_zero_steps_always_accepts(self, rng):
        target = GaussianDiag(scales=1.0, dim=3)
        state = ChainState.at(target, rng.standard_normal(3))
        new, outcome = hmc_step(target, state, HmcParams(0, 0.1), rng)
        assert outcome.accepted and outcome.log_alpha == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(new.position, state.position)

    def test_stationary_moments(self, rng):
        target = GaussianDiag(scales=1.0, dim=5)
        params = HmcParams(10, 0.2)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        draws = np.empty((20_000, 5))
        for i in range(draws.shape[0]):
            state, _ = hmc_step(target, state, params, rng)
            draws[i] = state.position
        assert np.max(np.abs(draws.mean(axis=0))) < 0.06
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.06)

    def test_light_tail_instability_vs_hug(self, rng):
        # far in the tail of an x^4 target the leapfrog blows up while the
        # bounce trajectory, which only sees the gradient direction, stays
        # finite
        target = QuarticGaussian(a=3.0, scales=1.0, dim=2)
        start = np.array([8.0, 8.0])
        with np.errstate(over="ignore"):
            state = ChainState.at(target, start)

        _, hmc_out = hmc_step(target, state, HmcParams(20, 0.5), rng)
        assert not hmc_out.accepted
        assert not np.isfinite(hmc_out.extras["energy_error"]) or hmc_out.extras[
            "energy_error"
        ] < -1e6

        _, hug_out = hug_kernel_step(target, state, HugParams(1.0, 10), rng)
        assert np.isfinite(hug_out.log_alpha)
        assert np.all(np.isfinite(hug_out.proposal))


class TestRwmStep:
    def test_symmetric_ratio_is_density_difference(self, rng):
        target = GaussianDiag(scales=1.0, dim=2)
        state = ChainState.at(target, np.array([0.5, -0.5]))
        new, outcome = rwm_step(target, state, RwmParams(step_scale=0.7), rng)
        expect = target.log_density(outcome.proposal) - state.logp
        assert outcome.log_alpha == pytest.approx(min(0.0, expect), abs=1e-12)

    def test_classic_1d_acceptance_band(self, rng):
        target = GaussianDiag(scales=1.0, dim=1)
        params = RwmParams(step_scale=2.4)
        state = ChainState.at(target, np.zeros(1))
        accepted = 0
        n = 20_000
        for _ in range(n):
            state, outcome = rwm_step(target, state, params, rng)
            accepted += outcome.accepted
        assert 0.35 <= accepted / n <= 0.55

    def test_hessian_covariance_matches_fixed_on_gaussian(self):
        # constant Hessian: the local covariance equals the fixed one, so
        # identical seeds give identical trajectories
        scales = np.array([0.5, 2.0])
        target = GaussianDiag(scales=scales)
        fixed = RwmParams(step_scale=0.8, local_cov="fixed", cov=np.diag(scales**2))
        hess = RwmParams(step_scale=0.8, local_cov="hessian")
        xs = {}
        for name, params in (("fixed", fixed), ("hessian", hess)):
            rng = np.random.default_rng(31)
            state = ChainState.at(target, np.array([1.0, 1.0]))
            path = []
            for _ in range(500):
                state, _ = rwm_step(target, state, params, rng)
                path.append(state.position.copy())
            xs[name] = np.array(path)
        np.testing.assert_allclose(xs["fixed"], xs["hessian"], atol=1e-10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RwmParams(step_scale=0.0)
        with pytest.raises(ValueError):
            RwmParams(step_scale=1.0, local_cov="fixed")
        with pytest.raises(ValueError):
            RwmParams(step_scale=1.0, local_cov="banana")

    @pytest.mark.parametrize(
        "cov,error",
        [
            (np.ones((2, 3)), "square"),
            (np.ones((2, 2, 2)), "square"),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.diag([1.0, -1.0]), "positive definite"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
        ],
    )
    def test_fixed_cov_validated_at_construction(self, cov, error):
        with pytest.raises(ValueError, match=error):
            RwmParams(step_scale=1.0, local_cov="fixed", cov=cov)

    def test_fixed_cov_factor_computed_once(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        params = RwmParams(step_scale=1.0, local_cov="fixed", cov=cov)
        eigvals, eigvecs = np.linalg.eigh(cov)
        np.testing.assert_array_equal(params.metric.eigvals, eigvals)
        np.testing.assert_array_equal(params.metric.eigvecs, eigvecs)
        np.testing.assert_array_equal(params.metric.inverse, np.linalg.inv(cov))


class TestMalaStep:
    def test_ratio_antisymmetry_at_mode(self, rng):
        target = GaussianDiag(scales=1.0, dim=3)
        params = MalaParams(step_scale=0.8)
        s = params.step_scale

        def log_ratio(x, y):
            g_x, g_y = target.gradient(x), target.gradient(y)
            fwd = -0.5 * np.sum((y - x - 0.5 * s**2 * g_x) ** 2) / s**2
            rev = -0.5 * np.sum((x - y - 0.5 * s**2 * g_y) ** 2) / s**2
            return target.log_density(y) - target.log_density(x) + rev - fwd

        for _ in range(30):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert log_ratio(x, y) == pytest.approx(-log_ratio(y, x), abs=1e-10)

    def test_small_step_acceptance_approaches_one(self, rng):
        target = GaussianDiag(scales=1.0, dim=4)
        params = MalaParams(step_scale=1e-3)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        state.ensure_grad(target)
        accepted = 0
        n = 3000
        for _ in range(n):
            state, outcome = mala_step(target, state, params, rng)
            accepted += outcome.accepted
        assert accepted / n > 0.999

    def test_stationary_moments(self, rng):
        target = GaussianDiag(scales=1.0, dim=5)
        params = MalaParams(step_scale=0.9)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        state.ensure_grad(target)
        draws = np.empty((30_000, 5))
        for i in range(draws.shape[0]):
            state, _ = mala_step(target, state, params, rng)
            draws[i] = state.position
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)
