"""Hop proposal algebra, densities against independent oracles, and the kernel."""

import numpy as np
import pytest
from scipy import stats

from hughop.exceptions import ZeroGradientError
from hughop.hop import (
    HopParams,
    hop_kernel_step,
    hop_log_density,
    hop_propose,
)
from hughop.metric import local_covariance
from hughop.state import ChainState
from hughop.targets import GaussianDiag, LogisticGaussian


def b_matrix(g, lam, mu):
    ghat = g / np.linalg.norm(g)
    return mu**2 * np.eye(g.size) + (lam**2 - mu**2) * np.outer(ghat, ghat)


class TestParams:
    def test_kappa_sets_mu(self):
        p = HopParams(lam=2.0, kappa=0.5)
        assert p.mu == pytest.approx(1.0)

    def test_exactly_one_of_kappa_mu(self):
        with pytest.raises(ValueError):
            HopParams(lam=2.0)
        with pytest.raises(ValueError):
            HopParams(lam=2.0, kappa=0.5, mu=1.0)

    def test_mu_strictly_positive(self):
        with pytest.raises(ValueError):
            HopParams(lam=2.0, mu=0.0)
        with pytest.raises(ValueError):
            HopParams(lam=-1.0, kappa=0.5)

    def test_guard_names(self):
        with pytest.raises(ValueError):
            HopParams(lam=1.0, kappa=0.5, guard="clip")


class TestBAlgebra:
    def test_square_root_squares_to_b(self, rng):
        lam, mu = 3.0, 0.7
        for _ in range(20):
            g = rng.standard_normal(10)
            ghat = g / np.linalg.norm(g)
            root = mu * np.eye(10) + (lam - mu) * np.outer(ghat, ghat)
            np.testing.assert_allclose(root @ root, b_matrix(g, lam, mu), atol=1e-12)

    def test_inverse_formula(self, rng):
        lam, mu = 3.0, 0.7
        for _ in range(20):
            g = rng.standard_normal(10)
            ghat = g / np.linalg.norm(g)
            inv = np.eye(10) / mu**2 + (1.0 / lam**2 - 1.0 / mu**2) * np.outer(ghat, ghat)
            np.testing.assert_allclose(
                b_matrix(g, lam, mu) @ inv, np.eye(10), atol=1e-12
            )

    def test_eigenstructure(self, rng):
        lam, mu = 2.5, 0.9
        g = rng.standard_normal(7)
        ghat = g / np.linalg.norm(g)
        b = b_matrix(g, lam, mu)
        np.testing.assert_allclose(b @ ghat, lam**2 * ghat, atol=1e-12)
        perp = rng.standard_normal(7)
        perp -= (perp @ ghat) * ghat
        np.testing.assert_allclose(b @ perp, mu**2 * perp, atol=1e-12)


class TestPropose:
    def test_isotropic_when_lam_equals_mu(self, rng):
        p = HopParams(lam=1.5, mu=1.5, guard="raw")
        x = np.zeros(3)
        g = np.array([2.0, 0.0, 0.0])
        draws = np.array([hop_propose(x, g, p, rng) for _ in range(100_000)])
        expect = 1.5**2 / 4.0  # lam^2 / ||g||^2 in every direction
        np.testing.assert_allclose(draws.var(axis=0), expect, rtol=0.03)
        assert np.max(np.abs(np.cov(draws.T) - expect * np.eye(3))) < 0.03 * expect

    def test_conditional_variances_along_and_across(self, rng):
        lam, mu = 2.0, 0.5
        p = HopParams(lam=lam, mu=mu, guard="raw")
        x = np.zeros(4)
        g = rng.standard_normal(4)
        gn2 = g @ g
        ghat = g / np.sqrt(gn2)
        perp = rng.standard_normal(4)
        perp -= (perp @ ghat) * ghat
        perp /= np.linalg.norm(perp)
        draws = np.array([hop_propose(x, g, p, rng) for _ in range(100_000)])
        along = draws @ ghat
        across = draws @ perp
        assert along.var() == pytest.approx(lam**2 / gn2, rel=0.03)
        assert across.var() == pytest.approx(mu**2 / gn2, rel=0.03)

    def test_one_dimensional_reduction(self, rng):
        # in d=1 the along-gradient scale is all that remains
        p = HopParams(lam=3.0, mu=1.0, guard="raw")
        draws = np.array(
            [hop_propose(np.zeros(1), np.array([2.0]), p, rng)[0] for _ in range(100_000)]
        )
        assert draws.var() == pytest.approx(9.0 / 4.0, rel=0.03)

    def test_raw_guard_zero_gradient_raises(self, rng):
        p = HopParams(lam=1.0, kappa=0.5, guard="raw")
        with pytest.raises(ZeroGradientError, match="plus1"):
            hop_propose(np.zeros(2), np.zeros(2), p, rng)

    def test_plus1_guard_shrinks_scale(self, rng):
        lam = 2.0
        p = HopParams(lam=lam, mu=lam, guard="plus1")
        g = np.array([3.0, 0.0])
        draws = np.array([hop_propose(np.zeros(2), g, p, rng) for _ in range(50_000)])
        np.testing.assert_allclose(draws.var(axis=0), lam**2 / 10.0, rtol=0.05)


class TestLogDensity:
    def test_matches_dense_mvn_oracle(self):
        p = HopParams(lam=2.0, mu=1.0, guard="raw")
        value = hop_log_density(
            np.zeros(2), np.array([1.0, 1.0]), np.array([1.0, 0.0]), p
        )
        oracle = stats.multivariate_normal(
            mean=[0.0, 0.0], cov=np.diag([4.0, 1.0])
        ).logpdf([1.0, 1.0])
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(-3.1560242469692907, abs=1e-10)

    def test_matches_dense_mvn_random_directions(self, rng):
        p = HopParams(lam=2.5, mu=0.8, guard="raw")
        for _ in range(25):
            d = 5
            x = rng.standard_normal(d)
            g = rng.standard_normal(d)
            y = rng.standard_normal(d)
            cov = b_matrix(g, p.lam, p.mu) / (g @ g)
            oracle = stats.multivariate_normal(mean=x, cov=cov).logpdf(y)
            ours = hop_log_density(x, y, g, p)
            assert ours == pytest.approx(oracle, abs=1e-9)

    def test_matches_dense_mvn_plus1_guard(self, rng):
        p = HopParams(lam=2.5, mu=0.8, guard="plus1")
        for _ in range(10):
            d = 4
            x = rng.standard_normal(d)
            g = rng.standard_normal(d)
            y = rng.standard_normal(d)
            cov = b_matrix(g, p.lam, p.mu) / (1.0 + g @ g)
            oracle = stats.multivariate_normal(mean=x, cov=cov).logpdf(y)
            assert hop_log_density(x, y, g, p) == pytest.approx(
                oracle, abs=1e-9
            )

    def test_isotropic_case_equals_gaussian(self, rng):
        p = HopParams(lam=1.5, mu=1.5, guard="raw")
        x = np.zeros(3)
        g = np.array([0.0, 2.0, 0.0])
        y = rng.standard_normal(3)
        var = 1.5**2 / 4.0
        oracle = np.sum(stats.norm(loc=0.0, scale=np.sqrt(var)).logpdf(y))
        assert hop_log_density(x, y, g, p) == pytest.approx(oracle, abs=1e-10)

    def test_hessian_variant_matches_dense_mvn(self, rng):
        # proposal covariance of the curvature-aware variant, built densely
        p = HopParams(lam=2.0, mu=0.9, guard="raw", use_hessian=True)
        target = LogisticGaussian(a=5.0, scales=[1.0, 0.5, 2.0])
        for _ in range(10):
            x = rng.standard_normal(3)
            y = x + 0.1 * rng.standard_normal(3)
            g = target.gradient(x)
            metric = local_covariance(target.hessian(x), 1e-6)
            sg = metric.sigma @ g
            gn2 = g @ sg
            cov = (p.mu**2 * metric.sigma + (p.lam**2 - p.mu**2) * np.outer(sg, sg) / gn2) / gn2
            oracle = stats.multivariate_normal(mean=x, cov=cov).logpdf(y)
            ours = hop_log_density(x, y, g, p, metric=metric)
            assert ours == pytest.approx(oracle, abs=1e-8)

    def test_hessian_proposal_covariance_empirical(self, rng):
        p = HopParams(lam=2.0, mu=0.9, guard="raw", use_hessian=True)
        target = GaussianDiag(scales=[1.0, 2.0])
        x = np.array([0.5, -1.0])
        g = target.gradient(x)
        metric = local_covariance(target.hessian(x), 1e-6)
        draws = np.array(
            [hop_propose(x, g, p, rng, metric=metric) for _ in range(100_000)]
        )
        sg = metric.sigma @ g
        gn2 = g @ sg
        cov = (p.mu**2 * metric.sigma + (p.lam**2 - p.mu**2) * np.outer(sg, sg) / gn2) / gn2
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05, atol=5e-4)


def eq6_log_ratio(target, x, y, p):
    """Closed-form raw-guard acceptance ratio for the plain hop."""
    g_x, g_y = target.gradient(x), target.gradient(y)
    gx2, gy2 = g_x @ g_x, g_y @ g_y
    d = x.size
    w = y - x
    return (
        target.log_density(y)
        - target.log_density(x)
        + 0.5 * d * np.log(gy2 / gx2)
        - 0.5 / p.mu**2 * (w @ w) * (gy2 - gx2)
        - 0.5 * (1.0 / p.lam**2 - 1.0 / p.mu**2) * ((w @ g_y) ** 2 - (w @ g_x) ** 2)
    )


def eq9_log_ratio(target, x, y, p):
    """Closed-form acceptance ratio for the curvature-aware hop.

    Only valid where the negative Hessian is strictly positive definite at
    both endpoints (exact-inverse branch of the local covariance).
    """
    g_x, g_y = target.gradient(x), target.gradient(y)
    h_x, h_y = target.hessian(x), target.hessian(y)
    m_x = local_covariance(h_x, p.eps)
    m_y = local_covariance(h_y, p.eps)
    assert not (m_x.regularized or m_y.regularized)
    gt_x2 = g_x @ m_x.sigma @ g_x
    gt_y2 = g_y @ m_y.sigma @ g_y
    d = x.size
    w = y - x
    return (
        target.log_density(y)
        - target.log_density(x)
        + 0.5 * d * np.log(gt_y2 / gt_x2)
        + 0.5 * (m_x.log_det - m_y.log_det)
        - 0.5 / p.mu**2 * (w @ (gt_x2 * h_x - gt_y2 * h_y) @ w)
        - 0.5 * (1.0 / p.lam**2 - 1.0 / p.mu**2) * ((w @ g_y) ** 2 - (w @ g_x) ** 2)
    )


class TestKernelStep:
    def test_ratio_antisymmetry(self, rng):
        target = GaussianDiag(scales=[1.0, 2.0, 0.5])
        p = HopParams(lam=2.0, kappa=0.5, guard="raw")

        def log_ratio(x, y):
            fwd = hop_log_density(x, y, target.gradient(x), p)
            rev = hop_log_density(y, x, target.gradient(y), p)
            return target.log_density(y) - target.log_density(x) + rev - fwd

        for _ in range(30):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert log_ratio(x, y) == pytest.approx(-log_ratio(y, x), abs=1e-10)

    def test_generic_ratio_equals_eq6_expansion(self, rng):
        target = GaussianDiag(scales=[0.5, 1.0, 1.5, 2.0])
        p = HopParams(lam=2.0, kappa=0.5, guard="raw")
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            fwd = hop_log_density(x, y, target.gradient(x), p)
            rev = hop_log_density(y, x, target.gradient(y), p)
            generic = target.log_density(y) - target.log_density(x) + rev - fwd
            assert generic == pytest.approx(eq6_log_ratio(target, x, y, p), abs=1e-8)

    def test_generic_ratio_equals_eq9_expansion(self, rng):
        # LG keeps -H strictly positive definite everywhere, so the
        # closed-form curvature expansion applies at any pair of points
        target = LogisticGaussian(a=5.0, scales=[1.0, 0.7, 1.4])
        p = HopParams(lam=2.0, kappa=0.5, guard="raw", use_hessian=True)
        for _ in range(50):
            x = rng.standard_normal(3)
            y = x + 0.3 * rng.standard_normal(3)
            m_x = local_covariance(target.hessian(x), p.eps)
            m_y = local_covariance(target.hessian(y), p.eps)
            fwd = hop_log_density(x, y, target.gradient(x), p, metric=m_x)
            rev = hop_log_density(y, x, target.gradient(y), p, metric=m_y)
            generic = target.log_density(y) - target.log_density(x) + rev - fwd
            assert generic == pytest.approx(eq9_log_ratio(target, x, y, p), abs=1e-8)

    def test_step_moves_and_updates_cache(self, rng):
        target = GaussianDiag(scales=1.0, dim=4)
        p = HopParams(lam=1.5, kappa=0.5)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        state.ensure_grad(target)
        accepted = 0
        for _ in range(500):
            state, outcome = hop_kernel_step(target, state, p, rng)
            accepted += outcome.accepted
        assert accepted > 100
        assert state.logp == pytest.approx(target.log_density(state.position), abs=1e-9)
        np.testing.assert_allclose(state.grad, target.gradient(state.position), atol=1e-9)

    def test_raw_guard_at_mode_rejects_instead_of_crashing(self, rng):
        target = GaussianDiag(scales=1.0, dim=2)
        p = HopParams(lam=1.5, kappa=0.5, guard="raw")
        state = ChainState.at(target, np.zeros(2))
        state.ensure_grad(target)
        state, outcome = hop_kernel_step(target, state, p, rng)
        assert not outcome.accepted

    def test_hessian_step_on_gaussian_equals_plain_on_whitened_target(self):
        # a constant local covariance makes the hessian hop exactly the plain
        # hop in whitened coordinates; power-of-two scales keep the
        # whitening float-exact, so the two chains coincide step for step
        scales = np.array([2.0, 0.5, 1.0])
        aniso = GaussianDiag(scales=scales)
        iso = GaussianDiag(scales=1.0, dim=3)
        z0 = np.array([0.3, -0.8, 1.1])

        p_hess = HopParams(lam=1.5, kappa=0.5, use_hessian=True)
        rng_h = np.random.default_rng(7)
        state_h = ChainState.at(aniso, scales * z0)
        state_h.ensure_grad(aniso)
        flags_h = []
        for _ in range(2000):
            state_h, outcome = hop_kernel_step(aniso, state_h, p_hess, rng_h)
            flags_h.append(outcome.accepted)

        p_plain = HopParams(lam=1.5, kappa=0.5)
        rng_p = np.random.default_rng(7)
        state_p = ChainState.at(iso, z0)
        state_p.ensure_grad(iso)
        flags_p = []
        for _ in range(2000):
            state_p, outcome = hop_kernel_step(iso, state_p, p_plain, rng_p)
            flags_p.append(outcome.accepted)

        assert sum(f1 != f2 for f1, f2 in zip(flags_h, flags_p)) <= 2
        np.testing.assert_allclose(state_h.position / scales, state_p.position, atol=1e-8)


class TestDimensionalRobustness:
    def test_acceptance_band_under_sqrt_d_tuning(self):
        # lam = 3 sqrt(d), kappa = 1/2 holds the stationary acceptance rate
        # inside the same band across a tenfold dimension change
        from hughop.harness import ExperimentConfig, run_chain

        for d in (10, 50, 100):
            cfg = ExperimentConfig(
                target={"target": "lg", "a": 1.0, "dim": d, "scales": "U"},
                kernels=[{"kernel": "hop", "lambda": 3.0 * np.sqrt(d), "kappa": 0.5}],
                iterations=20_000,
                burn_in=4_000,
                seed=5,
                record="logpi",
            )
            _, summary = run_chain(cfg)
            assert 0.25 <= summary.acceptance["hop"] <= 0.46, (d, summary.acceptance)
