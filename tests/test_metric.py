"""Local and fixed covariance construction and the metric's products."""

import numpy as np
import pytest

from hughop.exceptions import FactorizationError, NonFiniteInputError
from hughop.metric import EIG_FLOOR, LocalMetric, fixed_metric, local_covariance


def random_spd(rng, d, spread=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.exp(rng.uniform(-spread, spread, d))
    return (q * eigs) @ q.T


def eigh_reference(hess, eps):
    """(sigma, log_det, regularized) built densely from np.linalg.eigh."""
    eigvals, eigvecs = np.linalg.eigh(hess)
    regularized = not eigvals[-1] < -eps
    if regularized:
        sigma_eigs = 1.0 / np.maximum(np.abs(eigvals), EIG_FLOOR) + eps
    else:
        sigma_eigs = -1.0 / eigvals
    sigma = (eigvecs * sigma_eigs) @ eigvecs.T
    return sigma, float(np.sum(np.log(sigma_eigs))), regularized


@pytest.fixture
def count_eigh(monkeypatch):
    """Counts the np.linalg.eigh calls made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


# (diagonal of the Hessian, eps): both branches, the eps margin on either
# side, tied entries and an entry at 1e-15
DIAGONAL_CASES = [
    ([-4.0, -0.25], 1e-6),
    ([-0.25, -4.0, -1.0], 1e-6),
    ([-4.0, 1.0], 0.01),
    ([2.0, -3.0, 0.5, -1e-3], 1e-4),
    ([-1.0, -1e-8], 1e-6),
    ([-1.0, -2e-6], 1e-6),
    ([-1.0, -1e-6], 1e-6),
    ([-2.0, -2.0, -0.5, -2.0, -0.5], 1e-6),
    ([1.5, 1.5, -1.5], 1e-6),
    ([-2.0, 1e-15], 1e-6),
    ([-2.0, -1e-15, -3.0], 1e-6),
    ([0.0, -1.0], 1e-6),
]


class TestLocalCovariance:
    def test_identity_hessian(self):
        m = local_covariance(-np.eye(3), eps=1e-6)
        np.testing.assert_allclose(m.sigma, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(m.a, np.eye(3), atol=1e-12)
        assert m.log_det == pytest.approx(0.0, abs=1e-12)
        assert not m.regularized

    def test_negative_definite_inverts(self):
        m = local_covariance(np.diag([-4.0, -0.25]), eps=1e-6)
        np.testing.assert_allclose(np.diag(m.sigma), [0.25, 4.0], atol=1e-12)
        assert not m.regularized

    def test_indefinite_regularises_by_magnitude(self):
        m = local_covariance(np.diag([-4.0, 1.0]), eps=0.01)
        np.testing.assert_allclose(np.diag(m.sigma), [0.26, 1.01], atol=1e-12)
        assert m.regularized

    def test_pd_branch_inverse_property(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 5)
            hess = -np.linalg.inv(sigma)
            m = local_covariance(hess, eps=1e-6)
            np.testing.assert_allclose(m.sigma @ (-hess), np.eye(5), atol=1e-8)

    def test_regularised_branch_is_pd(self, rng):
        eps = 1e-4
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            eigs = rng.uniform(-3.0, 3.0, 4)
            hess = (q * eigs) @ q.T
            m = local_covariance(hess, eps=eps)
            if m.regularized:
                smallest = np.linalg.eigvalsh(m.sigma)[0]
                assert smallest >= eps * (1.0 - 1e-8)

    def test_near_zero_eigenvalue_does_not_overflow(self):
        m = local_covariance(np.diag([-2.0, 1e-15]), eps=1e-6)
        assert np.all(np.isfinite(m.sigma))
        assert m.regularized

    def test_asymmetric_hessian_rejected(self):
        for hess in (
            [[1.0, 0.5], [0.0, 1.0]],
            [[-1.0, 0.0, 1e-7], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
        ):
            with pytest.raises(FactorizationError):
                local_covariance(-np.array(hess), eps=1e-6)

    def test_non_finite_hessian_rejected(self):
        # NaN or inf on the diagonal, and off it where it also breaks symmetry
        for hess in (
            [[np.nan, 0.0], [0.0, -1.0]],
            [[-1.0, np.nan], [np.nan, -1.0]],
            [[-1.0, np.nan], [0.0, -1.0]],
            [[-1.0, 0.0], [0.0, -np.inf]],
            [[-1.0, np.inf, 0.0], [np.inf, -1.0, 0.0], [0.0, 0.0, -1.0]],
        ):
            with pytest.raises(NonFiniteInputError):
                local_covariance(np.array(hess), eps=1e-6)

    def test_non_finite_checked_before_eps(self):
        for hess in (np.diag([np.nan, -1.0]), np.array([[-1.0, np.nan], [np.nan, -1.0]])):
            with pytest.raises(NonFiniteInputError):
                local_covariance(hess, eps=0.0)

    @pytest.mark.parametrize("diag,eps", DIAGONAL_CASES)
    def test_diagonal_path_matches_eigh_reference(self, diag, eps, count_eigh):
        m = local_covariance(np.array(diag), eps=eps)
        assert count_eigh == []
        sigma, log_det, regularized = eigh_reference(np.diag(diag), eps)
        np.testing.assert_allclose(m.sigma, sigma, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(m.a.T @ m.a, sigma, rtol=1e-15, atol=0.0)
        assert m.log_det == pytest.approx(log_det, rel=1e-15, abs=1e-15)
        assert m.regularized == regularized

    @pytest.mark.parametrize("diag,eps", DIAGONAL_CASES)
    def test_vector_hessian_matches_identity_eigenbasis_bitwise(self, diag, eps, count_eigh, rng):
        # a diagonal Hessian vector works elementwise and gives the bits
        # that an explicit identity eigenbasis gives
        m = local_covariance(np.array(diag), eps=eps)
        assert count_eigh == []
        assert m.eigvecs is None
        eye = LocalMetric(eigvals=m.eigvals, eigvecs=np.eye(len(diag)))
        assert m.log_det == eye.log_det
        v = rng.standard_normal(len(diag))
        for op in ("whiten", "unwhiten", "cov_dot", "factor_dot"):
            np.testing.assert_array_equal(getattr(m, op)(v), getattr(eye, op)(v))
        np.testing.assert_array_equal(m.sigma, eye.sigma)
        np.testing.assert_array_equal(m.a, eye.a)

    def test_non_finite_vector_hessian_rejected(self):
        with pytest.raises(NonFiniteInputError, match="Hessian contains non-finite entries"):
            local_covariance(np.array([-1.0, np.nan]))

    @pytest.mark.parametrize("diag,eps", DIAGONAL_CASES)
    def test_tiny_off_diagonal_takes_dense_path(self, diag, eps, count_eigh):
        near = np.diag(diag)
        near[0, -1] = near[-1, 0] = 1e-14
        dense = local_covariance(near, eps=eps)
        assert len(count_eigh) == 1
        m = local_covariance(np.array(diag), eps=eps)
        assert dense.regularized == m.regularized
        scale = np.max(np.abs(m.sigma))
        np.testing.assert_allclose(dense.sigma, m.sigma, rtol=0.0, atol=1e-12 * scale)
        assert dense.log_det == pytest.approx(m.log_det, abs=1e-12)

    def test_small_pd_margin_routes_to_regularised(self):
        # -H is PD but inside the eps margin: handled by the regularised branch
        m = local_covariance(np.diag([-1.0, -1e-8]), eps=1e-6)
        assert m.regularized
        assert np.all(np.isfinite(m.sigma))

    def test_log_det_matches_slogdet(self, rng):
        for _ in range(5):
            sigma = random_spd(rng, 4)
            m = local_covariance(-np.linalg.inv(sigma), eps=1e-6)
            _, expect = np.linalg.slogdet(m.sigma)
            assert m.log_det == pytest.approx(expect, rel=1e-9)


class TestFactor:
    """The fixed metric that :func:`fixed_metric` builds once."""

    def test_identity(self):
        m = fixed_metric(np.eye(4), "cov")
        np.testing.assert_allclose(m.eigvals, np.ones(4))
        np.testing.assert_allclose(m.a.T @ m.a, np.eye(4))
        np.testing.assert_array_equal(m.matrix, np.eye(4))
        np.testing.assert_array_equal(m.inverse, np.eye(4))
        with pytest.raises(TypeError):  # caches of the builder, not arguments
            LocalMetric(np.ones(4), None, matrix=np.eye(4))

    def test_diagonal_triangular_root(self):
        # a vector is its own eigendecomposition: elementwise, with no eigh
        m = fixed_metric(np.array([4.0, 9.0]), "cov")
        assert m.eigvecs is None and m.matrix is None and m.inverse is None
        np.testing.assert_array_equal(m.a, np.diag([2.0, 3.0]))
        dense = fixed_metric(np.diag([4.0, 9.0]), "cov")
        np.testing.assert_allclose(dense.a.T @ dense.a, np.diag([4.0, 9.0]))

    def test_factor_property_random_spd(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 5)
            m = fixed_metric(sigma, "cov")
            err = np.linalg.norm(m.a.T @ m.a - sigma) / np.linalg.norm(sigma)
            assert err < 1e-12
            eigvals, eigvecs = np.linalg.eigh(sigma)
            np.testing.assert_array_equal(m.eigvals, eigvals)
            np.testing.assert_array_equal(m.eigvecs, eigvecs)
            np.testing.assert_array_equal(m.inverse, np.linalg.inv(sigma))
            g = rng.standard_normal(5)
            np.testing.assert_array_equal(m.cov_dot(g), sigma @ g)

    def test_non_pd_rejected(self):
        for cov in (np.diag([1.0, -1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0])):
            with pytest.raises(FactorizationError, match="cov is not positive definite"):
                fixed_metric(cov, "cov")

    @pytest.mark.parametrize("cov", [np.ones((2, 3)), np.ones((2, 2, 2)), 1.0])
    def test_shape_error_names_the_parameter(self, cov):
        with pytest.raises(ValueError, match="mass_matrix must be a vector or a square matrix"):
            fixed_metric(cov, "mass_matrix")

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInputError, match="cov contains non-finite entries"):
            fixed_metric(np.array([1.0, np.nan]), "cov")


class TestLocalMetricOps:
    def test_whiten_unwhiten_roundtrip(self, rng):
        sigma = random_spd(rng, 5)
        m = local_covariance(-np.linalg.inv(sigma), eps=1e-6)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(m.unwhiten(m.whiten(v)), v, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 4, 25])
    @pytest.mark.parametrize("shape", ["dense", "diagonal", "indefinite",
                                       "fixed-dense", "fixed-vector"])
    def test_products_match_dense_formulas(self, d, shape, rng):
        for _ in range(5):
            if shape == "fixed-dense":
                hess = None
                m = fixed_metric(random_spd(rng, d), "cov")
            elif shape == "fixed-vector":
                hess = None
                m = fixed_metric(np.exp(rng.uniform(-2.0, 2.0, d)), "cov")
            elif shape == "dense":
                hess = -np.linalg.inv(random_spd(rng, d))
            elif shape == "diagonal":
                hess = np.diag(-np.exp(rng.uniform(-2.0, 2.0, d)))
            else:
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                hess = (q * rng.uniform(-3.0, 3.0, d)) @ q.T
                hess = 0.5 * (hess + hess.T)
            if hess is not None:
                m = local_covariance(hess, eps=1e-4)
            sigma, a = m.sigma, m.a
            np.testing.assert_allclose(a.T @ a, sigma, rtol=1e-10, atol=1e-12)
            v, g = rng.standard_normal(d), rng.standard_normal(d)
            np.testing.assert_allclose(m.whiten(v), np.linalg.solve(a.T, v), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(m.unwhiten(v), a.T @ v, rtol=1e-12, atol=1e-12)
            assert m.quad_inv(v) == pytest.approx(v @ np.linalg.solve(sigma, v), rel=1e-8)
            np.testing.assert_allclose(m.cov_dot(g), sigma @ g, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(m.factor_dot(g), a @ g, rtol=1e-12, atol=1e-12)
            assert m.log_det == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-9, abs=1e-9)

    def test_quad_inv_matches_solve(self, rng):
        sigma = random_spd(rng, 5)
        m = local_covariance(-np.linalg.inv(sigma), eps=1e-6)
        v = rng.standard_normal(5)
        expect = v @ np.linalg.solve(m.sigma, v)
        assert m.quad_inv(v) == pytest.approx(expect, rel=1e-8)
