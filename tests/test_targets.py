"""Target distributions: frozen values, derivative oracles, exact samplers."""

import numpy as np
import pytest

from hughop.exceptions import (
    DimensionMismatchError,
    NoExactSamplerError,
    NoHessianError,
    NonFiniteInputError,
)
from hughop.targets import (
    Banana2D,
    Bimodal2D,
    EmbeddedTarget,
    GaussianDiag,
    LogisticGaussian,
    PlusPrism2D,
    QuarticGaussian,
    linear_scales,
    make_target,
    standard_suite,
    unit_scales,
)

from conftest import fd_gradient, fd_jacobian, rel_err


def all_targets():
    """One modest instance of every target shape, plus an embedded one."""
    return [
        GaussianDiag(scales=[0.5, 1.0, 2.0]),
        LogisticGaussian(a=5.0, scales=[1.0, 2.0]),
        QuarticGaussian(a=3.0, scales=[0.8, 1.5]),
        Banana2D(a=1.0, c=1.0),
        Bimodal2D(a=1.0, b=2.0, separation=3.0),
        PlusPrism2D(a=1.5, b=2.0),
        EmbeddedTarget(Banana2D(a=2.0, c=1.5), tail_scales=[1.0, 0.5, 2.0]),
    ]


class TestFrozenValues:
    def test_gauss_at_zero(self):
        assert GaussianDiag(scales=1.0, dim=3).log_density(np.zeros(3)) == 0.0

    def test_banana_zero_contour_point(self):
        # r = 1/2 here, so x = (0, -1/2) sits exactly on the zero contour
        t = Banana2D(a=1.0, c=1.0, b=np.sqrt(2.0) / 2.0)
        assert abs(t.log_density([0.0, -0.5])) < 1e-12

    def test_qg_value(self):
        t = QuarticGaussian(a=3.0, scales=1.0, dim=2)
        assert t.log_density([1.0, 0.0]) == pytest.approx(-0.5 - 1.0 / 18.0, abs=1e-12)

    def test_gauss_gradient_formula(self, rng):
        scales = np.array([0.5, 1.0, 2.0])
        t = GaussianDiag(scales=scales)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(t.gradient(x), -x / scales**2, rtol=1e-12)

    def test_lg_gradient_zero_at_origin(self):
        t = LogisticGaussian(a=2.0, scales=[1.0, 3.0])
        np.testing.assert_array_equal(t.gradient(np.zeros(2)), np.zeros(2))

    def test_gauss_hessian_constant(self, rng):
        scales = np.array([0.5, 2.0])
        t = GaussianDiag(scales=scales)
        expect = -np.diag(1.0 / scales**2)
        np.testing.assert_allclose(t.hessian(rng.standard_normal(2)), expect)

    def test_lg_hessian_at_zero(self):
        t = LogisticGaussian(a=5.0, scales=1.0, dim=1)
        assert t.hessian(np.zeros(1))[0, 0] == pytest.approx(-0.54, abs=1e-12)


class TestDerivativeOracles:
    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_gradient_matches_fd(self, target, rng):
        for _ in range(20):
            x = rng.standard_normal(target.dim) * 1.5
            approx = fd_gradient(target.log_density, x)
            assert rel_err(approx, target.gradient(x)) < 1e-5

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_hessian_matches_fd_of_gradient(self, target, rng):
        for _ in range(20):
            x = rng.standard_normal(target.dim) * 1.5
            approx = fd_jacobian(target.gradient, x)
            assert rel_err(approx, target.hessian(x)) < 1e-4

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_hessian_symmetric(self, target, rng):
        for _ in range(5):
            h = target.hessian(rng.standard_normal(target.dim))
            assert np.max(np.abs(h - h.T)) <= 1e-10

    @pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
    def test_private_hessian_densifies_to_the_public_one(self, target, rng):
        # gauss, lg and qg hand their diagonal to the kernels as a vector;
        # the public method still returns the d x d matrix
        x = rng.standard_normal(target.dim)
        private = target._hessian(x)
        assert private.shape == ((target.dim,) if target.name in ("gauss", "lg", "qg")
                                 else (target.dim, target.dim))
        public = target.hessian(x)
        assert public.shape == (target.dim, target.dim)
        np.testing.assert_array_equal(np.diag(private) if private.ndim == 1 else private, public)

    def test_banana_gradient_at_spec_point(self):
        t = Banana2D(a=1.0, c=1.0)
        x = np.array([0.3, -0.7])
        assert rel_err(fd_gradient(t.log_density, x), t.gradient(x)) < 1e-5

    def test_bimodal_hessian_at_spec_point(self):
        t = Bimodal2D(a=1.0, b=1.0, separation=3.0)
        x = np.array([1.0, 1.0])
        assert rel_err(fd_jacobian(t.gradient, x), t.hessian(x)) < 1e-5

    def test_lg_extreme_inputs_stay_finite(self):
        t = LogisticGaussian(a=5.0, scales=1.0, dim=1)
        for v in (800.0, -2000.0, 1e6):
            x = np.array([v])
            assert np.isfinite(t.log_density(x))
            assert np.isfinite(t.gradient(x)).all()
            assert np.isfinite(t.hessian(x)).all()


class TestSymmetry:
    @pytest.mark.parametrize(
        "target",
        [
            GaussianDiag(scales=[0.5, 1.0, 2.0]),
            LogisticGaussian(a=5.0, scales=[1.0, 2.0]),
            QuarticGaussian(a=3.0, scales=[0.8, 1.5]),
            Bimodal2D(a=1.0, b=2.0, separation=3.0),
            PlusPrism2D(a=1.5, b=2.0),
        ],
        ids=lambda t: t.name,
    )
    def test_log_density_even(self, target, rng):
        for _ in range(50):
            x = rng.standard_normal(target.dim) * 2.0
            assert abs(target.log_density(x) - target.log_density(-x)) <= 1e-12


class TestExactSamplers:
    def test_gauss_moments(self, rng):
        t = GaussianDiag(scales=1.0, dim=2)
        draws = t.sample_exact(rng, 100_000)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02
        assert np.max(np.abs(draws.var(axis=0) - 1.0)) < 0.03

    def test_banana_second_coordinate_variance(self, rng):
        t = Banana2D(a=1.0, c=1.0, b=np.sqrt(2.0) / 2.0)
        draws = t.sample_exact(rng, 100_000)
        assert abs(draws[:, 1].var() - 1.0) < 0.05

    def test_bimodal_mean_zero(self, rng):
        t = Bimodal2D(a=1.0, b=1.0, separation=3.0)
        draws = t.sample_exact(rng, 100_000)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_bimodal_marginal_scales(self, rng):
        # the separation parameter moves the modes without changing the
        # marginal variances
        t = Bimodal2D(a=1.5, b=0.8, separation=4.0)
        draws = t.sample_exact(rng, 200_000)
        np.testing.assert_allclose(draws.var(axis=0), [1.5**2, 0.8**2], rtol=0.03)

    def test_plusprism_mixture_density_matches_brute_force(self, rng):
        # density check against direct two-component mixture evaluation
        from scipy.stats import multivariate_normal

        t = PlusPrism2D(a=1.5, b=2.0)
        c1 = multivariate_normal(mean=[0, 0], cov=np.diag([2 * 1.5**2 - 1, 1.0]))
        c2 = multivariate_normal(mean=[0, 0], cov=np.diag([1.0, 2.0**2 - 1]))
        xs = rng.standard_normal((50, 2)) * 2
        ours = np.array([t.log_density(x) for x in xs])
        brute = np.log(0.5 * c1.pdf(xs) + 0.5 * c2.pdf(xs))
        # equal up to one additive constant
        diff = ours - brute
        assert np.max(diff) - np.min(diff) < 1e-10

    def test_plusprism_sampler_moments(self, rng):
        # the displayed component covariances give mixture variances a^2 and
        # b^2/2: the second coordinate does NOT have marginal scale b
        t = PlusPrism2D(a=1.5, b=2.0)
        draws = t.sample_exact(rng, 200_000)
        np.testing.assert_allclose(draws.var(axis=0), [1.5**2, 0.5 * 2.0**2], rtol=0.03)

    def test_embedded_splits_exactly(self, rng):
        head = Banana2D(a=1.0, c=1.0)
        t = EmbeddedTarget(head, tail_scales=[2.0, 0.5])
        tail = GaussianDiag(scales=[2.0, 0.5])
        for _ in range(20):
            x = rng.standard_normal(4)
            expect = head.log_density(x[:2]) + tail.log_density(x[2:])
            assert t.log_density(x) == pytest.approx(expect, abs=1e-12)
            np.testing.assert_allclose(
                t.gradient(x),
                np.concatenate([head.gradient(x[:2]), tail.gradient(x[2:])]),
            )
            h = t.hessian(x)
            assert np.all(h[:2, 2:] == 0.0) and np.all(h[2:, :2] == 0.0)

    def test_missing_exact_sampler_raises(self, rng):
        with pytest.raises(NoExactSamplerError):
            LogisticGaussian(a=5.0, scales=1.0, dim=2).sample_exact(rng, 3)


class TestValidationAndRegistry:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            GaussianDiag(scales=1.0, dim=3).log_density([1.0, 2.0])

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInputError):
            GaussianDiag(scales=1.0, dim=2).log_density([np.nan, 0.0])

    def test_no_hessian_error(self):
        class NoHess(GaussianDiag):
            def _hessian(self, x):
                raise NoHessianError("nope")

        with pytest.raises(NoHessianError):
            NoHess(scales=1.0, dim=2).hessian([0.0, 0.0])

    def test_plusprism_rejects_degenerate(self):
        with pytest.raises(ValueError):
            PlusPrism2D(a=1.0, b=1.0)

    def test_banana_rejects_bad_bananacity(self):
        with pytest.raises(ValueError):
            Banana2D(a=1.0, c=1.0, b=1.5)

    def test_scale_presets(self):
        np.testing.assert_array_equal(unit_scales(4), np.ones(4))
        np.testing.assert_array_equal(linear_scales(4), [4.0, 3.0, 2.0, 1.0])
        t = LogisticGaussian(a=5.0, scales=linear_scales(5))
        np.testing.assert_array_equal(t.scales, [5.0, 4.0, 3.0, 2.0, 1.0])

    def test_make_target_from_spec(self):
        t = make_target({"target": "LG", "a": 5, "scales": "L", "dim": 25})
        assert isinstance(t, LogisticGaussian) and t.dim == 25
        assert t.scales[0] == 25.0 and t.scales[-1] == 1.0

    def test_make_target_embeds_2d_shapes(self):
        t = make_target({"target": "banana", "dim": 25, "scales": "U"})
        assert isinstance(t, EmbeddedTarget) and t.dim == 25

    def test_make_target_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_target({"target": "cauchy"})
        with pytest.raises(ValueError):
            make_target({"target": "gauss", "dim": 2, "frobnicate": 1})

    def test_standard_suite_has_eleven_targets(self):
        suite = standard_suite(25)
        assert len(suite) == 11
        assert "plusprism-U" not in suite
        assert all(t.dim == 25 for t in suite.values())
