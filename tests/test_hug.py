"""Reflection operators, bounce trajectories and the hug kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hughop.exceptions import FactorizationError, NonFiniteInputError, TrajectoryError
from hughop.hug import (
    HugParams,
    _reflect,
    hug_kernel_step,
    hug_trajectory,
    reflect,
)
from hughop.metric import LocalMetric, local_covariance
from hughop.state import ChainState
from hughop.targets import (
    Banana2D,
    GaussianDiag,
    LogisticGaussian,
    QuarticGaussian,
    TargetModel,
    make_target,
)

from conftest import fd_jacobian


def random_spd(rng, d, spread=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * np.exp(rng.uniform(-spread, spread, d))) @ q.T


class TestReflect:
    def test_perpendicular_velocity_unchanged(self):
        v = np.array([0.0, 1.0])
        np.testing.assert_array_equal(reflect(v, np.array([3.0, 0.0])), v)

    def test_parallel_velocity_reversed(self):
        g = np.array([1.0, 2.0, -1.0])
        np.testing.assert_allclose(reflect(g, g), -g, atol=1e-14)

    def test_direct_evaluation(self):
        out = reflect(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_zero_gradient_identity(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(reflect(v, np.zeros(2)), v)

    def test_involution(self, rng):
        for _ in range(50):
            v = rng.standard_normal(4)
            g = rng.standard_normal(4)
            np.testing.assert_allclose(reflect(reflect(v, g), g), v, atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(50):
            v = rng.standard_normal(6)
            g = rng.standard_normal(6)
            assert abs(np.linalg.norm(reflect(v, g)) - np.linalg.norm(v)) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            reflect(np.array([np.inf, 0.0]), np.array([1.0, 0.0]))


class DenseQuadratic(TargetModel):
    """Gaussian log-density -x' P x / 2 with a dense precision P."""

    name = "dense-quadratic"

    def __init__(self, precision):
        self.precision = precision
        self.dim = precision.shape[0]

    def _log_density(self, x):
        return -0.5 * float(x @ self.precision @ x)

    def _gradient(self, x):
        return -(self.precision @ x)

    def _hessian(self, x):
        return -self.precision


def metric_reflect(v, g, sigma):
    """The kernels' metric reflection, with S g from a dense covariance S or
    from a :class:`LocalMetric`'s ``cov_dot``."""
    sg = sigma.cov_dot(g) if isinstance(sigma, LocalMetric) else sigma @ g
    return _reflect(v, g, sg, float(g @ sg))


class TestReflectInMetric:
    def test_identity_metric_reduces_to_plain(self, rng):
        for _ in range(20):
            v = rng.standard_normal(3)
            g = rng.standard_normal(3)
            np.testing.assert_allclose(
                metric_reflect(v, g, np.eye(3)), reflect(v, g), atol=1e-12
            )

    def test_orthogonal_in_euclidean_sense_unchanged(self, rng):
        # v' g = 0 leaves v fixed whatever the metric
        sigma = random_spd(rng, 3)
        g = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 2.0, -1.0])
        np.testing.assert_array_equal(metric_reflect(v, g, sigma), v)

    def test_direct_evaluation(self):
        out = metric_reflect(
            np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.diag([2.0, 1.0])
        )
        np.testing.assert_allclose(out, [-1.0, 0.0])

    def test_involution_and_metric_norm(self, rng):
        sigma = random_spd(rng, 5)
        inv = np.linalg.inv(sigma)
        for _ in range(30):
            v = rng.standard_normal(5)
            g = rng.standard_normal(5)
            w = metric_reflect(v, g, sigma)
            np.testing.assert_allclose(metric_reflect(w, g, sigma), v, atol=1e-10)
            assert w @ inv @ w == pytest.approx(v @ inv @ v, rel=1e-10)

    def test_degenerate_quadratic_form_falls_back(self):
        v = np.array([1.0, 2.0])
        out = metric_reflect(v, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(out, v)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), spread=st.floats(0.0, 3.0))
    def test_involution_under_random_spd(self, seed, d, spread):
        # the dense matrix and the spectral local metric of the same covariance
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, d, spread)
        v, g = rng.standard_normal(d), rng.standard_normal(d)
        for metric in (sigma, local_covariance(-np.linalg.inv(sigma), 1e-6)):
            back = metric_reflect(metric_reflect(v, g, metric), g, metric)
            assert np.linalg.norm(back - v) <= 1e-10 * (1.0 + np.linalg.norm(v))


class Wall(GaussianDiag):
    """The gradient is (0, 1) left of x0 = 1 and NaN beyond it.

    From the origin with v = (1, 0) the velocity never reflects, so bounce
    points sit at 0.125 + 0.25 b for T = 2, B = 8, and bounce 4 is the first
    past the wall.
    """

    def _gradient(self, x):
        return np.array([0.0, 1.0]) if x[0] < 1.0 else np.full(2, np.nan)


class TestHugTrajectory:
    def test_zero_time_is_identity(self):
        t = GaussianDiag(scales=1.0, dim=2)
        traj = hug_trajectory(t, [1.0, 2.0], [0.5, -0.5], HugParams(0.0, 3))
        np.testing.assert_array_equal(traj.x, [1.0, 2.0])
        np.testing.assert_array_equal(traj.v, [0.5, -0.5])

    def test_hand_worked_single_bounce(self):
        t = GaussianDiag(scales=1.0, dim=2)
        traj = hug_trajectory(t, [1.0, 0.0], [0.0, 1.0], HugParams(0.2, 1))
        np.testing.assert_allclose(traj.x, [0.980198, 0.198020], atol=1e-6)
        assert np.linalg.norm(traj.x) == pytest.approx(1.0, abs=1e-12)

    def test_spherical_contour_preserved_many_bounces(self):
        t = GaussianDiag(scales=1.0, dim=3)
        x0 = np.array([1.0, -1.0, 0.5])
        traj = hug_trajectory(t, x0, np.array([0.3, 0.3, 0.3]), HugParams(2.0, 20))
        assert np.linalg.norm(traj.x) == pytest.approx(np.linalg.norm(x0), abs=1e-12)

    @pytest.mark.parametrize("mode", ["plain", "precond", "hessian"])
    def test_skew_reversibility(self, mode, rng):
        target = LogisticGaussian(a=5.0, scales=[1.0, 2.0, 0.5])
        kwargs = {}
        if mode == "precond":
            kwargs["precond_cov"] = random_spd(rng, 3)
        for _ in range(25):
            params = HugParams(
                total_time=rng.uniform(0.1, 1.5),
                n_bounces=int(rng.integers(1, 9)),
                mode=mode,
                **kwargs,
            )
            x0 = rng.standard_normal(3)
            v0 = rng.standard_normal(3)
            fwd = hug_trajectory(target, x0, v0, params)
            back = hug_trajectory(target, fwd.x, -fwd.v, params)
            assert np.linalg.norm(back.x - x0) / (1 + np.linalg.norm(x0)) <= 1e-10
            assert np.linalg.norm(back.v + v0) / (1 + np.linalg.norm(v0)) <= 1e-10

    def test_velocity_norm_preserved_plain(self, rng):
        target = Banana2D(a=1.0, c=1.0)
        v0 = rng.standard_normal(2)
        traj = hug_trajectory(target, rng.standard_normal(2), v0, HugParams(1.0, 10))
        assert np.linalg.norm(traj.v) == pytest.approx(np.linalg.norm(v0), rel=1e-12)

    def test_precond_preserves_metric_norm(self, rng):
        target = Banana2D(a=1.0, c=1.0)
        sigma = random_spd(rng, 2)
        inv = np.linalg.inv(sigma)
        params = HugParams(1.0, 8, mode="precond", precond_cov=sigma)
        v0 = rng.standard_normal(2)
        traj = hug_trajectory(target, rng.standard_normal(2), v0, params)
        assert traj.v @ inv @ traj.v == pytest.approx(v0 @ inv @ v0, rel=1e-10)

    def test_volume_preservation_2d(self, rng):
        # numerical Jacobian of the (x, v) -> (xB, vB) map has determinant 1
        target = Banana2D(a=1.0, c=1.0)
        params = HugParams(0.6, 4)

        def phase_map(q):
            traj = hug_trajectory(target, q[:2], q[2:], params)
            return np.concatenate([traj.x, traj.v])

        for _ in range(10):
            q0 = rng.standard_normal(4)
            jac = fd_jacobian(phase_map, q0, step=1e-6)
            assert abs(np.linalg.det(jac) - 1.0) < 1e-4

    def test_non_finite_blowup_identifies_bounce(self):
        target = QuarticGaussian(a=3.0, scales=1.0, dim=2)
        with pytest.raises(TrajectoryError):
            hug_trajectory(target, [1e150, 1e150], [1.0, 1.0], HugParams(1.0, 3))

    @pytest.mark.parametrize(
        "params",
        [
            HugParams(1.0, 4),
            HugParams(1.0, 4, mode="precond", precond_cov=np.diag([1.0, 2.0, 3.0])),
            HugParams(1.0, 4, mode="hessian"),
        ],
        ids=["plain", "precond", "hessian"],
    )
    def test_infinite_velocity_fails_at_the_first_bounce_point(self, params):
        # the checked replay calls the trusted gradient and Hessian only at a
        # bounce point that has passed its finiteness check
        with pytest.raises(TrajectoryError, match=r"non-finite bounce point \(step 0\)"):
            hug_trajectory(GaussianDiag(1.0, dim=3), np.zeros(3), [np.inf, 0.0, 0.0], params)

    def test_late_non_finite_gradient_names_its_bounce(self):
        with pytest.raises(TrajectoryError, match="gradient") as info:
            hug_trajectory(Wall(1.0, dim=2), [0.0, 0.0], [1.0, 0.0], HugParams(2.0, 8))
        assert info.value.step_index == 4

    @pytest.mark.parametrize(
        "params",
        [
            HugParams(2.0, 8, mode="precond", precond_cov=np.array([[1.0, 0.2], [0.2, 1.0]])),
            HugParams(2.0, 8, mode="hessian"),
        ],
        ids=["precond", "hessian"],
    )
    def test_late_non_finite_gradient_names_its_bounce_in_metric_modes(self, params):
        # v = (1, 0) stays unreflected in these metrics too, since v . g = 0;
        # a NaN metric product must not read as "no reflection" either
        with pytest.raises(TrajectoryError, match="gradient") as info:
            hug_trajectory(Wall(1.0, dim=2), [0.0, 0.0], [1.0, 0.0], params)
        assert info.value.step_index == 4

    @pytest.mark.parametrize(
        "params",
        [
            HugParams(1.0, 1),
            HugParams(1.0, 1, mode="precond", precond_cov=np.eye(3)),
            HugParams(1.0, 1, mode="hessian"),
        ],
        ids=["plain", "precond", "hessian"],
    )
    def test_unreflected_metric_bounce_is_counted(self, params):
        # the bounce point is (speed / 2) (1, 1, 1), where g . g and g' S g are
        # 0.75 speed^2: every mode skips at 7.5e-27 <= ZERO_GRAD_TOL**2 and
        # reflects at 7.5e-15
        target = GaussianDiag(1.0, dim=3)
        x0 = np.zeros(3)
        for speed, skipped in ((1e-13, True), (1e-7, False)):
            v0 = np.full(3, speed)
            fwd = hug_trajectory(target, x0, v0, params)
            assert fwd.zero_grad_bounces == int(skipped)
            back = hug_trajectory(target, fwd.x, -fwd.v, params)
            assert back.zero_grad_bounces == int(skipped)
            if skipped:  # both drifts run unreflected, and return exactly
                np.testing.assert_array_equal(fwd.v, v0)
                np.testing.assert_array_equal(back.x, x0)
                np.testing.assert_array_equal(back.v, -v0)
            else:  # v0 is parallel to g, so it reverses
                np.testing.assert_allclose(fwd.v, -v0, rtol=1e-12)
                np.testing.assert_allclose(back.x, x0, rtol=0, atol=1e-20)
                np.testing.assert_allclose(back.v, -v0, rtol=1e-12)

    @pytest.mark.parametrize("steepness", [1e200, 1e308])
    def test_overflowing_gradient_leaves_velocity_unreflected(self, steepness):
        # g . g overflows for a finite g; at 1e308, v . g overflows too
        class Steep(GaussianDiag):
            def _gradient(self, x):
                return np.array([steepness, 1.0])

        traj = hug_trajectory(Steep(1.0, dim=2), [0.0, 0.0], [1.0, 1.0], HugParams(1.0, 2))
        np.testing.assert_array_equal(traj.v, [1.0, 1.0])
        np.testing.assert_array_equal(traj.x, [1.0, 1.0])
        assert traj.zero_grad_bounces == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 8),
        total_time=st.floats(0.1, 1.2),
        n_bounces=st.integers(1, 8),
    )
    def test_hessian_mode_skew_reversible_on_dense_quadratic(
        self, seed, d, total_time, n_bounces
    ):
        # a dense negative-definite Hessian takes the eigendecomposition path
        rng = np.random.default_rng(seed)
        target = DenseQuadratic(random_spd(rng, d))
        params = HugParams(total_time, n_bounces, mode="hessian")
        x0, v0 = rng.standard_normal(d), rng.standard_normal(d)
        fwd = hug_trajectory(target, x0, v0, params)
        back = hug_trajectory(target, fwd.x, -fwd.v, params)
        assert np.linalg.norm(back.x - x0) / (1 + np.linalg.norm(x0)) <= 1e-10
        assert np.linalg.norm(back.v + v0) / (1 + np.linalg.norm(v0)) <= 1e-10


def paper_bounces(target, x, v, params):
    """The paper's bounce loop, transcribed: B times drift half a step,
    reflect v with the unit gradient in the whitened space of the metric S,
    drift half a step."""
    half = 0.5 * params.total_time / params.n_bounces
    for _ in range(params.n_bounces):
        x = x + half * v
        g = target.gradient(x)
        if params.mode == "plain":
            root = np.eye(x.size)
        elif params.mode == "precond":
            root = np.linalg.cholesky(params.precond_cov)
        else:
            root = np.linalg.cholesky(local_covariance(target.hessian(x), params.eps).sigma)
        # with S = L L': w = L^-1 v and L' g are v and g whitened
        g_w = root.T @ g
        ghat = g_w / np.linalg.norm(g_w)
        w = np.linalg.solve(root, v)
        v = root @ (w - 2.0 * (w @ ghat) * ghat)
        x = x + half * v
    return x, v


@pytest.mark.parametrize("n_bounces", [1, 2, 7])
@pytest.mark.parametrize("mode", ["plain", "precond", "hessian"])
@pytest.mark.parametrize(
    "target",
    [
        LogisticGaussian(a=5.0, scales=[1.0, 2.0, 0.5, 1.5]),
        make_target({"target": "banana", "dim": 4, "scales": "L"}),
    ],
    ids=["lg4", "banana4"],
)
def test_trajectory_is_the_paper_loop(target, mode, n_bounces, rng):
    # the loop merges the half-drifts that meet between bounces and reflects
    # without a unit gradient, so it matches the paper's loop up to rounding
    kwargs = {"precond_cov": random_spd(rng, 4)} if mode == "precond" else {}
    params = HugParams(0.8, n_bounces, mode=mode, **kwargs)
    for _ in range(5):
        x0, v0 = rng.standard_normal(4), rng.standard_normal(4)
        traj = hug_trajectory(target, x0, v0, params)
        x_ref, v_ref = paper_bounces(target, x0, v0, params)
        assert np.linalg.norm(traj.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.linalg.norm(traj.v - v_ref) <= 1e-12 * np.linalg.norm(v_ref)


class TestHugKernelStep:
    def test_spherical_gaussian_always_accepts(self, rng):
        target = GaussianDiag(scales=1.0, dim=5)
        params = HugParams(1.0, 10)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        for _ in range(100):
            state, outcome = hug_kernel_step(target, state, params, rng)
            assert outcome.accepted
            assert outcome.log_alpha == pytest.approx(0.0, abs=1e-10)

    def test_acceptance_band_mixed_scale_gaussian(self, rng):
        # at step size 1/3 on a target with scales from 0.25 to 2.5 the
        # acceptance sits in the useful band rather than saturating at 1
        target = GaussianDiag(scales=np.linspace(0.25, 2.5, 25))
        params = HugParams(1.0, 3)
        state = ChainState.at(target, target.sample_exact(rng, 1)[0])
        accepted = 0
        for _ in range(3000):
            state, outcome = hug_kernel_step(target, state, params, rng)
            accepted += outcome.accepted
        assert 0.60 <= accepted / 3000 <= 0.99

    def test_cached_logp_updated_on_accept(self, rng):
        target = GaussianDiag(scales=1.0, dim=3)
        state = ChainState.at(target, [1.0, 0.0, 0.0])
        for _ in range(10):
            state, _ = hug_kernel_step(target, state, HugParams(0.5, 5), rng)
        assert state.logp == pytest.approx(target.log_density(state.position), abs=1e-8)

    def test_hessian_mode_runs_and_accepts_reasonably(self, rng):
        target = LogisticGaussian(a=5.0, scales=[2.0, 1.0, 0.5])
        params = HugParams(1.0, 5, mode="hessian")
        state = ChainState.at(target, rng.standard_normal(3))
        accepted = 0
        for _ in range(500):
            state, outcome = hug_kernel_step(target, state, params, rng)
            accepted += outcome.accepted
        assert accepted / 500 > 0.3

    def test_numerical_failure_counts_as_rejection(self, rng):
        # gradient overflows at the first bounce point: rejected, state kept
        target = QuarticGaussian(a=3.0, scales=1.0, dim=2)
        start = np.array([1e150, -1e150])
        with np.errstate(over="ignore"):
            state = ChainState.at(target, start)
        state, outcome = hug_kernel_step(target, state, HugParams(5.0, 1), rng)
        assert not outcome.accepted
        assert outcome.log_alpha == -np.inf
        np.testing.assert_array_equal(state.position, start)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HugParams(total_time=-1.0, n_bounces=5)
        with pytest.raises(ValueError):
            HugParams(total_time=1.0, n_bounces=0)
        with pytest.raises(ValueError):
            HugParams(total_time=1.0, n_bounces=5, mode="warp")
        with pytest.raises(ValueError):
            HugParams(total_time=1.0, n_bounces=5, mode="precond")
        with pytest.raises(FactorizationError):
            HugParams(1.0, 5, mode="precond", precond_cov=np.diag([1.0, -1.0]))
        assert HugParams(1.0, 4).step == 0.25

    def test_precond_factor_computed_once(self, rng):
        sigma = random_spd(rng, 3)
        params = HugParams(1.0, 5, mode="precond", precond_cov=sigma)
        eigvals, eigvecs = np.linalg.eigh(sigma)
        np.testing.assert_array_equal(params.metric.eigvals, eigvals)
        np.testing.assert_array_equal(params.metric.eigvecs, eigvecs)
        assert params.metric.matrix is params.precond_cov
        assert params == HugParams(1.0, 5, mode="precond", precond_cov=params.precond_cov)


class TestHugHessOrder:
    def test_single_bounce_error_is_third_order(self, rng):
        # with local-covariance bounces the leading quadratic error terms
        # cancel, leaving a cubic step error (vs quadratic for plain hug)
        target = LogisticGaussian(a=5.0, scales=1.0, dim=10)
        steps = [0.4, 0.2, 0.1, 0.05]
        medians = []
        x0s = rng.standard_normal((100, 10))
        z0s = rng.standard_normal((100, 10))
        for step in steps:
            errs = []
            for x0, z in zip(x0s, z0s):
                metric = local_covariance(target.hessian(x0), 1e-6)
                v0 = metric.unwhiten(z)
                traj = hug_trajectory(
                    target, x0, v0, HugParams(step, 1, mode="hessian")
                )
                errs.append(abs(target.log_density(traj.x) - target.log_density(x0)))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log(steps), np.log(medians), 1)[0]
        assert 2.6 <= slope <= 3.4


def test_skew_reversibility_through_registry_targets(rng):
    # a couple of harder shapes, hessian mode, bigger dimension
    for spec in ({"target": "banana", "dim": 6, "scales": "L"},
                 {"target": "bimodal", "dim": 4, "scales": "U"}):
        target = make_target(spec)
        params = HugParams(0.7, 6, mode="hessian")
        for _ in range(10):
            x0 = target.sample_exact(rng, 1)[0]
            v0 = rng.standard_normal(target.dim)
            fwd = hug_trajectory(target, x0, v0, params)
            back = hug_trajectory(target, fwd.x, -fwd.v, params)
            assert np.linalg.norm(back.x - x0) / (1 + np.linalg.norm(x0)) <= 1e-10
