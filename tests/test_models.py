"""Statistical model posteriors: values, derivative oracles, Gibbs machinery."""

import numpy as np
import pytest
from scipy.special import log_ndtr

from hughop.baselines import HmcKernel, HmcParams
from hughop.exceptions import FactorizationError
from hughop.hop import HopKernel, HopParams
from hughop.hug import HugKernel, HugParams
from hughop.model_runs import _gibbs_block, run_gibbs
from hughop.models import (
    CauchitPosterior,
    GibbsSampler,
    GibbsState,
    RaschPosterior,
    SpatialConditionalTarget,
    SpatialProbitModel,
    cauchit_inverse_link,
    gp_covariance,
    grid_distances,
    load_dataset,
    save_dataset,
    simulate_cauchit,
    simulate_rasch,
    simulate_spatial,
)
from hughop.state import ChainState

from conftest import fd_gradient, fd_jacobian, rel_err


def make_cauchit(rng, n_obs=40, n_pred=4):
    return CauchitPosterior(simulate_cauchit(n_obs, n_pred, 1.0, rng))


def make_rasch(rng, n_questions=5, n_subjects=8):
    return RaschPosterior(simulate_rasch(n_questions, n_subjects, 1.0, rng))


def inner_hug_hop():
    return [
        HugKernel(HugParams(total_time=1.0, n_bounces=10)),
        HopKernel(HopParams(lam=3.0, kappa=0.5)),
    ]


class TestCauchit:
    def test_inverse_link_values(self):
        assert cauchit_inverse_link(0.0) == 0.5
        assert cauchit_inverse_link(1.0) == pytest.approx(0.75)

    def test_simulated_rate_is_half_under_null(self, rng):
        data = simulate_cauchit(100_000, 3, 1.0, rng)
        # rebuild responses with beta forced to zero: rate must be 1/2
        null = np.where(rng.random(100_000) < cauchit_inverse_link(0.0), 1.0, -1.0)
        assert abs(np.mean(null == 1.0) - 0.5) < 0.01
        assert set(np.unique(data.responses)) <= {-1.0, 1.0}

    def test_log_density_at_zero(self, rng):
        post = make_cauchit(rng)
        n = post.data.covariates.shape[0]
        assert post.log_density(np.zeros(post.dim)) == pytest.approx(n * np.log(0.5))

    def test_gradient_at_zero_closed_form(self, rng):
        post = make_cauchit(rng)
        expect = (2.0 / np.pi) * post.data.covariates.T @ post.data.responses
        np.testing.assert_allclose(post.gradient(np.zeros(post.dim)), expect, atol=1e-12)

    def test_gradient_and_hessian_match_fd(self, rng):
        post = make_cauchit(rng)
        for _ in range(20):
            beta = rng.standard_normal(post.dim)
            assert rel_err(fd_gradient(post.log_density, beta), post.gradient(beta)) < 1e-5
            assert rel_err(fd_jacobian(post.gradient, beta), post.hessian(beta)) < 1e-4


class TestRasch:
    def test_all_zero_parameters(self, rng):
        post = make_rasch(rng)
        x0 = np.zeros(post.dim)
        n_cells = post.n_questions * post.n_subjects
        assert post.log_density(x0) == pytest.approx(n_cells * np.log(0.5))
        # each observation contributes +-phi(0)/Phi(0) = +-2 phi(0) = 0.7979
        grad = post.gradient(x0)
        contribution = 2.0 / np.sqrt(2.0 * np.pi)
        assert contribution == pytest.approx(0.7978845608028654)
        per_subject = post.data.responses.sum(axis=0)
        np.testing.assert_allclose(
            grad[post.n_questions - 1 :], contribution * per_subject, atol=1e-9
        )
        per_question = post.data.responses.sum(axis=1)
        np.testing.assert_allclose(
            grad[: post.n_questions - 1], -contribution * per_question[1:], atol=1e-9
        )

    def test_extreme_scores_stay_finite(self):
        z = np.array([-38.0])
        assert np.isfinite(log_ndtr(z))
        from hughop.models import _mills, _mills_derivative

        assert np.isfinite(_mills(z)).all()
        assert np.isfinite(_mills_derivative(z)).all()
        # the inverse Mills ratio approaches -z in the far tail
        assert _mills(z)[0] == pytest.approx(38.0, rel=1e-2)

    def test_gradient_and_hessian_match_fd(self, rng):
        post = make_rasch(rng)
        for _ in range(20):
            x = rng.standard_normal(post.dim)
            assert rel_err(fd_gradient(post.log_density, x), post.gradient(x)) < 1e-5
            assert rel_err(fd_jacobian(post.gradient, x), post.hessian(x)) < 1e-4

    def test_pinned_difficulty_is_honoured(self, rng):
        # the state vector never carries the first difficulty, pinned at zero
        data = simulate_rasch(5, 8, 1.0, rng)
        post = RaschPosterior(data)
        x = rng.standard_normal(post.dim)
        difficulty, ability = post.split(x)
        assert difficulty[0] == 0.0
        np.testing.assert_array_equal(difficulty[1:], x[: data.responses.shape[0] - 1])
        np.testing.assert_array_equal(ability, x[data.responses.shape[0] - 1 :])


class TestGpCovariance:
    def test_diagonal_is_exp_rho(self):
        d = grid_distances(3, 3)
        sigma, _, _ = gp_covariance((0.7, 0.0), d)
        np.testing.assert_allclose(np.diag(sigma), np.exp(0.7))

    def test_tiny_range_kills_off_diagonals(self):
        d = grid_distances(3, 3)
        sigma, _, _ = gp_covariance((0.0, -20.0), d)
        off = sigma - np.diag(np.diag(sigma))
        assert np.max(np.abs(off)) < 1e-8

    def test_two_by_two_example(self):
        d = grid_distances(2, 2)
        sigma, a, log_det = gp_covariance((np.log(2.0), np.log(0.2)), d)
        assert sigma[0, 1] == pytest.approx(2.0 * np.exp(-5.0), rel=1e-12)
        np.testing.assert_allclose(a.T @ a, sigma, atol=1e-12)
        assert log_det == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-9)

    def test_singular_covariance_raises(self):
        # a huge range collapses the covariance to the ones matrix
        d = grid_distances(4, 4)
        with pytest.raises(FactorizationError, match="numerically singular"):
            gp_covariance((0.0, 40.0), d)

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            gp_covariance((0.0, 0.0), np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestSpatialConditional:
    def _model(self, rng, rows=2, cols=2):
        data = simulate_spatial(rows, cols, np.log(2.0), np.log(0.2), 1.0, rng)
        return SpatialProbitModel(data)

    def test_zero_field_value(self, rng):
        model = self._model(rng)
        target = model.conditional_target((np.log(2.0), np.log(0.2)))
        assert target.log_density(np.zeros(4)) == pytest.approx(4 * np.log(0.5))

    def test_gradient_and_hessian_match_fd(self, rng):
        model = self._model(rng)
        target = model.conditional_target((0.3, -0.5))
        for _ in range(20):
            z = rng.standard_normal(4)
            assert rel_err(fd_gradient(target.log_density, z), target.gradient(z)) < 1e-5
            assert rel_err(fd_jacobian(target.gradient, z), target.hessian(z)) < 1e-4

    def test_prior_only_is_standard_normal(self, rng):
        model = SpatialProbitModel(
            simulate_spatial(2, 2, 0.0, 0.0, 1.0, rng), prior_only=True
        )
        target = model.conditional_target((0.0, 0.0))
        z = rng.standard_normal(4)
        assert target.log_density(z) == pytest.approx(-0.5 * z @ z)
        np.testing.assert_allclose(target.gradient(z), -z)
        # the Hessian -I comes as the vector of its diagonal, as every
        # diagonal target's does, so that its local metric needs no eigh
        np.testing.assert_array_equal(target._hessian(z), -np.ones(4))
        np.testing.assert_array_equal(target.hessian(z), -np.eye(4))

    def test_whitened_prior_chain_has_unit_variances(self):
        # ignoring the data, the whitened field is exactly N(0, I); a
        # hug+hop chain on that conditional reproduces unit marginals
        rng = np.random.default_rng(2024)
        model = SpatialProbitModel(
            simulate_spatial(2, 2, np.log(2.0), np.log(0.2), 1.0, rng), prior_only=True
        )
        target = model.conditional_target((np.log(2.0), np.log(0.2)))
        from hughop.harness import run_kernels

        trace, _ = run_kernels(
            target,
            inner_hug_hop(),
            iterations=30_000,
            rng=rng,
            burn_in=2_000,
            init="zero",
        )
        np.testing.assert_allclose(trace.positions.var(axis=0), 1.0, rtol=0.03)
        assert np.max(np.abs(trace.positions.mean(axis=0))) < 0.04


class TestGibbs:
    def test_zero_theta_scale_keeps_theta_fixed(self, rng):
        data = simulate_spatial(2, 2, np.log(2.0), np.log(0.2), 1.0, rng)
        model = SpatialProbitModel(data)
        sampler = GibbsSampler(model, inner_hug_hop(), rwm_scale=0.0)
        theta = np.array([0.1, -0.2])
        _, a, _ = model.covariance(theta)
        z0 = np.zeros(model.field_dim)
        state = GibbsState(theta, ChainState.at(model.conditional_target(theta, a), z0), a)
        moved = False
        for _ in range(50):
            state, info = sampler.step(state, rng)
            assert info["theta_rwm"] is False
            moved = moved or not np.array_equal(state.field_state.position, z0)
        np.testing.assert_array_equal(state.theta, [0.1, -0.2])
        assert moved

    def test_prior_recovery_smoke(self):
        # with the likelihood switched off the posterior is the prior:
        # field and theta marginals must both come back standard normal
        rng = np.random.default_rng(77)
        data = simulate_spatial(4, 4, np.log(2.0), np.log(0.2), 1.0, rng)
        model = SpatialProbitModel(data, prior_only=True)
        sampler = GibbsSampler(model, inner_hug_hop(), rwm_scale=1.8)
        state = sampler.init_state()
        n, burn = 20_000, 2_000
        fields = np.empty((n - burn, model.field_dim))
        thetas = np.empty((n - burn, 2))
        for sweep in range(n):
            state, _ = sampler.step(state, rng)
            if sweep >= burn:
                fields[sweep - burn] = state.field_state.position
                thetas[sweep - burn] = state.theta
        np.testing.assert_allclose(fields.var(axis=0), 1.0, rtol=0.10)
        assert np.max(np.abs(fields.mean(axis=0))) < 0.08
        np.testing.assert_allclose(thetas.var(axis=0), 1.0, rtol=0.15)
        assert np.max(np.abs(thetas.mean(axis=0))) < 0.1

    def test_two_by_two_inner_kernels_agree(self):
        # both inner kernels target the same conditional, so long-run
        # field moments must agree within Monte Carlo error
        from hughop.diagnostics import ess

        results = {}
        for name, inner in (
            ("hughop", inner_hug_hop()),
            ("hmc", [HmcKernel(HmcParams(n_steps=8, step_size=0.25))]),
        ):
            rng = np.random.default_rng(55)
            data = simulate_spatial(2, 2, np.log(2.0), np.log(0.2), 1.0, rng)
            sampler = GibbsSampler(SpatialProbitModel(data), inner, rwm_scale=1.2)
            state = sampler.init_state()
            n, burn = 30_000, 3_000
            fields = np.empty((n - burn, 4))
            for sweep in range(n):
                state, _ = sampler.step(state, rng)
                if sweep >= burn:
                    fields[sweep - burn] = state.field_state.position
            se = np.array(
                [fields[:, j].std() / np.sqrt(ess(fields[:, j])) for j in range(4)]
            )
            results[name] = (fields.mean(axis=0), fields.var(axis=0), se)
        mean_diff = np.abs(results["hughop"][0] - results["hmc"][0])
        joint_se = np.sqrt(results["hughop"][2] ** 2 + results["hmc"][2] ** 2)
        assert np.all(mean_diff < 4.0 * joint_se)
        var_ratio = results["hughop"][1] / results["hmc"][1]
        assert np.all((var_ratio > 0.85) & (var_ratio < 1.18))

    def test_eight_by_eight_calibration(self):
        # central 95% interval for rho should cover the generating value in
        # at least 8 of 10 seeded replications
        covered = 0
        for rep in range(10):
            rng = np.random.default_rng(1000 + rep)
            data = simulate_spatial(8, 8, np.log(2.0), np.log(0.2), 1.0, rng)
            model = SpatialProbitModel(data)
            trace, _, _ = run_gibbs(
                model,
                inner_hug_hop(),
                sweeps=8_000,
                rng=rng,
                burn_in=3_000,
                rwm_scale=0.5,
            )
            lo, hi = np.percentile(trace.positions[:, model.field_dim], [2.5, 97.5])
            covered += lo <= np.log(2.0) <= hi
        assert covered >= 8


class TestGibbsRecord:
    """``run_gibbs`` records its chain as a ``Trace`` with its summary."""

    def _run(self, rwm_scale=0.4, sweeps=300, prior_only=False):
        data = simulate_spatial(3, 3, np.log(2.0), np.log(0.2), 1.0, np.random.default_rng(30))
        model = SpatialProbitModel(data, prior_only=prior_only)
        rng = np.random.default_rng(31)
        return model, run_gibbs(model, inner_hug_hop(), sweeps, rng, rwm_scale=rwm_scale)

    def test_positions_are_field_then_theta(self):
        # no burn-in, so the scale never adapts and a bare sampler on the
        # same stream takes the same sweeps
        model, (trace, summary, _) = self._run()
        rng = np.random.default_rng(31)
        sampler = GibbsSampler(model, inner_hug_hop(), rwm_scale=0.4)
        state = sampler.init_state()
        assert trace.positions.shape == (300, model.total_dim)
        for row in trace.positions:
            state, _ = sampler.step(state, rng)
            np.testing.assert_array_equal(row[: model.field_dim], state.field_state.position)
            np.testing.assert_array_equal(row[model.field_dim :], state.theta)
        assert summary.iterations == 300
        assert len(summary.ess_x) == model.total_dim

    def test_log_target_is_joint_log_density(self):
        for prior_only in (False, True):
            model, (trace, _, _) = self._run(prior_only=prior_only)
            for row, logpi in zip(trace.positions, trace.log_target):
                z, theta = row[: model.field_dim], row[model.field_dim :]
                _, a, _ = model.covariance(theta)
                assert logpi == model.joint_log_density(theta, z, a)

    def test_joint_log_density_is_evaluated_once_per_sweep(self, monkeypatch):
        # a sweep builds two conditional targets, one at the current theta
        # for the field kernels and one at the proposal, whose density it
        # evaluates once; an accepted theta keeps that value as the field
        # state's logp, so sweeps make no public log_density call
        data = simulate_spatial(3, 3, np.log(2.0), np.log(0.2), 1.0, np.random.default_rng(30))
        model = SpatialProbitModel(data)
        built, evaluated = [], []
        build = model.conditional_target
        monkeypatch.setattr(model, "conditional_target", lambda *a: built.append(a) or build(*a))
        log_density = SpatialConditionalTarget.log_density
        monkeypatch.setattr(
            SpatialConditionalTarget,
            "log_density",
            lambda target, z: evaluated.append(z) or log_density(target, z),
        )
        sampler = GibbsSampler(model, inner_hug_hop(), rwm_scale=0.4)
        state = sampler.init_state()
        built.clear()
        evaluated.clear()
        rng = np.random.default_rng(32)
        accepted = 0
        for sweep in range(1, 21):
            state, info = sampler.step(state, rng)
            accepted += info["theta_rwm"]
            assert len(built) == 2 * sweep
        assert accepted > 0
        assert evaluated == []
        for rwm_scale, per_sweep in ((0.4, 2), (0.0, 1)):
            built.clear()
            run_gibbs(model, inner_hug_hop(), 40, rng, burn_in=10, rwm_scale=rwm_scale)
            # the start state's target and logp, then the sweeps
            assert len(built) == 1 + 40 * per_sweep
            assert len(evaluated) == 1
            evaluated.clear()

    def test_accept_has_one_flag_array_per_block(self):
        _, (trace, summary, _) = self._run()
        assert list(trace.accept) == ["hug", "hop", "theta_rwm"]
        assert list(summary.acceptance) == ["hug", "hop", "theta_rwm"]
        assert all(flags.shape == (300,) for flags in trace.accept.values())

    def test_fixed_theta_reports_no_theta_ess(self):
        model, (trace, summary, scale) = self._run(rwm_scale=0.0)
        np.testing.assert_array_equal(trace.positions[:, model.field_dim :], 0.0)
        block = _gibbs_block(summary, model.field_dim, scale)
        assert set(block) == {
            "acceptance", "min_ess_field", "min_ess_theta", "ess_logpi",
            "min_ess_field_per_1000", "min_ess_theta_per_1000", "ess_logpi_per_1000",
            "wall_time", "theta_rwm_scale",
        }
        assert block["min_ess_theta"] is None
        assert block["min_ess_theta_per_1000"] is None
        assert np.isfinite(block["min_ess_field"])
        assert block["min_ess_field_per_1000"] == pytest.approx(
            1000.0 * block["min_ess_field"] / 300
        )
        assert block["acceptance"]["theta_rwm"] == 0.0
        assert block["theta_rwm_scale"] == 0.0


class TestDatasetFiles:
    def test_cauchit_round_trip(self, rng, tmp_path):
        data = simulate_cauchit(30, 4, 2.0, rng)
        save_dataset(data, tmp_path, seed=9)
        loaded = load_dataset(tmp_path)
        np.testing.assert_allclose(loaded.covariates, data.covariates)
        np.testing.assert_array_equal(loaded.responses, data.responses)
        assert loaded.tau == 2.0
        np.testing.assert_allclose(loaded.true_beta, data.true_beta)

    def test_rasch_round_trip(self, rng, tmp_path):
        data = simulate_rasch(4, 6, 1.0, rng)
        save_dataset(data, tmp_path)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.responses, data.responses)
        np.testing.assert_allclose(loaded.true_ability, data.true_ability)

    def test_spatial_round_trip(self, rng, tmp_path):
        data = simulate_spatial(3, 4, 0.1, -0.3, 1.0, rng)
        save_dataset(data, tmp_path, seed=5)
        loaded = load_dataset(tmp_path)
        assert (loaded.n_rows, loaded.n_cols) == (3, 4)
        np.testing.assert_array_equal(loaded.responses, data.responses)
        assert loaded.true_rho == pytest.approx(0.1)
