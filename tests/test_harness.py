"""Config plumbing, chain running, tuning and the experiment procedures."""

import json
import re

import numpy as np
import pytest

from hughop.baselines import RwmKernel, RwmParams
from hughop.exceptions import ConfigError, NonFiniteInputError
from hughop.harness import (
    ExperimentConfig,
    grid_tune,
    hop_scaling_experiment,
    hug_efficiency_experiment,
    make_kernel,
    run_chain,
    stability_experiment,
    theorem2_experiment,
    write_trace_csv,
)
from hughop.hop import HopKernel, HopParams
from hughop.hug import HugKernel, HugParams
from hughop.model_runs import tune_kernels
from hughop.targets import GaussianDiag, make_target


def base_config(**overrides):
    raw = {
        "target": {"target": "gauss", "dim": 3, "scales": "U"},
        "kernels": [
            {"kernel": "hug", "T": 1.0, "B": 5},
            {"kernel": "hop", "lambda": 1.5, "kappa": 0.5},
        ],
        "iterations": 2000,
        "burn_in": 200,
        "seed": 11,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="target"):
            ExperimentConfig.from_dict({"kernels": [], "iterations": 10})

    @pytest.mark.parametrize("key", ["iters", "pilot_burn_fraction"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key$"):
            ExperimentConfig.from_dict(
                {"target": {}, "kernels": [{}], "iterations": 10, key: 0.2}
            )

    def test_field_level_messages(self):
        with pytest.raises(ConfigError, match="iterations"):
            base_config(iterations=0)
        with pytest.raises(ConfigError, match="thin"):
            base_config(thin=0)
        with pytest.raises(ConfigError, match="record"):
            base_config(record="everything")

    def test_kernel_errors_carry_position(self):
        with pytest.raises(ConfigError, match=r"kernels\[0\]"):
            base_config(kernels=[{"kernel": "hug", "T": -1.0, "B": 5}]).build_kernels(3)
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_kernel({"kernel": "slice"})
        with pytest.raises(ConfigError, match="unknown parameters"):
            make_kernel({"kernel": "mala", "step_scale": 0.5, "bogus": 1})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kernel": "hug", "T": -1.0}, "kernels[0]: total_time must be nonnegative"),
            ({"kernel": "hop", "kappa": -1}, "kernels[0]: kappa must be positive"),
            ({"kernel": "nope"}, "kernels[0]: unknown kernel 'nope'"),
            (
                {"kernel": "hug", "zero_grad_tol": 1e-9},
                "kernels[0]: unknown parameters for kernel 'hug': ['zero_grad_tol']",
            ),
            # the library's spellings of "lambda", "hessian" and "step_size"
            (
                {"kernel": "hop", "lam": 2.0},
                "kernels[0]: unknown parameters for kernel 'hop': ['lam']",
            ),
            (
                {"kernel": "hop", "use_hessian": True},
                "kernels[0]: unknown parameters for kernel 'hop': ['use_hessian']",
            ),
            (
                {"kernel": "hmc", "delta": 0.2},
                "kernels[0]: unknown parameters for kernel 'hmc': ['delta']",
            ),
        ],
    )
    def test_kernel_error_has_one_prefix(self, spec, message):
        with pytest.raises(ConfigError) as info:
            make_kernel(spec, dim=3, where="kernels[0]")
        assert str(info.value) == message

    @pytest.mark.parametrize("eps", [0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "spec",
        [
            {"kernel": "hug", "mode": "hessian"},
            {"kernel": "hop", "hessian": True},
            {"kernel": "rwm", "local_cov": "hessian"},
        ],
    )
    def test_bad_metric_floor_is_config_error_naming_eps(self, spec, eps):
        with pytest.raises(ConfigError) as info:
            make_kernel({**spec, "eps": eps}, dim=3, where="kernels[2]")
        assert info.value.field == "kernels[2].eps"

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan"), float("inf")])
    def test_params_reject_a_bad_metric_floor(self, eps):
        for build in (
            lambda: HugParams(total_time=1.0, n_bounces=2, mode="hessian", eps=eps),
            lambda: HopParams(lam=1.0, kappa=0.5, use_hessian=True, eps=eps),
            lambda: RwmParams(step_scale=1.0, local_cov="hessian", eps=eps),
        ):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                build()

    def test_kernel_registry_round_trip(self):
        for spec in (
            {"kernel": "hug", "T": 1.0, "B": 10, "mode": "hessian", "eps": 1e-6},
            {"kernel": "hop", "lambda": 4, "kappa": 0.5, "hessian": False, "guard": "plus1"},
            {"kernel": "hmc", "L": 10, "step_size": 0.1},
            {"kernel": "rwm", "step_scale": 0.5},
            {"kernel": "mala", "step_scale": 0.5},
        ):
            kernel = make_kernel(spec, dim=4)
            assert kernel.name == spec["kernel"]

    @pytest.mark.parametrize("cov", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_bad_fixed_rwm_cov_is_config_error(self, cov):
        with pytest.raises(ConfigError, match=r"kernels\[0\]"):
            base_config(
                kernels=[{"kernel": "rwm", "local_cov": "fixed", "cov": cov}]
            ).build_kernels(2)

    @pytest.mark.parametrize(
        "mass",
        [
            [[1.0, 0.0], [0.0, -1.0]],  # not positive definite
            [-1.0, 2.0],  # a negative diagonal entry
            [[1.0, 0.5], [0.0, 1.0]],  # not symmetric
            [1.0, 2.0, 3.0],  # wrong length
            np.eye(3).tolist(),  # wrong size
        ],
    )
    def test_bad_hmc_mass_is_config_error(self, mass):
        with pytest.raises(ConfigError, match=r"kernels\[0\]"):
            base_config(kernels=[{"kernel": "hmc", "mass_matrix": mass}]).build_kernels(2)

    @pytest.mark.parametrize(
        "spec,param",
        [
            ({"kernel": "hmc", "mass_matrix": [[1.0, 0.0], [0.0, -1.0]]}, "mass_matrix"),
            ({"kernel": "rwm", "local_cov": "fixed", "cov": [[1.0, 0.0], [0.0, -1.0]]}, "cov"),
            ({"kernel": "hug", "mode": "precond", "precond_cov": [[1.0, 0.0], [0.0, -1.0]]},
             "precond_cov"),
        ],
    )
    def test_non_pd_covariance_error_names_its_parameter(self, spec, param):
        with pytest.raises(ConfigError) as info:
            make_kernel(spec, dim=2, where="kernels[0]")
        assert str(info.value).startswith(f"kernels[0]: {param} is not positive definite")

    def test_hop_default_scale_uses_dimension(self):
        kernel = make_kernel({"kernel": "hop"}, dim=100)
        assert kernel.params.lam == pytest.approx(2.5)


class TestRunChain:
    def test_deterministic_traces_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        run_chain(base_config(out=str(out)))
        first = (out / "trace.csv").read_bytes()
        run_chain(base_config(out=str(out)))
        assert (out / "trace.csv").read_bytes() == first

    def test_different_seed_changes_trace(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_chain(base_config(out=str(out_a)))
        run_chain(base_config(out=str(out_b), seed=12))
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_trace_embeds_config_and_version(self, tmp_path):
        import hughop

        run_chain(base_config(out=str(tmp_path)))
        text = (tmp_path / "trace.csv").read_text()
        assert text.startswith(f"# hughop {hughop.__version__}")
        assert '"seed": 11' in text.splitlines()[1]
        record = json.loads((tmp_path / "results.jsonl").read_text())
        assert record["config"]["iterations"] == 2000

    def test_results_file_appends(self, tmp_path):
        run_chain(base_config(out=str(tmp_path)))
        run_chain(base_config(out=str(tmp_path), seed=99))
        lines = (tmp_path / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_recorded_length_respects_burn_in_and_thin(self):
        trace, summary = run_chain(base_config(iterations=1000, burn_in=100, thin=3))
        assert trace.n_recorded == 300
        assert summary.iterations == 900

    def test_thinned_run_counts_the_sweeps_it_ran(self):
        # 1000 sweeps at thin=3 record 334 rows; the rates are per sweep run,
        # not per 334 * 3 = 1002
        trace, summary = run_chain(base_config(
            target={"target": "gauss", "dim": 2, "scales": "U"},
            kernels=[{"kernel": "rwm", "step_scale": 0.8}],
            iterations=1000, burn_in=0, thin=3,
        ))
        assert trace.n_recorded == 334
        assert summary.iterations == 1000
        assert summary.ess_logpi_per_1000 == 1000.0 * summary.ess_logpi / 1000

    def test_trace_cache_consistency(self):
        trace, _ = run_chain(base_config())
        target = make_target({"target": "gauss", "dim": 3, "scales": "U"})
        for i in range(0, trace.n_recorded, 500):
            assert trace.log_target[i] == pytest.approx(
                target.log_density(trace.positions[i]), abs=1e-8
            )

    def test_hug_only_chain_stays_on_contours(self):
        # with anisotropy the log-density still moves a little, but mixing in
        # log pi is far slower than in the components
        cfg = ExperimentConfig.from_dict(
            {
                "target": {"target": "gauss", "dim": 5, "scales": "L"},
                "kernels": [{"kernel": "hug", "T": 1.0, "B": 10}],
                "iterations": 20_000,
                "burn_in": 1000,
                "seed": 4,
            }
        )
        _, summary = run_chain(cfg)
        assert summary.ess_logpi < 0.1 * summary.min_ess_x

    def test_explicit_init_vector(self):
        trace, _ = run_chain(base_config(init=[5.0, 5.0, 5.0], iterations=300, burn_in=0))
        assert trace.n_recorded == 300

    def test_logpi_only_record(self):
        trace, summary = run_chain(base_config(record="logpi"))
        assert trace.positions is None
        assert summary.min_ess_x is None


class TestGridTune:
    def test_single_cell_returns_it(self):
        cfg = base_config(grid={"kernels.1.lambda": [2.5]}, pilot_iterations=1500)
        result = grid_tune(cfg)
        assert result.best == {"kernels.1.lambda": 2.5}
        assert len(result.table) == 1

    def test_objective_validation(self):
        cfg = base_config(grid={"kernels.1.lambda": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="objective"):
            grid_tune(cfg, objective="ess_per_fortnight")

    def test_bad_grid_path(self):
        cfg = base_config(grid={"kernels.7.lambda": [1.0]})
        with pytest.raises(ConfigError, match="path"):
            grid_tune(cfg)

    def test_rejected_kernel_parameters_score_nan(self):
        cfg = base_config(grid={"kernels.1.kappa": [-1.0, 0.5]}, pilot_iterations=1500)
        result = grid_tune(cfg)
        assert np.isnan(result.table[0]["score"])
        assert "kappa" in result.table[0]["note"]
        assert result.best == {"kernels.1.kappa": 0.5}

    def test_program_errors_propagate(self):
        # a non-finite input is an error to report, not a degenerate cell
        cfg = base_config(grid={"kernels.1.lambda": [1.0, 2.0]}, init=[np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteInputError):
            grid_tune(cfg)

    def test_callable_objective_and_full_table(self):
        cfg = base_config(
            grid={"kernels.1.lambda": [1.0, 2.0], "kernels.1.kappa": [0.5, 1.0]},
            pilot_iterations=1500,
        )
        result = grid_tune(cfg, objective=lambda s: s.acceptance["hop"])
        assert len(result.table) == 4
        assert all("score" in row for row in result.table)
        best_row = max(result.table, key=lambda r: r["score"])
        assert result.best == {
            "kernels.1.lambda": best_row["kernels.1.lambda"],
            "kernels.1.kappa": best_row["kernels.1.kappa"],
        }

    @pytest.mark.parametrize(
        "path", ["iterations.x", "kernels.5.T", "kernels.a.T", "target.missing.x", "seed.0"]
    )
    def test_unresolved_grid_path_is_config_error(self, path):
        cfg = base_config(grid={path: [1]}, pilot_iterations=200)
        with pytest.raises(ConfigError, match=rf"{re.escape(path)}: path does not resolve"):
            grid_tune(cfg)

    def test_new_leaf_key_resolves(self):
        cfg = base_config(grid={"kernels.0.eps": [1e-6]}, pilot_iterations=1500)
        assert grid_tune(cfg).best == {"kernels.0.eps": 1e-6}


LG5 = {"target": "lg", "a": 1.0, "dim": 5, "scales": "U"}


def _lg5_hug_hop(cell):
    return [
        HugKernel(HugParams(total_time=1.0, n_bounces=cell["B"])),
        HopKernel(HopParams(lam=cell["lam"], kappa=0.5)),
    ]


class TestOneTuner:
    """``grid_tune`` and ``model_runs.tune_kernels`` share one cell loop."""

    def test_equivalent_configs_score_alike(self):
        cfg = base_config(
            target=LG5,
            kernels=[{"kernel": "hug", "T": 1.0, "B": 3}, {"kernel": "hop", "lambda": 1.0, "kappa": 0.5}],
            grid={"kernels.0.B": [3, 5], "kernels.1.lambda": [1.0, 2.0]},
            pilot_iterations=1500,
            init="zero",
            objective="ess_per_iteration",
        )
        harness_result = grid_tune(cfg)
        model_result = tune_kernels(
            make_target(LG5), _lg5_hug_hop, {"B": [3, 5], "lam": [1.0, 2.0]}, 1500, seed=11
        )
        harness_scores = [row["score"] for row in harness_result.table]
        assert len(harness_scores) == 4 and np.all(np.isfinite(harness_scores))
        assert [row["score"] for row in model_result.table] == harness_scores
        assert model_result.best == {
            "B": harness_result.best["kernels.0.B"],
            "lam": harness_result.best["kernels.1.lambda"],
        }
        assert model_result.best_score == harness_result.best_score

    def test_all_degenerate_grid_raises_config_error(self):
        # a random walk this wide rejects every proposal, so no cell scores
        cfg = base_config(
            kernels=[{"kernel": "rwm", "step_scale": 1e8}],
            grid={"kernels.0.step_scale": [1e8, 1e9]},
            pilot_iterations=200,
            init="zero",
        )
        with pytest.raises(ConfigError, match="all grid cells degenerate"):
            grid_tune(cfg)
        with pytest.raises(ConfigError, match="all grid cells degenerate"):
            tune_kernels(
                make_target(cfg.target),
                lambda cell: [RwmKernel(RwmParams(step_scale=cell["scale"]))],
                {"scale": [1e8, 1e9]},
                200,
                seed=11,
            )


class TestHugEfficiency:
    def test_row_count_matches_grid(self, rng):
        target = GaussianDiag(scales=np.linspace(0.5, 2.0, 4))
        rows = hug_efficiency_experiment(target, [1, 2], [0.5, 1.0, 2.0], n_reps=50, seed=1)
        assert len(rows) == 6

    def test_zero_time_gives_zero_efficiency(self):
        target = GaussianDiag(scales=[1.0, 2.0])
        rows = hug_efficiency_experiment(target, [1], [0.0], n_reps=100, seed=1)
        assert rows[0]["efficiency"] == 0.0

    def test_tiny_step_accepts_nearly_always(self):
        target = GaussianDiag(scales=np.linspace(0.5, 2.0, 6))
        rows = hug_efficiency_experiment(target, [64], [0.25], n_reps=200, seed=1)
        assert rows[0]["mean_alpha"] > 0.99

    def test_failed_trajectories_score_zero_alpha_and_jump(self):
        # the gradient is NaN at x[0] >= wall, so a trajectory that crosses
        # it fails; the draws do not depend on failures, so each failing rep
        # loses exactly its alpha and its jump
        def walled(wall):
            class Wall(GaussianDiag):
                def _gradient(self, x):
                    return super()._gradient(x) if x[0] < wall else np.full(2, np.nan)

            return Wall(1.0, dim=2)

        def row(target):
            return hug_efficiency_experiment(target, [4], [1.0], n_reps=200, seed=5)[0]

        free, partial, blocked = row(walled(np.inf)), row(walled(0.5)), row(walled(-np.inf))
        assert blocked["mean_alpha"] == 0.0 and blocked["efficiency"] == 0.0
        assert 0.0 < partial["mean_alpha"] < free["mean_alpha"]
        assert 0.0 < partial["efficiency"] < free["efficiency"]

    def test_requires_exact_sampler(self):
        from hughop.targets import LogisticGaussian

        with pytest.raises(ValueError, match="exact"):
            hug_efficiency_experiment(
                LogisticGaussian(a=1.0, scales=1.0, dim=2), [1], [1.0], 10
            )


class TestStability:
    def test_spherical_gaussian_exactly_stable(self):
        target = GaussianDiag(scales=1.0, dim=5)
        result = stability_experiment(target, step=0.1, steps=500, seed=2)
        assert np.max(np.abs(result["delta"])) < 1e-10
        assert not result["diverged"]

    def test_zero_steps_empty_trace(self):
        target = GaussianDiag(scales=1.0, dim=2)
        result = stability_experiment(target, step=0.1, steps=0, seed=2)
        assert result["delta"].size == 0

    def test_divergence_recorded_not_fatal(self):
        target = GaussianDiag(scales=[1.0, 0.01])
        result = stability_experiment(
            target, step=2.0, steps=50, seed=3, divergence_threshold=1.0
        )
        assert result["diverged"]
        assert result["delta"].size <= 50


class TestHopScaling:
    def test_grid_cardinality_and_monotone_optimum(self):
        rows = hop_scaling_experiment(
            {"target": "lg", "a": 1.0, "scales": "U"},
            dims=[10, 50, 100],
            lam_grid=[2, 4, 6, 9, 14, 20, 30],
            kappa_grid=[0.5],
            iterations=20_000,
            seed=6,
        )
        assert len(rows) == 21
        best_lam = {}
        for dim in (10, 50, 100):
            cells = [r for r in rows if r["dim"] == dim and np.isfinite(r["ess_logpi"])]
            best = max(cells, key=lambda r: r["ess_logpi"])
            best_lam[dim] = best["lambda"]
        assert best_lam[10] <= best_lam[50] <= best_lam[100]
        assert best_lam[100] > best_lam[10]


class TestTheorem2:
    def test_discrepancy_shrinks_with_dimension(self):
        errs = {}
        for dim in (20, 500):
            result = theorem2_experiment(
                {"dist": "uniform", "low": 0.5, "high": 5.0},
                dim=dim,
                lam=2.0,
                kappa=1.0,
                iterations=30_000,
                seed=17,
            )
            errs[dim] = result["abs_error"]
        assert errs[500] < errs[20]

    def test_reports_limit(self):
        from scipy.special import ndtr

        result = theorem2_experiment(
            {"dist": "uniform", "low": 0.5, "high": 5.0},
            dim=50,
            lam=2.0,
            kappa=2.0,
            iterations=5_000,
            seed=3,
        )
        assert result["limit"] == pytest.approx(2.0 * ndtr(-1.0))

    @pytest.mark.parametrize(
        "kappa, mean_acceptance, limit",
        [
            (0.5, "0x1.67f2ce8638453p-1", "0x1.9aecba9d22528p-1"),
            (1.0, "0x1.247665475fb39p-1", "0x1.3bf143b9aa712p-1"),
            (2.0, "0x1.43c26c7cc7aa0p-2", "0x1.44ed0bb7cb20cp-2"),
        ],
    )
    def test_floats_are_pinned(self, kappa, mean_acceptance, limit):
        # criterion 5's kappas and seed on a short run; the limit is
        # 2 Phi(-kappa/2) to the bit, the mean acceptance to rounding
        from scipy.special import ndtr

        result = theorem2_experiment(
            {"dist": "uniform", "low": 0.5, "high": 5.0},
            dim=20,
            lam=2.0,
            kappa=kappa,
            iterations=2_000,
            seed=2105,
        )
        assert result["limit"] == 2.0 * ndtr(-kappa / 2.0) == float.fromhex(limit)
        assert result["mean_acceptance"] == pytest.approx(float.fromhex(mean_acceptance), rel=1e-12)

    def test_rejects_bad_precision_law(self):
        with pytest.raises(ConfigError):
            theorem2_experiment({"dist": "gamma"}, 10, 1.0, 1.0, 100)
        with pytest.raises(ConfigError):
            theorem2_experiment(lambda rng, d: -np.ones(d), 10, 1.0, 1.0, 100)


def test_write_trace_without_positions(tmp_path):
    from hughop.diagnostics import Trace

    trace = Trace(
        log_target=np.array([-1.0, -2.0]),
        positions=None,
        accept={"hop": np.array([True, False])},
    )
    write_trace_csv(tmp_path / "t.csv", trace, {"k": 1})
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[2] == "iteration,logpi,accept_hop"
    assert lines[3] == "0,-1,1"


def test_write_trace_rows_match_per_field_formatting(tmp_path):
    from hughop.diagnostics import Trace

    rng = np.random.default_rng(5)
    positions = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-300, 300, (6, 3))
    positions[0] = [np.nan, np.inf, -0.0]
    log_target = np.array([-np.inf, 1e-320, -2.5, 3.0, 0.1, -7e300])
    accept = {"hug": rng.random(6) < 0.5, "hop": np.ones(6, dtype=bool)}
    write_trace_csv(tmp_path / "t.csv", Trace(log_target, positions, accept), {"k": 1})
    expected = [
        ",".join([str(i), *(f"{v:.17g}" for v in positions[i]), f"{log_target[i]:.17g}",
                  str(int(accept["hop"][i])), str(int(accept["hug"][i]))])
        for i in range(6)
    ]
    assert (tmp_path / "t.csv").read_text().splitlines()[3:] == expected
