"""ESS estimators and run summaries."""

import numpy as np
import pytest

from hughop.diagnostics import Trace, _fft_length, ess, ess_batch_means, summarize_run
from hughop.exceptions import DegenerateSeriesError


def ar1(rng, n, rho):
    noise = rng.standard_normal(n)
    out = np.empty(n)
    out[0] = noise[0]
    for i in range(1, n):
        out[i] = rho * out[i - 1] + np.sqrt(1 - rho**2) * noise[i]
    return out


class TestEss:
    def test_white_noise_near_n(self, rng):
        n = 100_000
        x = rng.standard_normal(n)
        assert 0.95 * n <= ess(x) <= 1.05 * n

    def test_ar1_matches_analytic(self, rng):
        # integrated autocorrelation time of AR(1) is (1+rho)/(1-rho) = 3
        n = 100_000
        x = ar1(rng, n, 0.5)
        assert ess(x) == pytest.approx(n / 3.0, rel=0.10)

    def test_alternating_series_clamps_at_n(self):
        x = np.tile([1.0, -1.0], 500)
        assert ess(x) == len(x)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError, match="zero variance"):
            ess(np.ones(500))

    def test_short_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            ess(np.arange(50, dtype=float))

    def test_non_finite_rejected(self):
        x = np.ones(500)
        x[3] = np.nan
        with pytest.raises(DegenerateSeriesError):
            ess(x)

    def test_affine_invariance(self, rng):
        x = ar1(rng, 20_000, 0.7)
        base = ess(x)
        assert ess(5.0 * x - 3.0) == pytest.approx(base, rel=1e-10)
        assert ess(-0.1 * x + 100.0) == pytest.approx(base, rel=1e-10)

    def test_clamped_to_valid_range(self, rng):
        x = ar1(rng, 500, 0.999)
        value = ess(x)
        assert 1.0 <= value <= 500.0

    def test_batch_means_agrees_on_ar1(self, rng):
        n = 100_000
        x = ar1(rng, n, 0.5)
        a = ess(x)
        b = ess_batch_means(x)
        assert abs(a - b) / a < 0.15


def test_fft_length_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    lengths = [*range(1, 65_537), 80_000, 100_000]
    assert [_fft_length(n) for n in lengths] == [next_fast_len(n) for n in lengths]


class TestSummarizeRun:
    def _trace(self, rng, n=10_000, d=3):
        positions = rng.standard_normal((n, d))
        log_target = -0.5 * np.sum(positions**2, axis=1)
        return Trace(
            log_target=log_target,
            positions=positions,
            accept={"hug": np.ones(n, dtype=bool), "hop": rng.random(n) < 0.7},
            wall_time=2.0,
        )

    def test_iid_draws_have_high_min_ess(self, rng):
        summary = summarize_run(self._trace(rng))
        assert summary.min_ess_x >= 0.9 * 10_000
        assert summary.min_ess_x == pytest.approx(min(summary.ess_x))

    def test_min_ess_never_exceeds_components(self, rng):
        summary = summarize_run(self._trace(rng))
        for value in summary.ess_x:
            assert summary.min_ess_x <= value + 1e-9

    def test_acceptance_bookkeeping(self, rng):
        trace = self._trace(rng)
        summary = summarize_run(trace)
        assert summary.acceptance["hug"] == 1.0
        assert 0.6 < summary.acceptance["hop"] < 0.8

    def test_per_1000_normalisation(self):
        # ESS 500 over 50,000 iterations is 10 per 1000
        rng = np.random.default_rng(0)
        trace = self._trace(rng, n=50_000, d=1)
        summary = summarize_run(trace)
        summary.min_ess_x = 500.0
        assert summary.min_ess_x_per_1000 == pytest.approx(10.0)

    def test_all_reject_trace_flags_degenerate(self):
        n = 1000
        trace = Trace(
            log_target=np.full(n, -1.2),
            positions=np.ones((n, 2)),
            accept={"rwm": np.zeros(n, dtype=bool)},
            wall_time=1.0,
        )
        summary = summarize_run(trace)
        assert summary.acceptance["rwm"] == 0.0
        assert summary.degenerate
        assert summary.min_ess_x is None
        assert summary.ess_logpi is None
        assert summary.notes

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize_run(Trace(log_target=np.array([]), positions=None))

    def test_logpi_only_trace(self, rng):
        trace = Trace(log_target=rng.standard_normal(5000), positions=None, wall_time=1.0)
        summary = summarize_run(trace)
        assert summary.min_ess_x is None
        assert summary.ess_logpi > 4000

    def test_per_second_rates(self, rng):
        summary = summarize_run(self._trace(rng))
        assert summary.min_ess_x_per_sec == pytest.approx(summary.min_ess_x / 2.0)

    def test_thinning_scales_per_iteration_rates(self, rng):
        trace = self._trace(rng, n=5000)
        trace.iterations = 20_000
        summary = summarize_run(trace)
        assert summary.iterations == 20_000

    def test_to_dict_round_trips_through_json(self, rng):
        import json

        summary = summarize_run(self._trace(rng))
        parsed = json.loads(json.dumps(summary.to_dict()))
        assert parsed["iterations"] == 10_000
