"""Effective sample size estimation and run summaries.

The primary estimator is Geyer's initial monotone positive sequence: the
integrated autocorrelation time is built from consecutive-lag pairs of
empirical autocorrelations, truncated at the first nonpositive pair and
forced nonincreasing.  A batch-means estimator is kept alongside as a
cross-check.  ESS values are clamped to [1, n]; a nonpositive estimated
autocorrelation time (an antithetic series) clamps to n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# numpy loads its fft module on first use; importing it here keeps that load
# out of a process's first ess call
from numpy.fft import irfft, rfft

from .exceptions import DegenerateSeriesError

__all__ = ["ess", "ess_batch_means", "Trace", "RunSummary", "min_finite", "summarize_run"]

MIN_SERIES_LENGTH = 100
# the number of batches ess_batch_means splits a series into
N_BATCHES = 50


@lru_cache(maxsize=128)
def _fft_length(n: int) -> int:
    """The smallest 11-smooth integer >= n, as ``scipy.fft.next_fast_len(n)``.

    Every such integer is an odd 11-smooth part times a power of two, and only
    odd parts below the best length found so far can improve on it.  A run's
    series share one length, so the search is cached.
    """
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # p3 times the least power of two that reaches n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _check_series(series) -> np.ndarray:
    x = np.asarray(series, dtype=float).ravel()
    if x.size < MIN_SERIES_LENGTH:
        raise DegenerateSeriesError(
            f"series too short for ESS: {x.size} < {MIN_SERIES_LENGTH}"
        )
    if not np.all(np.isfinite(x)):
        raise DegenerateSeriesError("series contains non-finite values")
    if np.max(x) == np.min(x):
        raise DegenerateSeriesError("series has zero variance")
    return x


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Empirical autocorrelations rho_0..rho_{n-1} via FFT."""
    n = x.size
    centred = x - x.mean()
    m = _fft_length(2 * n)
    f = rfft(centred, m)
    acov = irfft(f * np.conj(f), m)[:n]
    return acov / acov[0]


def ess(series) -> float:
    """Effective sample size n / (1 + 2 sum rho_k) with monotone truncation.

    Args:
        series: scalar chain values, length >= 100 and non-constant.

    Returns:
        Estimated ESS, clamped to [1, n].
    """
    x = _check_series(series)
    n = x.size
    rho = _autocorrelations(x)

    n_pairs = n // 2
    pair_sums = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    tau = -1.0
    running_min = np.inf
    for gamma in pair_sums:
        if gamma <= 0.0:
            break
        running_min = min(running_min, gamma)
        tau += 2.0 * running_min
    if tau <= 0.0:
        return float(n)
    return float(np.clip(n / tau, 1.0, n))


def ess_batch_means(series) -> float:
    """Batch-means ESS over ``N_BATCHES`` batches:
    n Var(x) / (batch_size Var(batch means))."""
    x = _check_series(series)
    n = x.size
    batch_size = n // N_BATCHES  # at least 2, as n >= MIN_SERIES_LENGTH
    trimmed = x[: N_BATCHES * batch_size].reshape(N_BATCHES, batch_size)
    means = trimmed.mean(axis=1)
    var_means = means.var(ddof=1)
    var_x = x.var(ddof=1)
    if var_means == 0.0:
        return float(n)
    tau = batch_size * var_means / var_x
    return float(np.clip(n / tau, 1.0, n))


@dataclass
class Trace:
    """Recorded output of one chain run.

    ``positions`` may be None when a run records only the log-density
    (memory-saving mode).  ``accept`` maps kernel labels to per-iteration
    acceptance flags; ``iterations`` counts the post burn-in sweeps run
    (None: one per recorded row, as in an unthinned run).
    """

    log_target: np.ndarray
    positions: np.ndarray | None = None
    accept: dict[str, np.ndarray] = field(default_factory=dict)
    wall_time: float = 0.0
    burn_in_fraction: float = 0.0
    iterations: int | None = None

    @property
    def n_recorded(self) -> int:
        return int(np.asarray(self.log_target).size)


@dataclass
class RunSummary:
    """Per-run efficiency record: ESS, acceptance rates, timings."""

    iterations: int
    wall_time: float
    acceptance: dict[str, float]
    min_ess_x: float | None
    ess_x: list[float] | None
    ess_logpi: float | None
    burn_in_fraction: float
    degenerate: bool = False
    notes: list[str] = field(default_factory=list)

    def per_1000(self, value: float | None) -> float | None:
        """``value`` per 1000 post burn-in iterations; None stays None."""
        return None if value is None else 1000.0 * value / self.iterations

    @property
    def min_ess_x_per_1000(self) -> float | None:
        return self.per_1000(self.min_ess_x)

    @property
    def ess_logpi_per_1000(self) -> float | None:
        return self.per_1000(self.ess_logpi)

    @property
    def min_ess_x_per_sec(self) -> float | None:
        if self.min_ess_x is None or self.wall_time <= 0:
            return None
        return self.min_ess_x / self.wall_time

    @property
    def ess_logpi_per_sec(self) -> float | None:
        if self.ess_logpi is None or self.wall_time <= 0:
            return None
        return self.ess_logpi / self.wall_time

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "acceptance": {k: v for k, v in self.acceptance.items()},
            "min_ess_x": self.min_ess_x,
            "ess_x": self.ess_x,
            "ess_logpi": self.ess_logpi,
            "min_ess_x_per_1000": self.min_ess_x_per_1000,
            "ess_logpi_per_1000": self.ess_logpi_per_1000,
            "min_ess_x_per_sec": self.min_ess_x_per_sec,
            "ess_logpi_per_sec": self.ess_logpi_per_sec,
            "burn_in_fraction": self.burn_in_fraction,
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


def min_finite(values) -> float | None:
    """The least finite entry of ``values``, or None when there is none."""
    finite = [v for v in values if np.isfinite(v)]
    return float(min(finite)) if finite else None


def summarize_run(trace: Trace) -> RunSummary:
    """Compute the efficiency summary for a recorded trace.

    Degenerate series (an all-reject chain, a constant component) set the
    ``degenerate`` flag and leave the affected entries as None instead of
    raising.  ESS values refer to the recorded (post burn-in, thinned)
    iterations, and ``iterations`` to the post burn-in sweeps run.
    """
    n = trace.n_recorded
    if n == 0:
        raise ValueError("empty trace")

    acceptance = {
        name: float(np.mean(flags)) for name, flags in trace.accept.items()
    }
    notes: list[str] = []
    degenerate = False

    ess_logpi = None
    try:
        ess_logpi = ess(trace.log_target)
    except DegenerateSeriesError as exc:
        degenerate = True
        notes.append(f"log-target series degenerate: {exc}")

    ess_x = None
    min_ess_x = None
    if trace.positions is not None:
        ess_x = []
        for j in range(trace.positions.shape[1]):
            try:
                ess_x.append(ess(trace.positions[:, j]))
            except DegenerateSeriesError as exc:
                degenerate = True
                notes.append(f"component {j} degenerate: {exc}")
                ess_x.append(np.nan)
        min_ess_x = min_finite(ess_x)

    return RunSummary(
        iterations=n if trace.iterations is None else trace.iterations,
        wall_time=trace.wall_time,
        acceptance=acceptance,
        min_ess_x=min_ess_x,
        ess_x=ess_x,
        ess_logpi=ess_logpi,
        burn_in_fraction=trace.burn_in_fraction,
        degenerate=degenerate,
        notes=notes,
    )
