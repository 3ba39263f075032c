"""Invariance of the kernel variants that use a Hessian or a fixed metric.

The spectral local metric maps a normal draw to a different proposal than a
Cholesky factor would, so these variants are checked end to end on the two
curved 2-D targets with exact samplers, in the style of acceptance
criterion 6: each marginal mean lies within 3 Monte Carlo standard errors
of its exact value 0, and a two-sample KS test of the thinned chain against
exact draws does not reject at level 0.01.

Bimodal uses separation 1.5 (modes 2.2 component standard deviations
apart) so that every sampler crosses between the modes within the run;
at the default separation of 3 none of these local samplers does, and the
mean check would measure the crossing rate rather than invariance.  In the
valley between the modes the Hessian is indefinite, so the regularised
metric branch is exercised as well.
"""

import numpy as np
import pytest
from scipy import stats

from hughop.harness import ExperimentConfig, run_chain
from hughop.targets import make_target

TARGETS = {
    "banana": {"target": "banana", "dim": 2, "scales": "U"},
    "bimodal": {"target": "bimodal", "dim": 2, "scales": "U", "separation": 1.5},
}

# (kernel specs, iterations); iteration counts give each sampler a few
# hundred effective draws per component at a total wall time under 60 s
SAMPLERS = {
    "hessian-hug+hop": (
        [
            {"kernel": "hug", "T": 1.0, "B": 5, "mode": "hessian"},
            {"kernel": "hop", "lambda": 2.0, "kappa": 0.5, "hessian": True},
        ],
        12_000,
    ),
    "precond-hug+hop": (
        [
            {"kernel": "hug", "T": 1.0, "B": 5, "mode": "precond"},
            {"kernel": "hop", "lambda": 2.0, "kappa": 0.5},
        ],
        20_000,
    ),
    "hessian-rwm": ([{"kernel": "rwm", "step_scale": 1.0, "local_cov": "hessian"}], 25_000),
}


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("target_name", list(TARGETS))
def test_metric_kernels_leave_target_invariant(target_name, sampler):
    spec = TARGETS[target_name]
    target = make_target(spec)
    seed = 2201 + list(SAMPLERS).index(sampler) + 10 * list(TARGETS).index(target_name)
    exact = target.sample_exact(np.random.default_rng(seed + 1000), 20_000)
    kernels, iterations = SAMPLERS[sampler]
    if sampler.startswith("precond"):
        # the precondition is the target covariance, estimated from exact draws
        kernels = [{**kernels[0], "precond_cov": np.cov(exact.T).tolist()}, *kernels[1:]]
    cfg = ExperimentConfig.from_dict(
        {
            "target": spec,
            "kernels": kernels,
            "iterations": iterations,
            "burn_in": 1_000,
            "seed": seed,
            "init": "exact",
        }
    )
    trace, summary = run_chain(cfg)
    for j in range(target.dim):
        series = trace.positions[:, j]
        ess = summary.ess_x[j]
        se = series.std() / np.sqrt(ess)
        assert abs(series.mean()) <= 3.0 * se, f"component {j}: mean outside 3 MC standard errors"
        thin = max(1, int(np.ceil(2.0 * series.size / ess)))
        p_value = stats.ks_2samp(series[::thin], exact[:, j]).pvalue
        assert p_value > 0.01, f"component {j}: KS test rejected at level 0.01 (p={p_value:.4f})"
