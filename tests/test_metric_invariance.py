"""Invariance of the kernel variants that use a Hessian or a fixed metric.

The spectral metric maps a normal draw to a different proposal than a
Cholesky factor would, so these variants are checked end to end on curved
2-D targets with exact samplers, in the style of acceptance criterion 6:
each marginal mean lies within 3 Monte Carlo standard errors of its exact
value 0, and a two-sample KS test of the thinned chain against exact draws
does not reject at level 0.01.  A fixed covariance or mass is estimated
from exact draws.

Bimodal uses separation 1.5 (modes 2.2 component standard deviations
apart) so that every sampler crosses between the modes within the run;
at the default separation of 3 none of these local samplers does, and the
mean check would measure the crossing rate rather than invariance.  In the
valley between the modes the Hessian is indefinite, so the regularised
metric branch is exercised as well.

The stretched banana has marginal scales 1 and 2, so a mass estimated
there is far from the identity and its eigenvalues, sorted by ``eigh``,
come in the reverse of coordinate order.  On it, HMC with the kinetic
energy taken with the identity in place of M^-1, or with a full-mass
momentum drawn with A in place of A', fails this test.

The full-mass HMC entry is also checked from exact starts, which does not
rest on how fast a chain switches modes: a kernel that leaves the target
invariant keeps a batch of exact draws exact after any number of steps
(Geweke 2004), so after 3 steps from each of 10,000 exact starts the ends
and fresh exact draws must pass a two-sample KS test on each component and
on log pi, each at level 0.001 (six tests over the two targets).  Both
mutations above fail it on bimodal and on the stretched banana.
"""

import numpy as np
import pytest
from scipy import stats

from hughop.harness import ExperimentConfig, make_kernel, run_chain
from hughop.state import ChainState
from hughop.targets import make_target

TARGETS = {
    "banana": {"target": "banana", "dim": 2, "scales": "U"},
    "bimodal": {"target": "bimodal", "dim": 2, "scales": "U", "separation": 1.5},
    "banana-stretched": {"target": "banana", "dim": 2, "scales": [1.0, 2.0]},
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
    "fixed-vector-rwm": ([{"kernel": "rwm", "step_scale": 1.5, "local_cov": "fixed"}], 25_000),
    "diag-mass-hmc": ([{"kernel": "hmc", "L": 5, "step_size": 0.3}], 10_000),
    "full-mass-hmc": ([{"kernel": "hmc", "L": 10, "step_size": 0.2}], 10_000),
}

# sampler -> (the parameter of its first kernel taken from exact draws, and
# how): a covariance, its diagonal, or a mass that is its inverse
FROM_EXACT = {
    "precond-hug+hop": ("precond_cov", lambda exact: np.cov(exact.T)),
    "fixed-vector-rwm": ("cov", lambda exact: exact.var(axis=0)),
    "diag-mass-hmc": ("mass_matrix", lambda exact: 1.0 / exact.var(axis=0)),
    "full-mass-hmc": ("mass_matrix", lambda exact: np.linalg.inv(np.cov(exact.T))),
}


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("target_name", list(TARGETS))
def test_metric_kernels_leave_target_invariant(target_name, sampler):
    spec = TARGETS[target_name]
    target = make_target(spec)
    seed = 2201 + list(SAMPLERS).index(sampler) + 10 * list(TARGETS).index(target_name)
    exact = target.sample_exact(np.random.default_rng(seed + 1000), 20_000)
    kernels, iterations = SAMPLERS[sampler]
    if sampler in FROM_EXACT:
        # the fixed covariance is the target's, estimated from exact draws
        name, estimate = FROM_EXACT[sampler]
        kernels = [{**kernels[0], name: estimate(exact).tolist()}, *kernels[1:]]
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


@pytest.mark.parametrize("target_name", ["bimodal", "banana-stretched"])
def test_full_mass_hmc_keeps_exact_starts_exact(target_name):
    target = make_target(TARGETS[target_name])
    rng = np.random.default_rng(2401 + list(TARGETS).index(target_name))
    exact = target.sample_exact(rng, 10_000)
    name, estimate = FROM_EXACT["full-mass-hmc"]
    spec = {**SAMPLERS["full-mass-hmc"][0][0], name: estimate(target.sample_exact(rng, 20_000))}
    kernel = make_kernel(spec, dim=target.dim)
    ends = target.sample_exact(rng, exact.shape[0])
    for i, x in enumerate(ends):
        state = ChainState.at(target, x)
        for _ in range(3):
            state, _ = kernel.step(target, state, rng)
        ends[i] = state.position
    log_pi = [[target.log_density(x) for x in draws] for draws in (ends, exact)]
    for j, (a, b) in enumerate([*zip(ends.T, exact.T), log_pi]):
        p_value = stats.ks_2samp(a, b).pvalue
        assert p_value > 0.001, f"test {j} (components, then log pi): KS p={p_value:.5f}"
