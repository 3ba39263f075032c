"""Hug and Hop MCMC: contour-hugging and contour-hopping kernels,
Hessian-aware variants, reference samplers, and a benchmark harness."""

__version__ = "0.1.0"

from .baselines import (
    HmcKernel,
    HmcParams,
    MalaKernel,
    MalaParams,
    RwmKernel,
    RwmParams,
    hmc_step,
    leapfrog,
    mala_step,
    rwm_step,
)
from .diagnostics import RunSummary, Trace, ess, ess_batch_means, summarize_run
from .harness import (
    ExperimentConfig,
    grid_tune,
    hop_scaling_experiment,
    hug_efficiency_experiment,
    make_kernel,
    run_chain,
    stability_experiment,
    theorem2_experiment,
)
from .hop import HopKernel, HopParams, hop_kernel_step, hop_log_density, hop_propose
from .hug import (
    HugKernel,
    HugParams,
    hug_kernel_step,
    hug_trajectory,
    reflect,
)
from .metric import LocalMetric, local_covariance
from .state import ChainState, StepOutcome
from .targets import (
    Banana2D,
    Bimodal2D,
    EmbeddedTarget,
    GaussianDiag,
    LogisticGaussian,
    PlusPrism2D,
    QuarticGaussian,
    TargetModel,
    linear_scales,
    make_target,
    standard_suite,
    unit_scales,
)
