"""Posterior targets for three simulated-data models.

* Cauchit regression: binary GLM with the heavy-tailed arctangent link.
* Rasch item-response model: question difficulties and subject abilities
  behind probit response probabilities, with the first difficulty pinned
  to zero for identifiability.
* Probit spatial regression: a latent Gaussian process on a grid with an
  exponential correlation function, whitened so the sampled field has a
  standard-normal prior, updated jointly with the two covariance
  parameters by Metropolis-within-Gibbs.

All responses are coded in {-1, +1} ("signed" coding), which collapses the
likelihood of every model into a single sum over log link evaluations.
Gradients are analytic; Hessians are derived from them and validated
against finite differences in the test-suite.  Probit tails go through
``log_ndtr`` so log Phi and the inverse Mills ratio phi/Phi stay finite far
into the tails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr, ndtr

from .exceptions import FactorizationError
from .state import ChainState, log_acceptance, metropolis_accept
from .targets import TargetModel

__all__ = [
    "CauchitData",
    "CauchitPosterior",
    "simulate_cauchit",
    "RaschData",
    "RaschPosterior",
    "simulate_rasch",
    "SpatialData",
    "SpatialProbitModel",
    "simulate_spatial",
    "gp_covariance",
    "grid_distances",
    "GibbsSampler",
    "save_dataset",
    "load_dataset",
]

_LOG_ROOT_2PI = 0.5 * np.log(2.0 * np.pi)


def _log_phi(z: np.ndarray) -> np.ndarray:
    """Standard normal log-pdf."""
    return -0.5 * z * z - _LOG_ROOT_2PI


def _mills(z: np.ndarray, log_cdf: np.ndarray | None = None) -> np.ndarray:
    """phi(z) / Phi(z), stable for very negative z.

    ``log_cdf`` is log Phi(z) where the caller has it already.
    """
    if log_cdf is None:
        log_cdf = log_ndtr(z)
    return np.exp(_log_phi(z) - log_cdf)


def _mills_derivative(z: np.ndarray) -> np.ndarray:
    """d/dz [phi/Phi] = -z m - m^2."""
    m = _mills(z)
    return -z * m - m * m


# ---------------------------------------------------------------------------
# Cauchit regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchitData:
    """Design matrix, signed responses and prior precision."""

    covariates: np.ndarray  # (n_obs, n_pred)
    responses: np.ndarray  # (n_obs,), values in {-1, +1}
    tau: float
    true_beta: np.ndarray | None = None


def cauchit_inverse_link(x):
    """Success probability 1/2 + atan(x)/pi."""
    return 0.5 + np.arctan(x) / np.pi


def simulate_cauchit(
    n_obs: int, n_pred: int, tau: float, rng: np.random.Generator
) -> CauchitData:
    """Simulate covariates N(0,1), coefficients from the prior, and responses."""
    if n_obs < 1 or n_pred < 1:
        raise ValueError("n_obs and n_pred must be >= 1")
    covariates = rng.standard_normal((n_obs, n_pred))
    beta = rng.standard_normal(n_pred) / np.sqrt(tau)
    probs = cauchit_inverse_link(covariates @ beta)
    responses = np.where(rng.random(n_obs) < probs, 1.0, -1.0)
    return CauchitData(covariates, responses, float(tau), true_beta=beta)


class CauchitPosterior(TargetModel):
    """Log posterior of the regression coefficients under the cauchit link.

    With z_i = y_i x_i' beta the likelihood term is
    sum_i log(1/2 + atan(z_i)/pi), which is finite for every finite beta.
    """

    name = "cauchit"

    def __init__(self, data: CauchitData):
        self.data = data
        self.dim = data.covariates.shape[1]
        self._yx = data.responses[:, None] * data.covariates  # (n_obs, dim)
        # the gradient's product runs faster on a C-ordered transpose
        self._yx_t = np.ascontiguousarray(self._yx.T)

    def _z(self, beta):
        return self._yx.dot(beta)

    def _log_density(self, beta):
        return self._value(beta, np.arctan(self._z(beta)))

    def _gradient(self, beta):
        z = self._z(beta)
        return self._grad(beta, z, np.arctan(z))

    def _value_and_grad(self, beta):
        z = self._z(beta)
        atan = np.arctan(z)
        return self._value(beta, atan), self._grad(beta, z, atan)

    def _value(self, beta, atan):
        lik = np.log(0.5 + atan / np.pi).sum()
        return lik - 0.5 * self.data.tau * float(beta @ beta)

    def _grad(self, beta, z, atan):
        """The gradient from z = yx beta and atan z; overwrites both."""
        # 1 / ((1 + z^2) (pi/2 + atan z)), built in place: the same rounding
        # as the plain expression, with fewer temporaries
        denom = atan
        denom += 0.5 * np.pi
        z *= z
        z += 1.0
        denom *= z
        return self._yx_t.dot(np.reciprocal(denom, out=denom)) - self.data.tau * beta

    def _hessian(self, beta):
        z = self._z(beta)
        u = (1.0 + z * z) * (0.5 * np.pi + np.arctan(z))
        du = 2.0 * z * (0.5 * np.pi + np.arctan(z)) + 1.0
        weight = -du / (u * u)
        return (self._yx.T * weight) @ self._yx - self.data.tau * np.eye(self.dim)


# ---------------------------------------------------------------------------
# Rasch model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaschData:
    """Signed response matrix (questions x subjects) and prior precision."""

    responses: np.ndarray  # (n_questions, n_subjects), values in {-1, +1}
    tau: float
    true_difficulty: np.ndarray | None = None
    true_ability: np.ndarray | None = None


def simulate_rasch(
    n_questions: int, n_subjects: int, tau: float, rng: np.random.Generator
) -> RaschData:
    """Simulate difficulties (first pinned to 0) and abilities, then responses."""
    if n_questions < 2 or n_subjects < 1:
        raise ValueError("need n_questions >= 2 and n_subjects >= 1")
    difficulty = rng.standard_normal(n_questions) / np.sqrt(tau)
    difficulty[0] = 0.0
    ability = rng.standard_normal(n_subjects) / np.sqrt(tau)
    probs = ndtr(ability[None, :] - difficulty[:, None])
    responses = np.where(rng.random(probs.shape) < probs, 1.0, -1.0)
    return RaschData(responses, float(tau), difficulty, ability)


class RaschPosterior(TargetModel):
    """Log posterior over free difficulties and abilities.

    The state vector stacks difficulties 2..M then all N abilities; the
    first difficulty is fixed at zero and never appears in the state.
    """

    name = "rasch"

    def __init__(self, data: RaschData):
        self.data = data
        self.n_questions, self.n_subjects = data.responses.shape
        self.dim = (self.n_questions - 1) + self.n_subjects

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (difficulties including the pinned first one, abilities)."""
        difficulty = np.concatenate([[0.0], x[: self.n_questions - 1]])
        ability = x[self.n_questions - 1 :]
        return difficulty, ability

    def _signed_scores(self, x):
        difficulty, ability = self.split(x)
        return self.data.responses * (ability[None, :] - difficulty[:, None])

    def _log_density(self, x):
        return self._value(x, log_ndtr(self._signed_scores(x)))

    def _gradient(self, x):
        z = self._signed_scores(x)
        return self._grad(x, z, log_ndtr(z))

    def _value_and_grad(self, x):
        z = self._signed_scores(x)
        log_cdf = log_ndtr(z)
        return self._value(x, log_cdf), self._grad(x, z, log_cdf)

    def _value(self, x, log_cdf):
        difficulty, ability = self.split(x)
        prior = -0.5 * self.data.tau * (float(difficulty @ difficulty) + float(ability @ ability))
        return float(np.sum(log_cdf)) + prior

    def _grad(self, x, z, log_cdf):
        difficulty, ability = self.split(x)
        ym = self.data.responses * _mills(z, log_cdf)  # y_ij phi/Phi per cell
        grad_difficulty = -np.sum(ym, axis=1) - self.data.tau * difficulty
        grad_ability = np.sum(ym, axis=0) - self.data.tau * ability
        return np.concatenate([grad_difficulty[1:], grad_ability])

    def _hessian(self, x):
        z = self._signed_scores(x)
        md = _mills_derivative(z)  # y^2 = 1 multiplies each cell
        n_q, n_s = self.n_questions, self.n_subjects
        h = np.zeros((self.dim, self.dim))
        tau = self.data.tau
        dd = np.sum(md, axis=1) - tau  # d^2 / d difficulty_i^2
        aa = np.sum(md, axis=0) - tau  # d^2 / d ability_j^2
        h[: n_q - 1, : n_q - 1] = np.diag(dd[1:])
        h[n_q - 1 :, n_q - 1 :] = np.diag(aa)
        cross = -md[1:, :]  # d^2 / d difficulty_i d ability_j
        h[: n_q - 1, n_q - 1 :] = cross
        h[n_q - 1 :, : n_q - 1] = cross.T
        return h


# ---------------------------------------------------------------------------
# Probit spatial regression
# ---------------------------------------------------------------------------


def grid_distances(n_rows: int, n_cols: int) -> np.ndarray:
    """Pairwise Euclidean distances between the cells of a rectangular grid.

    Cells are enumerated row-major; entry (g, g') is the distance between
    cell centres.
    """
    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    return np.sqrt(dr * dr + dc * dc)


def _checked_distances(distances) -> np.ndarray:
    """``distances`` as a float array, checked to be a square, nonnegative
    distance matrix with a zero diagonal."""
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distance matrix must be square")
    if np.any(distances < 0) or np.max(np.abs(np.diag(distances))) > 0:
        raise ValueError("distances must be nonnegative with a zero diagonal")
    return distances


def gp_covariance(
    theta, distances: np.ndarray, *, check: bool = True
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exponential-correlation GP covariance and a factor of it.

    Sigma[g, g'] = exp(rho - exp(-psi) D[g, g']) for theta = (rho, psi).
    Returns (Sigma, A, log det Sigma) with A' A = Sigma.  ``check=False``
    skips the checks of ``distances``, for a caller that made them once, as
    :class:`SpatialProbitModel` does for its grid.

    Raises:
        ValueError: when ``check`` is set and ``distances`` is not a square,
            nonnegative matrix with a zero diagonal.
        FactorizationError: when Sigma overflows or is numerically singular
            (very large ranges), which the Gibbs sweep treats as a rejected
            theta proposal.
    """
    rho, psi = float(theta[0]), float(theta[1])
    if check:
        distances = _checked_distances(distances)
    with np.errstate(over="ignore", under="ignore"):
        sigma = np.exp(rho - np.exp(-psi) * distances)
    if not np.all(np.isfinite(sigma)):
        raise FactorizationError("covariance overflowed; check theta")
    try:
        chol_lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"GP covariance is numerically singular ({exc})") from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
    return sigma, chol_lower.T, log_det


@dataclass(frozen=True)
class SpatialData:
    """Grid shape, signed responses (row-major) and prior precision."""

    n_rows: int
    n_cols: int
    responses: np.ndarray  # (n_rows * n_cols,), values in {-1, +1}
    tau: float
    true_rho: float | None = None
    true_psi: float | None = None

    @property
    def n_sites(self) -> int:
        return self.n_rows * self.n_cols


def simulate_spatial(
    n_rows: int, n_cols: int, rho: float, psi: float, tau: float, rng: np.random.Generator
) -> SpatialData:
    """Draw a latent field from the GP and threshold it through the probit link."""
    distances = grid_distances(n_rows, n_cols)
    _, a, _ = gp_covariance((rho, psi), distances)
    field = a.T @ rng.standard_normal(n_rows * n_cols)
    responses = np.where(rng.random(field.size) < ndtr(field), 1.0, -1.0)
    return SpatialData(n_rows, n_cols, responses, float(tau), rho, psi)


class SpatialConditionalTarget(TargetModel):
    """Conditional posterior of the whitened field given the GP parameters.

    l(z) = sum_g log Phi(y_g [A' z]_g) - z'z / 2, where A'A = Sigma(theta);
    theta-dependent constants are dropped.  With the likelihood switched off
    the whitened field is exactly standard normal.
    """

    name = "spatial-z"

    def __init__(self, data: SpatialData, a: np.ndarray, prior_only: bool = False):
        self.data = data
        self.a = a
        self.dim = data.n_sites
        self.prior_only = prior_only

    def _signed_field(self, z):
        return self.data.responses * self.a.T.dot(z)

    def _log_density(self, z):
        if self.prior_only:
            return -0.5 * float(z.dot(z))
        return self._value(z, log_ndtr(self._signed_field(z)))

    def _gradient(self, z):
        if self.prior_only:
            return -z
        field = self._signed_field(z)
        return self._grad(z, field, log_ndtr(field))

    def _value_and_grad(self, z):
        if self.prior_only:
            return super()._value_and_grad(z)
        field = self._signed_field(z)
        log_cdf = log_ndtr(field)
        return self._value(z, log_cdf), self._grad(z, field, log_cdf)

    def _value(self, z, log_cdf):
        prior = -0.5 * float(z.dot(z))
        return float(np.sum(log_cdf)) + prior

    def _grad(self, z, field, log_cdf):
        w = self.data.responses * _mills(field, log_cdf)
        return self.a.dot(w) - z

    def _hessian(self, z):
        if self.prior_only:
            return -np.ones(self.dim)  # the diagonal of -I
        md = _mills_derivative(self._signed_field(z))
        return (self.a * md) @ self.a.T - np.eye(self.dim)


class SpatialProbitModel:
    """Joint posterior machinery for (theta, whitened field).

    Exposes the conditional target for the field, the joint log-density used
    by the theta block, and dataset bookkeeping.  The reported dimensions are
    ``field_dim`` (grid cells) and ``total_dim`` (cells plus the two GP
    parameters).
    """

    def __init__(self, data: SpatialData, prior_only: bool = False):
        self.data = data
        self.prior_only = prior_only
        self.distances = _checked_distances(grid_distances(data.n_rows, data.n_cols))

    @property
    def field_dim(self) -> int:
        return self.data.n_sites

    @property
    def total_dim(self) -> int:
        return self.data.n_sites + 2

    def covariance(self, theta):
        return gp_covariance(theta, self.distances, check=False)

    def conditional_target(self, theta, a: np.ndarray | None = None) -> SpatialConditionalTarget:
        if a is None:
            _, a, _ = self.covariance(theta)
        return SpatialConditionalTarget(self.data, a, self.prior_only)

    def theta_log_prior(self, theta) -> float:
        """log prior of the GP parameters, N(0, I / tau), up to a constant."""
        return -0.5 * self.data.tau * float(theta[0] ** 2 + theta[1] ** 2)

    def joint_log_density(self, theta, z: np.ndarray, a: np.ndarray | None = None) -> float:
        """log posterior of (theta, z) up to a constant: the conditional
        target's log-density at the finite ``z`` plus the theta prior.

        A field state's cached ``logp`` is that conditional log-density, so
        ``state.logp + theta_log_prior(theta)`` is this value to the bit.
        """
        return self.conditional_target(theta, a)._log_density(z) + self.theta_log_prior(theta)


@dataclass
class GibbsState:
    """Sweep state: GP parameters, whitened field, and the cached factor."""

    theta: np.ndarray
    field_state: ChainState
    a: np.ndarray


class GibbsSampler:
    """Metropolis-within-Gibbs over (field | theta) and (theta | field).

    The field block applies the provided inner kernels (e.g. a hug / hop
    pair, or HMC) against the conditional target for the current theta; the
    theta block is an isotropic bivariate random-walk on the joint density,
    recomputing the covariance factor on every proposal.  Factorisation
    failures at a proposed theta reject that proposal.  The joint density at
    the current theta is the field state's cached ``logp`` plus the theta
    prior, so a sweep evaluates the field's conditional density once, at the
    proposal, and an accepted proposal keeps that value as the new field
    state's ``logp``.
    """

    def __init__(self, model: SpatialProbitModel, inner_kernels, rwm_scale: float = 0.3):
        if rwm_scale < 0:
            raise ValueError("rwm_scale must be nonnegative")
        self.model = model
        self.inner_kernels = list(inner_kernels)
        self.rwm_scale = float(rwm_scale)

    def init_state(self) -> GibbsState:
        """The state at theta = 0 and a zero field."""
        theta = np.zeros(2)
        _, a, _ = self.model.covariance(theta)
        target = self.model.conditional_target(theta, a)
        return GibbsState(theta=theta, field_state=ChainState.at(target, np.zeros(target.dim)), a=a)

    def step(self, state: GibbsState, rng: np.random.Generator) -> tuple[GibbsState, dict]:
        """One sweep; returns the new state and per-block acceptance flags."""
        target = self.model.conditional_target(state.theta, state.a)
        field_state = state.field_state
        info: dict = {}
        for kernel in self.inner_kernels:
            field_state, outcome = kernel.step(target, field_state, rng)
            info[kernel.name] = outcome.accepted

        theta = state.theta
        a = state.a
        accepted_theta = False
        if self.rwm_scale > 0.0:
            proposal = theta + self.rwm_scale * rng.standard_normal(2)
            z = field_state.position
            log_ratio = None
            try:
                _, a_prop, _ = self.model.covariance(proposal)
                logp_prop = self.model.conditional_target(proposal, a_prop)._log_density(z)
                log_ratio = (logp_prop + self.model.theta_log_prior(proposal)) - (
                    field_state.logp + self.model.theta_log_prior(theta)
                )
            except FactorizationError:
                pass
            if metropolis_accept(rng, log_acceptance(log_ratio)):
                theta, a = proposal, a_prop
                accepted_theta = True
                field_state = ChainState(position=z, logp=logp_prop)
        info["theta_rwm"] = accepted_theta
        return GibbsState(theta=theta, field_state=field_state, a=a), info


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def save_dataset(data, directory, seed: int | None = None) -> Path:
    """Write a simulated dataset as delimited text plus a JSON manifest.

    Returns the manifest path.  The manifest records the model kind, sizes,
    the prior precision, the generating seed when known, and the true
    parameter values used in simulation.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"seed": seed}

    if isinstance(data, CauchitData):
        np.savetxt(directory / "covariates.csv", data.covariates, delimiter=",", fmt="%.17g")
        np.savetxt(directory / "responses.csv", data.responses, delimiter=",", fmt="%.0f")
        manifest.update(
            model="cauchit",
            n_obs=int(data.covariates.shape[0]),
            n_pred=int(data.covariates.shape[1]),
            tau=data.tau,
            true_beta=None if data.true_beta is None else data.true_beta.tolist(),
        )
    elif isinstance(data, RaschData):
        np.savetxt(directory / "responses.csv", data.responses, delimiter=",", fmt="%.0f")
        manifest.update(
            model="rasch",
            n_questions=int(data.responses.shape[0]),
            n_subjects=int(data.responses.shape[1]),
            tau=data.tau,
            true_difficulty=None
            if data.true_difficulty is None
            else data.true_difficulty.tolist(),
            true_ability=None if data.true_ability is None else data.true_ability.tolist(),
        )
    elif isinstance(data, SpatialData):
        np.savetxt(directory / "responses.csv", data.responses, delimiter=",", fmt="%.0f")
        manifest.update(
            model="spatial",
            n_rows=data.n_rows,
            n_cols=data.n_cols,
            tau=data.tau,
            true_rho=data.true_rho,
            true_psi=data.true_psi,
        )
    else:
        raise TypeError(f"unknown dataset type {type(data).__name__}")

    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_dataset(directory):
    """Inverse of :func:`save_dataset`."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    model = manifest["model"]
    responses = np.loadtxt(directory / "responses.csv", delimiter=",")
    if model == "cauchit":
        covariates = np.loadtxt(directory / "covariates.csv", delimiter=",")
        true_beta = manifest.get("true_beta")
        return CauchitData(
            covariates,
            responses,
            manifest["tau"],
            None if true_beta is None else np.asarray(true_beta),
        )
    if model == "rasch":
        td = manifest.get("true_difficulty")
        ta = manifest.get("true_ability")
        return RaschData(
            responses,
            manifest["tau"],
            None if td is None else np.asarray(td),
            None if ta is None else np.asarray(ta),
        )
    if model == "spatial":
        return SpatialData(
            manifest["n_rows"],
            manifest["n_cols"],
            responses,
            manifest["tau"],
            manifest.get("true_rho"),
            manifest.get("true_psi"),
        )
    raise ValueError(f"unknown model kind {model!r} in manifest")
