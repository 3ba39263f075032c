"""Target distributions: the sampling interface and the toy test suite.

Every target exposes an unnormalised log-density together with its analytic
gradient and (where available) Hessian, in two tiers: public methods that
validate their input, and trusted private ones that the kernels call on
states already known to be finite (see :class:`TargetModel`).
Normalisation constants that do not depend on the state are dropped
throughout; each class documents which constant was dropped.  Acceptance
ratios only ever use differences of log-densities, so the convention is
harmless.

The module also provides the ``U`` (unit) and ``L`` (linear) scale presets,
a name-based registry used by the experiment harness, and the standard
25-dimensional comparison suite of eleven targets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    NoExactSamplerError,
    NoHessianError,
    NonFiniteInputError,
    config_integer,
    config_number,
)

__all__ = [
    "TargetModel",
    "GaussianDiag",
    "LogisticGaussian",
    "QuarticGaussian",
    "Banana2D",
    "Bimodal2D",
    "PlusPrism2D",
    "EmbeddedTarget",
    "unit_scales",
    "linear_scales",
    "make_target",
    "standard_suite",
]


def unit_scales(dim: int) -> np.ndarray:
    """Unit preset: every component has scale 1."""
    return np.ones(dim)


def linear_scales(dim: int) -> np.ndarray:
    """Linear preset: component i (0-based) has scale d - i, i.e. d down to 1."""
    return np.arange(dim, 0, -1, dtype=float)


def _resolve_scales(scales, dim: int | None) -> np.ndarray:
    """Broadcast a scalar scale or validate a vector of scales."""
    if np.isscalar(scales):
        if dim is None:
            raise ValueError("dim is required when scales is a scalar")
        out = np.full(dim, float(scales))
    else:
        out = np.asarray(scales, dtype=float).copy()
        if out.ndim != 1:
            raise ValueError("scales must be a scalar or a 1-D array")
        if dim is not None and out.size != dim:
            raise ValueError(f"scales has length {out.size}, expected {dim}")
    if not np.all(np.isfinite(out)) or np.any(out <= 0):
        raise ValueError("scales must be positive and finite")
    return out


def _log_2cosh(u: np.ndarray) -> np.ndarray:
    """log(2 cosh(u)) evaluated without overflow for large |u|."""
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au))


def _sech2(u: np.ndarray) -> np.ndarray:
    """sech(u)^2 evaluated without overflow for large |u|."""
    e = np.exp(-np.abs(u))
    s = 2.0 * e / (1.0 + e * e)
    return s * s


class TargetModel(ABC):
    """Interface for an unnormalised target distribution.

    The evaluation methods come in two tiers.

    * Public ``log_density``, ``gradient`` and ``hessian`` accept any array
      of length ``dim``, raise :class:`~hughop.exceptions.NonFiniteInputError`
      on a non-finite entry, and return a float, a (d,) gradient and a dense
      d x d Hessian.
    * Private ``_log_density``, ``_gradient``, ``_value_and_grad``,
      ``_hessian`` and ``_grad_and_hessian`` trust their input to be a
      finite (d,) float array and do no checking.  The kernels call them on
      states that are finite by construction: the start was validated by
      ``ChainState.at`` and every accepted proposal was checked.  ``_hessian`` may return the (d,)
      vector of a diagonal Hessian instead of the matrix;
      :func:`~hughop.metric.local_covariance` accepts both.

    A subclass implements ``_log_density`` and ``_gradient``, and
    ``_hessian`` where available.  ``_value_and_grad`` and
    ``_grad_and_hessian`` each return two values and by default make the two
    calls; a target whose two evaluations share work overrides the pair's
    method, and then so must any subclass that overrides one of the two.

    Attributes:
        dim: Dimension of the state space.
        name: Short identifier used in configs and reports.
    """

    dim: int
    name: str

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{self.name}: expected vector of length {self.dim}, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteInputError(f"{self.name}: input contains non-finite entries")
        return x

    def log_density(self, x) -> float:
        """Unnormalised log-density at ``x``."""
        return float(self._log_density(self._validate(x)))

    def gradient(self, x) -> np.ndarray:
        """Analytic gradient of the log-density at ``x``."""
        return self._gradient(self._validate(x))

    def hessian(self, x) -> np.ndarray:
        """Analytic Hessian of the log-density at ``x``, a d x d matrix."""
        hess = self._hessian(self._validate(x))
        return np.diag(hess) if hess.ndim == 1 else hess

    @property
    def has_exact_sampler(self) -> bool:
        return type(self).sample_exact is not TargetModel.sample_exact

    def sample_exact(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. samples, shape (n, dim)."""
        raise NoExactSamplerError(f"{self.name}: exact sampling not supported")

    @abstractmethod
    def _log_density(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def _gradient(self, x: np.ndarray) -> np.ndarray: ...

    def _value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(log-density, gradient) at ``x``, the values the two methods give."""
        return self._log_density(x), self._gradient(x)

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        raise NoHessianError(f"{self.name}: Hessian not available")

    def _grad_and_hessian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Hessian) at ``x``, the bits the two methods give, for
        a Hessian hug bounce.  Raises :class:`NoHessianError` as
        ``_hessian`` does."""
        return self._gradient(x), self._hessian(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, dim={self.dim})"


class _ScaledProductTarget(TargetModel):
    """Base for product-form targets parameterised by per-component scales."""

    def __init__(self, scales, dim: int | None = None):
        self.scales = _resolve_scales(scales, dim)
        self.dim = self.scales.size


class GaussianDiag(_ScaledProductTarget):
    """Centred Gaussian with diagonal covariance diag(scales^2).

    Dropped constant: -sum(log scales) - d/2 log(2 pi).
    """

    name = "gauss"

    def __init__(self, scales=1.0, dim: int | None = None):
        super().__init__(scales, dim)
        self._inv_var = 1.0 / self.scales**2

    def _log_density(self, x):
        return -0.5 * (x * x * self._inv_var).sum()

    def _gradient(self, x):
        return -x * self._inv_var

    def _hessian(self, x):
        return -self._inv_var

    def sample_exact(self, rng, n):
        return rng.standard_normal((n, self.dim)) * self.scales


class LogisticGaussian(_ScaledProductTarget):
    """Product of a centred logistic density and a regularising Gaussian.

    Component i multiplies a logistic density with scale ``scales[i]`` by a
    N(0, (a * scales[i])^2) density.  The log-cosh term is evaluated through
    a large-|u| branch so that inputs with |x/scale| far beyond 700 neither
    overflow nor lose the quadratic tail.

    Dropped constant: -sum(log scales) plus the Gaussian normaliser.
    """

    name = "lg"

    def __init__(self, a: float, scales=1.0, dim: int | None = None):
        if a <= 0:
            raise ValueError("a must be positive")
        super().__init__(scales, dim)
        self.a = float(a)
        self._two_s = 2.0 * self.scales
        self._a_s = self.a * self.scales
        self._a_s_sq = self._a_s**2
        # negated divisors: a / (-b) has the bits of -a / b, one pass fewer
        self._neg_scales = -self.scales
        self._neg_two_s_sq = -(2.0 * self.scales**2)
        self._inv_a_s_sq = 1.0 / self._a_s_sq

    def _log_density(self, x):
        return self._value_from_u(x, x / self._two_s)

    def _gradient(self, x):
        return self._gradient_from_u(x, x / self._two_s)

    def _value_and_grad(self, x):
        u = x / self._two_s
        return self._value_from_u(x, u), self._gradient_from_u(x, u)

    def _value_from_u(self, x, u):
        quad = x / self._a_s
        return (-2.0 * _log_2cosh(u) - 0.5 * quad * quad).sum()

    def _gradient_from_u(self, x, u):
        return np.tanh(u) / self._neg_scales - x / self._a_s_sq

    def _hessian(self, x):
        return self._hessian_from_u(x / self._two_s)

    def _grad_and_hessian(self, x):
        u = x / self._two_s
        return self._gradient_from_u(x, u), self._hessian_from_u(u)

    def _hessian_from_u(self, u):
        return _sech2(u) / self._neg_two_s_sq - self._inv_a_s_sq


class QuarticGaussian(_ScaledProductTarget):
    """Product of a quartic density and a weakly regularising Gaussian.

    Component i has log-density -(x/s)^4/2 - (x/(a s))^2/2 with s = scales[i].
    Tails are much lighter than Gaussian; the gradient grows cubically.
    """

    name = "qg"

    def __init__(self, a: float = 3.0, scales=1.0, dim: int | None = None):
        if a <= 0:
            raise ValueError("a must be positive")
        super().__init__(scales, dim)
        self.a = float(a)
        self._a_s = self.a * self.scales
        self._a_s_sq = self._a_s**2
        self._inv_a_s_sq = 1.0 / self._a_s_sq
        self._s4 = self.scales**4

    def _log_density(self, x):
        r = x / self.scales
        q = x / self._a_s
        return np.sum(-0.5 * r**4 - 0.5 * q * q)

    def _gradient(self, x):
        return -2.0 * x**3 / self._s4 - x / self._a_s_sq

    def _hessian(self, x):
        return -6.0 * x * x / self._s4 - self._inv_a_s_sq


class Banana2D(TargetModel):
    """Curved two-dimensional target built from a twisted Gaussian.

    The first coordinate is N(0, a^2); conditional on it, the second is
    N(r (x1^2 - a^2), s^2) with s = c sqrt(1 - b^2) and r = b c sqrt(2)/(2 a^2).
    The marginal variance of the second coordinate is c^2 and b in (0, 1)
    controls how bent the ridge is.

    Dropped constant: the joint Gaussian normaliser.
    """

    name = "banana"

    def __init__(self, a: float, c: float, b: float = np.sqrt(2.0) / 2.0):
        if a <= 0 or c <= 0:
            raise ValueError("a and c must be positive")
        if not 0.0 < b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        self.dim = 2
        self.a = float(a)
        self.c = float(c)
        self.b = float(b)
        self.s = c * np.sqrt(1.0 - b * b)
        self.r = b * c * np.sqrt(2.0) / (2.0 * a * a)

    def _log_density(self, x):
        w = x[1] - self.r * (x[0] ** 2 - self.a**2)
        return -0.5 * (x[0] / self.a) ** 2 - 0.5 * (w / self.s) ** 2

    def _gradient(self, x):
        w = x[1] - self.r * (x[0] ** 2 - self.a**2)
        s2 = self.s**2
        return np.array(
            [-x[0] / self.a**2 + 2.0 * self.r * x[0] * w / s2, -w / s2]
        )

    def _hessian(self, x):
        w = x[1] - self.r * (x[0] ** 2 - self.a**2)
        s2 = self.s**2
        h11 = -1.0 / self.a**2 + (2.0 * self.r / s2) * (w - 2.0 * self.r * x[0] ** 2)
        h12 = 2.0 * self.r * x[0] / s2
        return np.array([[h11, h12], [h12, -1.0 / s2]])

    def sample_exact(self, rng, n):
        x1 = self.a * rng.standard_normal(n)
        x2 = self.r * (x1**2 - self.a**2) + self.s * rng.standard_normal(n)
        return np.column_stack([x1, x2])


class Bimodal2D(TargetModel):
    """Equal mixture of two bivariate Gaussians at +/- mu.

    mu = (a, b) * sqrt(1 - 1/sep^2) and each component has covariance
    diag((a/sep)^2, (b/sep)^2), so the marginal scales stay a and b while
    ``sep`` >= 1 pushes the modes apart.  The mixture is evaluated in the
    centred cosh form, which is symmetric in x -> -x by construction.

    Dropped constant: the component normaliser, log(1/2), and the common
    factor exp(-mu' Sigma^-1 mu / 2).
    """

    name = "bimodal"

    def __init__(self, a: float, b: float, separation: float = 3.0):
        if a <= 0 or b <= 0:
            raise ValueError("a and b must be positive")
        if separation < 1.0:
            raise ValueError("separation must be >= 1")
        self.dim = 2
        self.a = float(a)
        self.b = float(b)
        self.separation = float(separation)
        shift = np.sqrt(1.0 - 1.0 / separation**2)
        self.mu = np.array([a, b]) * shift
        self.comp_scales = np.array([a, b]) / separation
        self._prec = 1.0 / self.comp_scales**2
        self._m = self._prec * self.mu  # Sigma^-1 mu

    def _log_density(self, x):
        t = x @ self._m
        return -0.5 * np.sum(x * x * self._prec) + _log_2cosh(t)

    def _gradient(self, x):
        t = x @ self._m
        return -x * self._prec + np.tanh(t) * self._m

    def _hessian(self, x):
        t = x @ self._m
        return -np.diag(self._prec) + _sech2(t) * np.outer(self._m, self._m)

    def sample_exact(self, rng, n):
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        z = rng.standard_normal((n, 2)) * self.comp_scales
        return signs[:, None] * self.mu + z


class PlusPrism2D(TargetModel):
    """Equal mixture of two centred Gaussians whose mass forms a "+" shape.

    Component covariances are diag(2 a^2 - 1, 1) and diag(1, b^2 - 1),
    exactly as displayed in their defining form; both must be positive
    definite, so 2 a^2 > 1 and b^2 > 1 are required.  Note the resulting
    marginal variances are a^2 and b^2/2 + 1/2 even though a and b are the
    nominal per-axis scale parameters.

    Dropped constant: log(1/2) - log(2 pi).
    """

    name = "plusprism"

    def __init__(self, a: float, b: float):
        if 2.0 * a * a <= 1.0:
            raise ValueError("need 2*a^2 > 1 for a positive-definite first component")
        if b * b <= 1.0:
            raise ValueError("need b^2 > 1 for a positive-definite second component")
        self.dim = 2
        self.a = float(a)
        self.b = float(b)
        self.comp_vars = np.array([[2.0 * a * a - 1.0, 1.0], [1.0, b * b - 1.0]])
        self._prec = 1.0 / self.comp_vars
        self._logdet = np.sum(np.log(self.comp_vars), axis=1)

    def _component_logs(self, x):
        # log of each mixture component up to the common constant
        return -0.5 * (self._prec @ (x * x)) - 0.5 * self._logdet

    def _log_density(self, x):
        f = self._component_logs(x)
        m = np.max(f)
        return m + np.log(np.exp(f[0] - m) + np.exp(f[1] - m))

    def _softmax_weights(self, x):
        f = self._component_logs(x)
        w = np.exp(f - np.max(f))
        return w / np.sum(w)

    def _gradient(self, x):
        w = self._softmax_weights(x)
        return -(w @ self._prec) * x

    def _hessian(self, x):
        w = self._softmax_weights(x)
        grads = -self._prec * x  # per-component gradients, rows
        g = w @ grads
        h = np.zeros((2, 2))
        for k in range(2):
            h += w[k] * (-np.diag(self._prec[k]) + np.outer(grads[k], grads[k]))
        return h - np.outer(g, g)

    def sample_exact(self, rng, n):
        comp = (rng.random(n) < 0.5).astype(int)
        z = rng.standard_normal((n, 2))
        return z * np.sqrt(self.comp_vars[comp])


class EmbeddedTarget(TargetModel):
    """A 2-D head target embedded into d dimensions with a Gaussian tail.

    Coordinates 1-2 follow ``head``; coordinates 3..d are independent centred
    Gaussians with scales ``tail_scales``.  Log-density, gradient and Hessian
    all split exactly into the two blocks.
    """

    def __init__(self, head: TargetModel, tail_scales):
        if head.dim != 2:
            raise ValueError("head must be two-dimensional")
        self.head = head
        self.tail = GaussianDiag(scales=np.asarray(tail_scales, dtype=float))
        self.dim = 2 + self.tail.dim
        self.name = f"{head.name}-embedded"

    def _log_density(self, x):
        return self.head._log_density(x[:2]) + self.tail._log_density(x[2:])

    def _gradient(self, x):
        return np.concatenate(
            [self.head._gradient(x[:2]), self.tail._gradient(x[2:])]
        )

    def _hessian(self, x):
        h = np.zeros((self.dim, self.dim))
        h[:2, :2] = self.head._hessian(x[:2])
        np.fill_diagonal(h[2:, 2:], self.tail._hessian(x[2:]))
        return h

    @property
    def has_exact_sampler(self) -> bool:
        return self.head.has_exact_sampler

    def sample_exact(self, rng, n):
        head = self.head.sample_exact(rng, n)
        tail = self.tail.sample_exact(rng, n)
        return np.hstack([head, tail])


_PRESETS = {"U": unit_scales, "L": linear_scales}


def _scales_from_spec(spec, dim: int) -> np.ndarray:
    scales = spec.get("scales", "U")
    if isinstance(scales, str):
        try:
            return _PRESETS[scales.upper()](dim)
        except KeyError:
            raise ValueError(f"unknown scales preset {scales!r}; use 'U', 'L' or a list")
    return _resolve_scales(scales, dim)


def make_target(spec: dict) -> TargetModel:
    """Build a target from a config mapping.

    The mapping must carry the target name under ``"target"`` plus its
    parameters, e.g. ``{"target": "lg", "a": 5, "scales": "L", "dim": 25}``.
    The 2-D shapes (banana, bimodal, plusprism) accept ``dim > 2``, in which
    case they are embedded with a Gaussian tail; their head parameters are
    taken from the first two entries of the scale vector.  A ``dim`` that is
    not a positive integer, or an ``a``, ``b`` or ``separation`` that is not
    a number, raises :class:`~hughop.exceptions.ConfigError` naming it
    (``target.dim``); other bad specs raise ``ValueError``.
    """
    spec = dict(spec)
    try:
        name = str(spec.pop("target")).lower()
    except KeyError:
        raise ValueError("target spec needs a 'target' name entry")
    if "dim" in spec:
        dim = config_integer(spec.pop("dim"), "target.dim")
        if dim < 1:
            raise ConfigError("target.dim", f"must be a positive integer, got {dim}")
    elif not isinstance(spec.get("scales", "U"), str):
        dim = len(spec["scales"])
    else:
        dim = 2
    scales = _scales_from_spec(spec, dim)
    spec.pop("scales", None)

    if name in ("gauss", "gaussian"):
        built = GaussianDiag(scales=scales)
    elif name == "lg":
        built = LogisticGaussian(a=config_number(spec.pop("a", 5.0), "target.a"), scales=scales)
    elif name == "qg":
        built = QuarticGaussian(a=config_number(spec.pop("a", 3.0), "target.a"), scales=scales)
    elif name in ("banana", "bimodal", "plusprism"):
        if dim < 2:
            raise ValueError(f"{name} needs dim >= 2")
        if name == "banana":
            b = config_number(spec.pop("b", np.sqrt(2.0) / 2.0), "target.b")
            head = Banana2D(a=scales[0], c=scales[1], b=b)
        elif name == "bimodal":
            separation = config_number(spec.pop("separation", 3.0), "target.separation")
            head = Bimodal2D(a=scales[0], b=scales[1], separation=separation)
        else:
            head = PlusPrism2D(a=scales[0], b=scales[1])
        built = head if dim == 2 else EmbeddedTarget(head, scales[2:])
    else:
        raise ValueError(f"unknown target name {name!r}")

    if spec:
        raise ValueError(f"unknown parameters for target {name!r}: {sorted(spec)}")
    return built


def standard_suite(dim: int = 25) -> dict[str, TargetModel]:
    """The eleven-target comparison suite in ``dim`` dimensions.

    Six shapes under unit (U) and linear (L) scalings; the unit-scaled
    plus-prism is omitted because it coincides with the standard Gaussian
    (and its displayed second component degenerates at b = 1).
    """
    suite: dict[str, TargetModel] = {}
    for preset in ("U", "L"):
        for shape in ("gauss", "lg", "qg", "banana", "bimodal", "plusprism"):
            if shape == "plusprism" and preset == "U":
                continue
            spec = {"target": shape, "dim": dim, "scales": preset}
            if shape == "lg":
                spec["a"] = 5.0
            target = make_target(spec)
            suite[f"{shape}-{preset}"] = target
    return suite
