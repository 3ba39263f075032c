"""One metric type for every covariance a kernel uses.

A local covariance is built from the Hessian: the inverse of the negative
Hessian when that is safely positive definite, a spectral regularisation
otherwise.  A fixed covariance (hug's ``precond_cov``, HMC's
``mass_matrix``, RWM's ``cov``) is the same metric held constant, built
once by :func:`fixed_metric`.

The covariance is kept in the spectral form Sigma = V diag(s) V' that one
eigendecomposition gives.  Its factor A = diag(sqrt s) V' satisfies
A' A = Sigma, which is the only property the reflection and whitening
algebra relies on, so every product the kernels need costs O(d^2) and no
further cubic step runs.

A diagonal covariance, given as the (d,) vector of its diagonal, is its own
eigendecomposition: no ``eigh``, V is the identity and is not stored, and
every product is elementwise, O(d).  A d x d matrix always goes through
``eigh``.  The log-determinant and the square roots of s are computed on
first use; a bounce off a diagonal Hessian vector builds no metric at all
(:func:`diagonal_cov_dot`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FactorizationError, NonFiniteInputError

__all__ = ["LocalMetric", "local_covariance", "diagonal_cov_dot", "fixed_metric", "check_floor"]

# eigenvalue magnitudes below this are clamped before inversion so that
# inflection points do not overflow
EIG_FLOOR = 1e-12


@dataclass
class LocalMetric:
    """A covariance Sigma = V diag(s) V' and its factor A = diag(sqrt s) V'.

    Attributes:
        eigvals: the covariance eigenvalues s, all positive.
        eigvecs: d x d orthonormal V, column i belonging to ``eigvals[i]``;
            ``None`` when V is the identity (a diagonal covariance), in
            which case every product below is elementwise.
        regularized: True when the spectral-regularisation branch was taken.
        eps: the regularisation floor the metric was built with, which keys
            the chain state's metric cache; ``None`` when not built by
            :func:`local_covariance`.
        matrix, inverse: the dense Sigma and Sigma^-1 that a fixed dense
            covariance keeps (see :func:`fixed_metric`); :meth:`cov_dot`
            uses ``matrix`` and HMC's drift ``inverse``.  ``None``
            otherwise; not arguments.

    ``log_det`` and the square roots of s are computed on first use and kept
    in plain attributes.  ``sigma`` and ``a`` build the dense matrices on
    demand; the kernels use the O(d^2) (diagonal: O(d)) products below
    instead.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray | None
    regularized: bool = False
    eps: float | None = None
    matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _log_det: float | None = field(default=None, init=False, repr=False, compare=False)
    _root_s: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _inv_root_s: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def log_det(self) -> float:
        """log determinant of Sigma, the sum of log s."""
        if self._log_det is None:
            self._log_det = float(np.sum(np.log(self.eigvals)))
        return self._log_det

    @property
    def _root(self) -> np.ndarray:
        if self._root_s is None:
            self._root_s = np.sqrt(self.eigvals)
        return self._root_s

    @property
    def _inv_root(self) -> np.ndarray:
        if self._inv_root_s is None:
            self._inv_root_s = 1.0 / self._root
        return self._inv_root_s

    @property
    def sigma(self) -> np.ndarray:
        """The dense covariance V diag(s) V'."""
        if self.eigvecs is None:
            return np.diag(self.eigvals)
        sigma = (self.eigvecs * self.eigvals) @ self.eigvecs.T
        return 0.5 * (sigma + sigma.T)

    @property
    def a(self) -> np.ndarray:
        """The dense factor A = diag(sqrt s) V', with a.T @ a == sigma."""
        if self.eigvecs is None:
            return np.diag(self._root)
        return (self.eigvecs * self._root).T

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """Map v to (A')^-1 v = (V' v) / sqrt s, where sigma is the identity."""
        if self.eigvecs is None:
            return v * self._inv_root
        return (self.eigvecs.T @ v) * self._inv_root

    def unwhiten(self, w: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`whiten`: returns A' w = V (sqrt s * w)."""
        if self.eigvecs is None:
            return self._root * w
        return self.eigvecs.dot(self._root * w)

    def quad_inv(self, v: np.ndarray) -> float:
        """Quadratic form v' sigma^-1 v."""
        w = self.whiten(v)
        return float(w.dot(w))  # the BLAS dot of w @ w, called more cheaply

    def cov_dot(self, g: np.ndarray) -> np.ndarray:
        """Sigma g = V (s * V' g)."""
        if self.eigvecs is None:
            return self.eigvals * g
        if self.matrix is not None:
            return self.matrix.dot(g)
        return self.eigvecs @ (self.eigvals * (self.eigvecs.T @ g))

    def factor_dot(self, g: np.ndarray) -> np.ndarray:
        """A g = sqrt s * V' g."""
        if self.eigvecs is None:
            return self._root * g
        return self._root * (self.eigvecs.T @ g)


def fixed_metric(cov, name: str) -> LocalMetric:
    """Validate a fixed covariance and build its metric, once.

    A (d,) vector of positive entries is a diagonal covariance and stays
    elementwise (``eigvecs`` is ``None``).  A d x d symmetric
    positive-definite matrix goes through one ``eigh``, and the metric
    keeps the matrix and its inverse (``matrix``, ``inverse``).

    Raises:
        ValueError: if ``cov`` is neither a vector nor a square matrix, or
            is a matrix not symmetric to 1e-10; the message names the
            parameter ``name``.
        NonFiniteInputError: if ``cov`` has a non-finite entry.
        FactorizationError: if ``cov`` is not positive definite; the
            message names the parameter ``name``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim not in (1, 2) or cov.shape != cov.shape[:1] * cov.ndim:
        raise ValueError(f"{name} must be a vector or a square matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    if cov.ndim == 2 and np.max(np.abs(cov - cov.T)) > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    eigvals, eigvecs = (cov, None) if cov.ndim == 1 else np.linalg.eigh(cov)
    if not eigvals.min() > 0:
        raise FactorizationError(f"{name} is not positive definite")
    metric = LocalMetric(eigvals, eigvecs)
    if eigvecs is not None:
        metric.matrix, metric.inverse = cov, np.linalg.inv(cov)
    return metric


NON_FINITE_HESSIAN = "Hessian contains non-finite entries"


def check_floor(eps: float) -> None:
    """Raise ``ValueError`` unless the regularisation floor ``eps`` is finite
    and positive."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")


def _cov_eigvals(eigvals: np.ndarray, eps: float) -> tuple[np.ndarray, bool]:
    """The covariance eigenvalues s for Hessian eigenvalues ``eigvals``, and
    whether the regularised branch was taken: the rule of
    :func:`local_covariance`."""
    if eigvals.max() < -eps:  # -H strictly positive definite with margin eps
        return -1.0 / eigvals, False  # the bits of 1 / (-eigvals), one pass fewer
    return 1.0 / np.maximum(np.abs(eigvals), EIG_FLOOR) + eps, True


def diagonal_cov_dot(diag: np.ndarray, g: np.ndarray, eps: float) -> np.ndarray:
    """Sigma g for the local covariance of a diagonal Hessian, given as the
    (d,) float vector ``diag`` of its diagonal, without building a
    :class:`LocalMetric`.

    The bits of ``local_covariance(diag, eps).cov_dot(g)``, which is
    ``s * g``.  ``eps`` is trusted to be positive.

    Raises:
        NonFiniteInputError: if ``diag`` contains non-finite entries.
    """
    if not np.isfinite(diag).all():
        raise NonFiniteInputError(NON_FINITE_HESSIAN)
    return _cov_eigvals(diag, eps)[0] * g


def local_covariance(hess: np.ndarray, eps: float = 1e-6) -> LocalMetric:
    """Local covariance derived from a log-density Hessian.

    If every eigenvalue of ``-hess`` exceeds ``eps`` the covariance is the
    exact inverse (-hess)^-1.  Otherwise each Hessian eigenvalue lambda is
    replaced by 1/max(|lambda|, floor) + eps on the same eigenbasis, which
    keeps the curvature scale per principal direction while guaranteeing
    positive definiteness.  No continuity across the branch switch is
    claimed; Metropolis corrections remain exact regardless.

    A diagonal Hessian passed as the (d,) vector of its diagonal skips
    ``eigh`` and every O(d^2) step: its eigenvalues are the diagonal and its
    eigenvectors the coordinate axes, kept in coordinate order so that
    whitened coordinates are the original ones, and the metric works
    elementwise (``eigvecs`` is ``None``).  A d x d ``hess`` goes through
    ``eigh`` even when it is diagonal.

    Args:
        hess: symmetric d x d Hessian of the log-density, or the (d,)
            diagonal of a diagonal one.
        eps: finite positive regularisation floor.

    Raises:
        FactorizationError: if a matrix ``hess`` is not square or not
            symmetric to 1e-8.
        NonFiniteInputError: if ``hess`` contains non-finite entries.
        ValueError: if ``eps`` is not finite and positive.
    """
    hess = np.asarray(hess, dtype=float)
    if hess.ndim != 1 and (hess.ndim != 2 or hess.shape[0] != hess.shape[1]):
        raise FactorizationError(f"Hessian must be square, got shape {hess.shape}")
    if not np.isfinite(hess).all():
        raise NonFiniteInputError(NON_FINITE_HESSIAN)
    check_floor(eps)

    if hess.ndim == 1:
        eigvals, eigvecs = hess, None
    else:
        asym = np.max(np.abs(hess - hess.T)) if hess.size else 0.0
        if asym > 1e-8:
            raise FactorizationError(f"Hessian is not symmetric (asymmetry {asym:.3e})")
        eigvals, eigvecs = np.linalg.eigh(0.5 * (hess + hess.T))

    sigma_eigs, regularized = _cov_eigvals(eigvals, eps)
    return LocalMetric(eigvals=sigma_eigs, eigvecs=eigvecs, regularized=regularized, eps=eps)
