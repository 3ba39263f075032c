"""Position-dependent covariance built from the local Hessian.

When the negative Hessian is safely positive definite the local covariance
is its inverse; otherwise curvature magnitudes are kept through a spectral
regularisation so the result is always usable as a proposal covariance.

The covariance is kept in the spectral form Sigma = V diag(s) V' that the
one eigendecomposition of the Hessian already gives.  Its factor
A = diag(sqrt s) V' satisfies A' A = Sigma, which is the only property the
reflection and whitening algebra relies on, so every product the kernels
need (whitening, Sigma g, A g) costs O(d^2) and no further cubic step runs.

A diagonal Hessian, given either as the (d,) vector of its diagonal (as
the product-form targets return it) or as a matrix whose off-diagonal
entries are all exactly zero, is its own eigendecomposition: it needs no
``eigh``, V is the identity and is not stored, and every product is
elementwise, O(d).  The log-determinant and the square roots of s are
computed on first use, since a hug bounce needs only Sigma g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import FactorizationError, NonFiniteInputError

__all__ = ["LocalMetric", "local_covariance", "checked_factor"]

# eigenvalue magnitudes below this are clamped before inversion so that
# inflection points do not overflow
EIG_FLOOR = 1e-12


@dataclass
class LocalMetric:
    """A local covariance Sigma = V diag(s) V' and its factor A = diag(sqrt s) V'.

    Attributes:
        eigvals: the covariance eigenvalues s, all positive.
        eigvecs: d x d orthonormal V, column i belonging to ``eigvals[i]``;
            ``None`` when V is the identity (a diagonal Hessian), in which
            case every product below is elementwise.
        regularized: True when the spectral-regularisation branch was taken.
        log_det_order: for a diagonal Hessian, the Hessian diagonal, whose
            ascending order the log-determinant is summed in (the order
            ``eigh`` would have listed the eigenvalues in); ``None`` when
            ``eigvals`` are already in that order.

    ``log_det`` and the square roots of s are computed on first use.
    ``sigma`` and ``a`` build the dense matrices on demand; the kernels use
    the O(d^2) (diagonal: O(d)) products below instead.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray | None
    regularized: bool = False
    log_det_order: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def log_det(self) -> float:
        """log determinant of Sigma, the sum of log s."""
        log_s = np.log(self.eigvals)
        if self.log_det_order is not None:
            log_s = log_s[np.argsort(self.log_det_order)]
        return float(np.sum(log_s))

    @cached_property
    def _root(self) -> np.ndarray:
        return np.sqrt(self.eigvals)

    @cached_property
    def _inv_root(self) -> np.ndarray:
        return 1.0 / self._root

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
        return self.eigvecs @ (self._root * w)

    def quad_inv(self, v: np.ndarray) -> float:
        """Quadratic form v' sigma^-1 v."""
        w = self.whiten(v)
        return float(w @ w)

    def cov_dot(self, g: np.ndarray) -> np.ndarray:
        """Sigma g = V (s * V' g)."""
        if self.eigvecs is None:
            return self.eigvals * g
        return self.eigvecs @ (self.eigvals * (self.eigvecs.T @ g))

    def factor_dot(self, g: np.ndarray) -> np.ndarray:
        """A g = sqrt s * V' g."""
        if self.eigvecs is None:
            return self._root * g
        return self._root * (self.eigvecs.T @ g)


def checked_factor(cov, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a fixed covariance and return it as a float array with its factor.

    The factor A is the transpose of the lower Cholesky factor, so it is
    upper triangular and A.T @ A == cov.

    Raises:
        ValueError: if ``cov`` is not a square matrix or not symmetric to
            1e-10; the message names the parameter ``name``.
        NonFiniteInputError: if ``cov`` has a non-finite entry, which a
            Cholesky factorisation would carry into the factor.
        FactorizationError: if ``cov`` is not positive definite; the
            message names the parameter ``name``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    if np.max(np.abs(cov - cov.T)) > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    try:
        return cov, np.linalg.cholesky(cov).T
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{name} is not positive definite") from exc


def local_covariance(hess: np.ndarray, eps: float = 1e-6) -> LocalMetric:
    """Local covariance derived from a log-density Hessian.

    If every eigenvalue of ``-hess`` exceeds ``eps`` the covariance is the
    exact inverse (-hess)^-1.  Otherwise each Hessian eigenvalue lambda is
    replaced by 1/max(|lambda|, floor) + eps on the same eigenbasis, which
    keeps the curvature scale per principal direction while guaranteeing
    positive definiteness.  No continuity across the branch switch is
    claimed; Metropolis corrections remain exact regardless.

    A diagonal Hessian skips ``eigh``: its eigenvalues are the diagonal and
    its eigenvectors the coordinate axes, kept in coordinate order so that
    whitened coordinates are the original ones, and the metric works
    elementwise (``eigvecs`` is ``None``).  It may be passed as the (d,)
    vector of its diagonal, which skips every O(d^2) step, or as a matrix
    whose off-diagonal entries are all exactly zero.  The log-determinant,
    computed on first use, is summed in ascending Hessian-eigenvalue order,
    as it is for the ``eigh`` result.

    Args:
        hess: symmetric d x d Hessian of the log-density, or the (d,)
            diagonal of a diagonal one.
        eps: positive regularisation floor.

    Raises:
        FactorizationError: if a matrix ``hess`` is not square or not
            symmetric to 1e-8.
        NonFiniteInputError: if ``hess`` contains non-finite entries.
    """
    hess = np.asarray(hess, dtype=float)
    if hess.ndim == 1:
        diag, diagonal = hess, True
    elif hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
        raise FactorizationError(f"Hessian must be square, got shape {hess.shape}")
    else:
        diag = hess.diagonal()
        # count_nonzero counts NaN as nonzero, so a Hessian that passes this
        # test has exactly-zero off-diagonal entries and only its diagonal
        # can be non-finite; it is also symmetric
        diagonal = np.count_nonzero(hess) == np.count_nonzero(diag)
    if not np.isfinite(diag if diagonal else hess).all():
        raise NonFiniteInputError("Hessian contains non-finite entries")
    if eps <= 0:
        raise ValueError("eps must be positive")

    if diagonal:
        eigvals, eigvecs = diag, None
    else:
        asym = np.max(np.abs(hess - hess.T)) if hess.size else 0.0
        if asym > 1e-8:
            raise FactorizationError(f"Hessian is not symmetric (asymmetry {asym:.3e})")
        eigvals, eigvecs = np.linalg.eigh(0.5 * (hess + hess.T))

    if eigvals.max() < -eps:  # -H strictly positive definite with margin eps
        sigma_eigs = 1.0 / (-eigvals)
        regularized = False
    else:
        sigma_eigs = 1.0 / np.maximum(np.abs(eigvals), EIG_FLOOR) + eps
        regularized = True

    return LocalMetric(
        eigvals=sigma_eigs,
        eigvecs=eigvecs,
        regularized=regularized,
        # a copy, so that the caller may reuse its array
        log_det_order=diag.copy() if diagonal else None,
    )
