"""Dense symmetric-matrix numerics.

Everything here operates on plain ``float64`` numpy arrays.  Matrices are
treated as symmetric: operations that are only meaningful for symmetric
input symmetrize internally, so callers may pass arrays that are symmetric
up to round-off.  Singular positive semi-definite matrices are handled via
eigenvalue clamping (pseudo-inverse semantics), because several certificate
computations must remain evaluable on the range of a singular matrix.

Target scale is dense d <= 2000; there is deliberately no sparse backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimMismatch, NonFinite, NonPositiveDiagonal, SingularMatrix

#: Relative tolerance for eigendecomposition round-trip checks.
EIG_TOL = 1e-9

#: Default tolerance for positive semi-definiteness checks.
PSD_TOL = 1e-9

#: Eigenvalues below RANK_TOL_FACTOR * max|eigenvalue| are treated as zero.
RANK_TOL_FACTOR = 1e-10


def _as_square(m: NDArray, stacked: bool = False) -> NDArray:
    """``m`` as float64, which must be square or, if ``stacked``, (..., k, k)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def check_finite(a: NDArray) -> NDArray:
    """Return ``a`` unchanged, raising :class:`NonFinite` on NaN/Inf entries."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NonFinite("array contains NaN or infinite entries")
    return a


def symmetrize(m: NDArray) -> NDArray:
    """Return the symmetric part (M + M^T) / 2 of a matrix or of each in a stack."""
    m = _as_square(m, stacked=True)
    return (m + np.swapaxes(m, -1, -2)) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (d,)
        Sorted ascending.
    eigenvectors : ndarray, shape (d, d)
        Orthonormal columns; ``eigenvectors[:, i]`` pairs with
        ``eigenvalues[i]``.

    For a stack of matrices both carry the stack's leading axes; the methods
    below take a single matrix.
    """

    eigenvalues: NDArray
    eigenvectors: NDArray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def rank_mask(self, rank_tol_factor: float = RANK_TOL_FACTOR) -> NDArray:
        """Boolean mask of eigenvalues treated as numerically nonzero."""
        scale = float(np.abs(self.eigenvalues).max(initial=0.0))
        return np.abs(self.eigenvalues) > rank_tol_factor * scale

    def function_values(self, fn, rank_tol_factor: float = RANK_TOL_FACTOR) -> NDArray:
        """fn(lambda) on the numerically nonzero eigenvalues, 0 on the clamped ones."""
        mask = self.rank_mask(rank_tol_factor)
        return np.where(mask, fn(np.where(mask, self.eigenvalues, 1.0)), 0.0)

    def apply_function(self, fn, rank_tol_factor: float = RANK_TOL_FACTOR) -> NDArray:
        """Return V diag(fn(lambda)) V^T, sending clamped eigenvalues to 0."""
        v = self.eigenvectors
        return (v * self.function_values(fn, rank_tol_factor)) @ v.T


def eig_sym(m: NDArray) -> Spectrum:
    """Eigendecompose a (nearly) symmetric matrix, or each of a stack (..., d, d).

    The input is symmetrized before factorization; eigenvalues are returned
    in ascending order.

    Raises
    ------
    NonFinite
        If any entry is NaN or infinite.
    """
    m = check_finite(_as_square(m, stacked=True))
    vals, vecs = np.linalg.eigh(symmetrize(m))
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def weighted_sqnorm(x: NDArray, m: NDArray) -> float:
    """Quadratic form x^T M x with M symmetrized internally.

    The result may be a tiny negative number (order -1e-12 * |x|^2 * |M|)
    for a PSD ``M`` due to round-off; no clamping is applied.
    """
    x = np.asarray(x, dtype=np.float64)
    m = _as_square(m)
    if x.shape != (m.shape[0],):
        raise DimMismatch(f"vector of length {x.shape} vs matrix {m.shape}")
    s = symmetrize(m)
    return float(x @ (s @ x))


def psd_check(m: NDArray, tol: float = PSD_TOL) -> bool:
    """True iff lambda_min(M) >= -tol * max(1, max|lambda(M)|)."""
    return psd_eigenvalues(eig_sym(m).eigenvalues, tol)


def psd_eigenvalues(vals: NDArray, tol: float = PSD_TOL) -> bool:
    """True iff min(vals) >= -tol * max(1, max|vals|): :func:`psd_check` on a
    matrix whose eigenvalues ``vals`` are already computed."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    return bool(vals.min(initial=0.0) >= -tol * scale)


def precondition(L: NDArray, diag: NDArray) -> NDArray:
    """Two-sided diagonal scaling D^{-1/2} L D^{-1/2}.

    Parameters
    ----------
    L : ndarray, shape (d, d)
    diag : ndarray, shape (d,)
        Diagonal of D; every entry must be strictly positive.

    Raises
    ------
    NonPositiveDiagonal
        If any diagonal entry is <= 0.
    """
    L = _as_square(L)
    diag = np.asarray(diag, dtype=np.float64)
    if diag.shape != (L.shape[0],):
        raise DimMismatch("diag length must match matrix dimension")
    if np.any(diag <= 0.0):
        raise NonPositiveDiagonal("diagonal scaling requires strictly positive entries")
    s = 1.0 / np.sqrt(diag)
    return L * np.outer(s, s)


def psd_pinv(m: NDArray, rank_tol_factor: float = RANK_TOL_FACTOR) -> NDArray:
    """Pseudo-inverse of a symmetric PSD matrix via eigenvalue clamping."""
    return eig_sym(m).apply_function(lambda v: 1.0 / v, rank_tol_factor)


def spd_inv_sqrt(m: NDArray, rank_tol_factor: float = RANK_TOL_FACTOR) -> NDArray:
    """Inverse square root of a strictly positive-definite matrix, or of each
    matrix in a stack of shape (..., k, k).

    This refuses singular input instead of silently projecting it away, as a
    pseudo-inverse square root would.

    Raises
    ------
    SingularMatrix
        If lambda_min <= rank_tol_factor * lambda_max for any matrix.
    """
    spec = eig_sym(m)
    vals = spec.eigenvalues
    lo, hi = vals[..., 0], vals[..., -1]
    if np.any(lo <= rank_tol_factor * np.maximum(hi, 0.0)) or np.any(hi <= 0.0):
        raise SingularMatrix("matrix is numerically singular; cannot form inverse square root")
    v = spec.eigenvectors
    return (v * (1.0 / np.sqrt(vals))[..., None, :]) @ np.swapaxes(v, -1, -2)

