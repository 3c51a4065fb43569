"""Heterogeneous and homogeneous quadratic ensembles.

A problem is a collection of client losses

    f_i(x) = 1/2 x^T L_i x - x^T b_i,      f(x) = (1/n) sum_i f_i(x),

with L_i symmetric.  The mean matrix ``L_bar`` and mean linear term
``b_bar`` are cached, so the full gradient is ``L_bar @ x - b_bar``.

Randomness contract
-------------------
All generators draw from ``numpy.random.Generator`` (PCG64) seeded through
``numpy.random.SeedSequence``.  Client ``i`` of a generated ensemble uses the
substream ``SeedSequence(seed, spawn_key=(i,))``.  Ensembles are bitwise
reproducible at a fixed BLAS thread count only: ``B.T @ B`` rounds with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .errors import (
    DegenerateEnsemble,
    DimMismatch,
    NonFinite,
    NonPositiveDiagonal,
    NotHomogeneous,
    SingularMatrix,
)

#: Symmetry validation tolerance used by the JSON loader.
SYMMETRY_TOL = 1e-12

#: lambda_min(L_bar) <= DEGENERACY_TOL * lambda_max(L_bar) rejects an ensemble.
DEGENERACY_TOL = 1e-10


def client_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of a 64-bit ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True)
class QuadraticProblem:
    """Immutable ensemble {L_i, b_i} with cached means.

    Arrays are stored read-only; the instance can be shared freely across
    threads.  Use :meth:`from_arrays` rather than the raw constructor so the
    inputs are validated and symmetrized.
    """

    L: NDArray  # (n, d, d)
    b: NDArray  # (n, d)
    seed: int | None = None
    L_bar: NDArray = field(init=False, repr=False)
    b_bar: NDArray = field(init=False, repr=False)
    diag: NDArray = field(init=False, repr=False)  # (n, d) diagonals of L_i

    def __post_init__(self) -> None:
        L = np.asarray(self.L, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if L.ndim != 3 or L.shape[1] != L.shape[2]:
            raise DimMismatch(f"L must have shape (n, d, d), got {L.shape}")
        if b.shape != L.shape[:2]:
            raise DimMismatch(f"b must have shape (n, d) = {L.shape[:2]}, got {b.shape}")
        for arr in (L, b):
            arr.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "b", b)
        L_bar = L.mean(axis=0)
        b_bar = b.mean(axis=0)
        diag = np.ascontiguousarray(np.diagonal(L, axis1=1, axis2=2))
        for arr in (L_bar, b_bar, diag):
            arr.setflags(write=False)
        object.__setattr__(self, "L_bar", L_bar)
        object.__setattr__(self, "b_bar", b_bar)
        object.__setattr__(self, "diag", diag)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        L_list,
        b_list,
        seed: int | None = None,
        symmetry_tol: float | None = None,
    ) -> "QuadraticProblem":
        """Build a problem from per-client matrices and linear terms.

        Matrices are symmetrized.  If ``symmetry_tol`` is given, inputs whose
        asymmetry exceeds ``symmetry_tol * max(1, |L|_max)`` are rejected.

        Raises
        ------
        NonFinite
            If any entry of a matrix or linear term is NaN or infinite.
        """
        L = np.array(L_list, dtype=np.float64)
        if L.ndim == 2:
            L = L[None, :, :]
        b = np.array(b_list, dtype=np.float64)
        if b.ndim == 1:
            b = b[None, :]
        if not (np.isfinite(L).all() and np.isfinite(b).all()):
            raise NonFinite("problem matrices and linear terms must be finite (found NaN or Inf)")
        if symmetry_tol is not None:
            for i, Li in enumerate(L):
                scale = max(1.0, float(np.abs(Li).max(initial=0.0)))
                if np.abs(Li - Li.T).max(initial=0.0) > symmetry_tol * scale:
                    raise DimMismatch(f"client {i} matrix is not symmetric within {symmetry_tol}")
        L = (L + np.transpose(L, (0, 2, 1))) / 2.0
        return cls(L=L, b=b, seed=seed)

    # -- basic shape ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def d(self) -> int:
        return self.L.shape[1]

    @property
    def interpolation(self) -> bool:
        """True iff every linear term is exactly zero."""
        return not self.b.any()

    @property
    def homogeneous(self) -> bool:
        """True iff all clients share bitwise-identical (L_i, b_i)."""
        return bool((self.L == self.L[0]).all() and (self.b == self.b[0]).all())

    @cached_property
    def positive_diagonal(self) -> bool:
        """True iff every [L_i]_jj > 0; computed on first use, then cached."""
        return bool((self.diag > 0.0).all())

    # -- evaluation -------------------------------------------------------

    def grad(self, x: NDArray) -> NDArray:
        """Full gradient L_bar x - b_bar."""
        x = self._check_vec(x)
        return self.L_bar @ x - self.b_bar

    def f(self, x: NDArray) -> float:
        """Average loss 1/2 x^T L_bar x - x^T b_bar."""
        x = self._check_vec(x)
        return 0.5 * float(x @ (self.L_bar @ x)) - float(x @ self.b_bar)

    def f_client(self, i: int, x: NDArray) -> float:
        """Loss of client ``i``."""
        x = self._check_vec(x)
        return 0.5 * float(x @ (self.L[i] @ x)) - float(x @ self.b[i])

    def grad_client(self, i: int, x: NDArray) -> NDArray:
        x = self._check_vec(x)
        return self.L[i] @ x - self.b[i]

    def solution(self, rank_tol_factor: float = linalg.RANK_TOL_FACTOR) -> NDArray:
        """Minimizer L_bar^{-1} b_bar.

        Raises
        ------
        SingularMatrix
            If lambda_min(L_bar) is below the rank tolerance.
        """
        spec = linalg.eig_sym(self.L_bar)
        vmax = float(spec.eigenvalues.max(initial=0.0))
        if vmax <= 0.0 or spec.eigenvalues.min() <= rank_tol_factor * vmax:
            raise SingularMatrix("mean matrix is numerically singular")
        v = spec.eigenvectors
        return (v * (1.0 / spec.eigenvalues)) @ (v.T @ self.b_bar)

    def _check_vec(self, x: NDArray) -> NDArray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise DimMismatch(f"expected vector of length {self.d}, got shape {x.shape}")
        return x

    # -- transforms -------------------------------------------------------

    def as_interpolation(self) -> "QuadraticProblem":
        """Copy with every linear term set to zero."""
        return QuadraticProblem(L=self.L, b=np.zeros_like(self.b), seed=self.seed)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """JSON document: per-client matrices row-major flattened."""
        return {
            "n": self.n,
            "d": self.d,
            "L": [Li.reshape(-1).tolist() for Li in self.L],
            "b": [bi.tolist() for bi in self.b],
            "seed": self.seed,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc: dict) -> "QuadraticProblem":
        n, d = int(doc["n"]), int(doc["d"])
        L = np.array([np.asarray(row, dtype=np.float64).reshape(d, d) for row in doc["L"]])
        b = np.array(doc["b"], dtype=np.float64)
        if L.shape != (n, d, d) or b.shape != (n, d):
            raise DimMismatch("problem file shapes disagree with declared (n, d)")
        return cls.from_arrays(L, b, seed=doc.get("seed"), symmetry_tol=SYMMETRY_TOL)

    @classmethod
    def load(cls, path) -> "QuadraticProblem":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class ProblemTransform:
    """Change of variables x_tilde = D^{1/2} x produced by preconditioning.

    ``kind`` is "none" for the identity transform, otherwise
    "homogeneous_diag_precondition".
    """

    kind: str
    diag: NDArray  # (d,) entries of D

    def forward(self, x: NDArray) -> NDArray:
        """Map original variable to the transformed one."""
        return np.sqrt(self.diag) * np.asarray(x, dtype=np.float64)

    def inverse(self, x_tilde: NDArray) -> NDArray:
        """Map transformed variable back to the original."""
        return np.asarray(x_tilde, dtype=np.float64) / np.sqrt(self.diag)


def ensure_nondegenerate(p: QuadraticProblem, rel_tol: float = DEGENERACY_TOL) -> None:
    """Raise :class:`DegenerateEnsemble` if lambda_min(L_bar) <= rel_tol * lambda_max."""
    vals = np.linalg.eigvalsh(linalg.symmetrize(p.L_bar))
    if vals[-1] <= 0.0 or vals[0] <= rel_tol * vals[-1]:
        raise DegenerateEnsemble(
            f"mean matrix nearly singular: lambda_min={vals[0]:.3e}, lambda_max={vals[-1]:.3e}"
        )


def gen_heterogeneous(n: int, d: int, seed: int) -> QuadraticProblem:
    """Gaussian ensemble: L_i = B_i^T B_i and b_i with N(0,1) entries.

    Deterministic in ``seed``; client ``i`` draws from its own substream so
    the ensemble does not depend on generation order.

    Raises
    ------
    DegenerateEnsemble
        If the sampled mean matrix is numerically singular (the caller
        should retry with a different seed).
    """
    if n < 1 or d < 1:
        raise DimMismatch("n and d must be positive")
    L = np.empty((n, d, d))
    b = np.empty((n, d))
    for i in range(n):
        rng = client_rng(seed, i)
        B = rng.standard_normal((d, d))
        G = B.T @ B
        np.add(G, G.T, out=L[i])
        b[i] = rng.standard_normal(d)
    L /= 2.0  # symmetrized in place: no (n, d, d) temporary
    p = QuadraticProblem(L=L, b=b, seed=seed)
    ensure_nondegenerate(p)
    return p


def gen_homogeneous(n: int, d: int, seed: int) -> QuadraticProblem:
    """One Gaussian (L, b) pair replicated to all ``n`` clients."""
    if n < 1 or d < 1:
        raise DimMismatch("n and d must be positive")
    rng = client_rng(seed, 0)
    B = rng.standard_normal((d, d))
    L1 = B.T @ B
    L1 = (L1 + L1.T) / 2.0
    b1 = rng.standard_normal(d)
    L = np.broadcast_to(L1, (n, d, d)).copy()
    b = np.broadcast_to(b1, (n, d)).copy()
    p = QuadraticProblem(L=L, b=b, seed=seed)
    ensure_nondegenerate(p)
    return p


def precondition_homogeneous(p: QuadraticProblem) -> tuple[QuadraticProblem, ProblemTransform]:
    """Diagonal change of variables for a homogeneous problem.

    Returns the problem with matrix ``D^{-1/2} L D^{-1/2}`` (unit diagonal)
    and linear term ``D^{-1/2} b`` on every client, where ``D = Diag(L)``,
    together with the transform record.

    Raises
    ------
    NotHomogeneous
        If clients do not share bitwise-identical data.
    NonPositiveDiagonal
        If any diagonal entry of L is <= 0.
    """
    if not p.homogeneous:
        raise NotHomogeneous("diagonal preconditioning requires a homogeneous ensemble")
    diag = p.diag[0].copy()
    if np.any(diag <= 0.0):
        raise NonPositiveDiagonal("homogeneous matrix has a nonpositive diagonal entry")
    Lt = linalg.precondition(p.L[0], diag)
    bt = p.b[0] / np.sqrt(diag)
    L = np.broadcast_to(Lt, (p.n, p.d, p.d)).copy()
    b = np.broadcast_to(bt, (p.n, p.d)).copy()
    transformed = QuadraticProblem(L=L, b=b, seed=p.seed)
    return transformed, ProblemTransform(kind="homogeneous_diag_precondition", diag=diag)
