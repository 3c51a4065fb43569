"""Heterogeneous and homogeneous quadratic ensembles.

A problem is a collection of client losses

    f_i(x) = 1/2 x^T L_i x - x^T b_i,      f(x) = (1/n) sum_i f_i(x),

with L_i symmetric bit for bit, and so ``L_bar``.  The mean matrix ``L_bar``
and mean linear term ``b_bar`` are cached, so the full gradient is
``L_bar @ x - b_bar``; the eigendecomposition of ``L_bar`` is cached on
first use.

Randomness contract
-------------------
All generators draw from ``numpy.random.Generator`` (PCG64) seeded through
``numpy.random.SeedSequence``.  Client ``i`` of a generated ensemble uses the
substream ``SeedSequence(seed, spawn_key=(i,))``.  Ensembles are bitwise
reproducible at a fixed BLAS thread count only: ``B.T @ B`` rounds with it.
"""

from __future__ import annotations

import hashlib
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
    integer,
)

#: Symmetry validation tolerance used by the JSON loader.
SYMMETRY_TOL = 1e-12

#: lambda_min(L_bar) <= DEGENERACY_TOL * lambda_max(L_bar) rejects an ensemble.
DEGENERACY_TOL = 1e-10

#: Smallest d at which ensure_nondegenerate tries the shifted Cholesky first;
#: below it one ``eigvalsh`` costs less than the Cholesky's extra numpy calls
#: (crossover at d = 12-14, about 27 us, on one OpenBLAS thread).
CHOLESKY_MIN_D = 13

#: Side of the tiles in which the constructor compares each L_i with L_i^T.
SYM_TILE = 256

#: Most floats encoded by one ``json.dumps`` call in :meth:`QuadraticProblem.save`.
SAVE_CHUNK = 1 << 16


def _write_json_rows(fh, rows: NDArray) -> None:
    """Write ``json.dumps(rows.tolist())`` for a 2-d float array, one slice at a time."""
    fh.write("[")
    for i, row in enumerate(rows):
        fh.write(", [" if i else "[")
        for k in range(0, row.size, SAVE_CHUNK):
            fh.write(", " if k else "")
            fh.write(json.dumps(row[k:k + SAVE_CHUNK].tolist())[1:-1])
        fh.write("]")
    fh.write("]")


def _asymmetric_clients(L: NDArray) -> NDArray:
    """Indices of the clients whose L_i differs from L_i^T in some bit.

    Tiles of SYM_TILE x SYM_TILE entries are compared (512 KB, cache-sized),
    as many clients' whole matrices at once as fit in one where d is smaller,
    so no temporary of L's size is made and a small ensemble takes one pass.
    """
    u, (n, d) = L.view(np.uint64), L.shape[:2]
    t = min(SYM_TILE, d)
    g = SYM_TILE * SYM_TILE // (t * t)
    asym = np.zeros(n, dtype=bool)
    for c in range(0, n, g):
        for i in range(0, d, t):
            for j in range(i, d, t):
                ne = u[c:c + g, i:i + t, j:j + t] != u[c:c + g, j:j + t, i:i + t].transpose(0, 2, 1)
                if ne.any():
                    asym[c:c + g] |= ne.any(axis=(1, 2))
    return np.flatnonzero(asym)


def client_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of a 64-bit ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True)
class QuadraticProblem:
    """Immutable ensemble {L_i, b_i} with cached means.

    Arrays are stored read-only; the instance can be shared freely across
    threads.  The constructor holds every L_i bitwise symmetric: a client
    that already is is kept as given, with no copy, and any other becomes
    (L_i + L_i^T) / 2, as :meth:`from_arrays` computes it.  Only
    :meth:`from_arrays` also rejects non-finite data.
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
        asym = _asymmetric_clients(L)
        if asym.size:  # on a copy: the caller's array is not written
            L = L.copy()
            L[asym] = linalg.symmetrize(L[asym])
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
    @np.errstate(over="ignore", invalid="ignore")  # overflow raises NonFinite, not a warning
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
            If an entry of a matrix or linear term is NaN or infinite, or
            overflows in (L_i + L_i^T) / 2 or in the means L_bar and b_bar.
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
        p = cls(L=(L + np.transpose(L, (0, 2, 1))) / 2.0, b=b, seed=seed)
        if not (np.isfinite(p.L_bar).all() and np.isfinite(p.b_bar).all()):
            raise NonFinite("problem data overflow the float64 range when symmetrized or averaged")
        return p

    # -- basic shape ------------------------------------------------------

    @cached_property  # read by every gradient kernel call
    def n(self) -> int:
        return self.L.shape[0]

    @cached_property
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

    @cached_property
    def spectrum(self) -> linalg.Spectrum:
        """Read-only eigendecomposition of L_bar; computed on first use, then cached.

        Every consumer of L_bar's eigenvectors reads this one: the minimizer,
        the L_bar^{-1} metric weight and the contraction factor's L_bar^{-1/2}.
        """
        vals, vecs = np.linalg.eigh(linalg.check_finite(self.L_bar))  # L_bar is symmetric
        spec = linalg.Spectrum(eigenvalues=vals, eigenvectors=vecs)
        for arr in (spec.eigenvalues, spec.eigenvectors):
            arr.setflags(write=False)
        return spec

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

    def solution(self, rank_tol_factor: float = linalg.RANK_TOL_FACTOR) -> NDArray:
        """Minimizer L_bar^{-1} b_bar.

        Raises
        ------
        SingularMatrix
            If lambda_min(L_bar) is below the rank tolerance.
        """
        spec = self.spectrum
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
        """Write the bytes of ``json.dump(self.to_json(), fh)`` and a newline.

        Each client's flattened ``L_i`` and ``b_i`` goes through the C
        encoder of ``json.dumps`` in slices of at most ``SAVE_CHUNK`` floats,
        so the document is never one string or one list of floats in memory.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"n": {self.n}, "d": {self.d}, "L": ')
            _write_json_rows(fh, self.L.reshape(self.n, self.d * self.d))
            fh.write(', "b": ')
            _write_json_rows(fh, self.b)
            fh.write(f', "seed": {json.dumps(self.seed)}}}\n')

    @classmethod
    def from_json(cls, doc) -> "QuadraticProblem":
        """Build a problem from a :meth:`to_json` document through :meth:`from_arrays`.
        Raises :class:`DimMismatch`, naming the field, unless ``doc`` is an object
        with positive integers n and d, numbers L and b of shapes (n, d * d) and
        (n, d), and an integer or null seed."""
        if not isinstance(doc, dict):
            raise DimMismatch("problem file must hold a JSON object")
        n = integer(doc.get("n"), DimMismatch, "problem file n must be a positive integer", low=1)
        d = integer(doc.get("d"), DimMismatch, "problem file d must be a positive integer", low=1)
        L = _doc_array(doc, "L", (n, d * d)).reshape(n, d, d)
        b = _doc_array(doc, "b", (n, d))
        if (seed := doc.get("seed")) is not None:
            integer(seed, DimMismatch, "problem file seed must be an integer or null")
        return cls.from_arrays(L, b, seed=seed, symmetry_tol=SYMMETRY_TOL)

    @classmethod
    def load(cls, path) -> "QuadraticProblem":
        """Read a problem file (:meth:`read`)."""
        return cls.read(path)[0]

    @classmethod
    def read(cls, path) -> tuple["QuadraticProblem", str]:
        """Read a problem file once: its problem and the sha256 of the bytes parsed.
        A file that is not UTF-8 JSON raises :class:`DimMismatch`."""
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        try:  # each step drops the form before it: no two copies of the file are held
            data = data.decode("utf-8")
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:  # undecodable bytes and bad JSON alike
            raise DimMismatch(f"problem file is not valid JSON: {exc}") from None
        return cls.from_json(data), digest


def _doc_array(doc: dict, key: str, shape: tuple[int, int]) -> NDArray:
    """``doc[key]`` of a problem file as a float array of ``shape``."""
    value = doc.get(key)
    try:
        arr = np.array(value)
    except ValueError:  # ragged lists
        arr = np.array(None)
    if (arr.dtype.kind not in "fiu" or arr.shape != shape
            or any(bool in map(type, row) for row in value)):  # numpy reads true in [true, 0.5] as 1.0
        raise DimMismatch(f"problem file {key} must be a list of {shape[0]} lists of {shape[1]} numbers")
    return arr.astype(np.float64, copy=False)


@dataclass(frozen=True)
class ProblemTransform:
    """Change of variables x_tilde = D^{1/2} x produced by preconditioning.

    ``kind`` is "none" for the identity transform, otherwise
    "homogeneous_diag_precondition".
    """

    kind: str
    diag: NDArray  # (d,) entries of D

    def inverse(self, x_tilde: NDArray) -> NDArray:
        """Map transformed variable back to the original."""
        return np.asarray(x_tilde, dtype=np.float64) / np.sqrt(self.diag)


def _clearly_nondegenerate(S: NDArray, rel_tol: float) -> bool:
    """True if a Cholesky of ``S - c I`` succeeds, c = (rel_tol + 2 d (d+1) eps) |S|_inf.

    |S|_inf bounds lambda_max(S) from above.  A Cholesky that completes is
    exact for a perturbation of ``S - c I`` of norm below about
    d (d+1) eps |S|_inf, so success puts lambda_min(S) above
    rel_tol * lambda_max(S) with a margin that also covers ``eigvalsh``'s
    rounding.  ``S`` is overwritten.
    """
    d = S.shape[0]
    scale = float(np.linalg.norm(S, np.inf))
    if not 0.0 < scale < np.inf:
        return False
    S.flat[:: d + 1] -= (rel_tol + 2 * d * (d + 1) * np.finfo(np.float64).eps) * scale
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def ensure_nondegenerate(p: QuadraticProblem, rel_tol: float = DEGENERACY_TOL) -> None:
    """Raise :class:`DegenerateEnsemble` if lambda_min(L_bar) <= rel_tol * lambda_max.

    From ``CHOLESKY_MIN_D`` on, a shifted Cholesky accepts clearly
    well-conditioned ensembles; every other case is decided by ``eigvalsh``.
    NaN or Inf in L_bar raises :class:`NonFinite` first.
    """
    if not np.isfinite(p.L_bar).all():
        raise NonFinite("mean matrix holds NaN or Inf")
    if p.d >= CHOLESKY_MIN_D and _clearly_nondegenerate(p.L_bar.copy(), rel_tol):
        return
    vals = np.linalg.eigvalsh(p.L_bar)
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
    integer(n, DimMismatch, "n must be an integer >= 1", low=1)
    integer(d, DimMismatch, "d must be an integer >= 1", low=1)
    L = np.empty((n, d, d))
    b = np.empty((n, d))
    for i in range(n):
        rng = client_rng(seed, i)
        B = rng.standard_normal((d, d))
        np.matmul(B.T, B, out=L[i])  # one syrk with the triangle mirrored: exactly symmetric
        b[i] = rng.standard_normal(d)
    del B  # d x d, not held through the checks below
    p = QuadraticProblem(L=L, b=b, seed=seed)
    ensure_nondegenerate(p)
    return p


def gen_homogeneous(n: int, d: int, seed: int) -> QuadraticProblem:
    """One Gaussian (L, b) pair replicated to all ``n`` clients."""
    integer(n, DimMismatch, "n must be an integer >= 1", low=1)
    integer(d, DimMismatch, "d must be an integer >= 1", low=1)
    rng = client_rng(seed, 0)
    B = rng.standard_normal((d, d))
    L1 = B.T @ B  # one syrk with the triangle mirrored: exactly symmetric
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
