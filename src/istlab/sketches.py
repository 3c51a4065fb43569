"""Sketch operators: sampling, application, and exact expectations.

Every sketch used here selects coordinates: client ``i`` receives a
symmetric PSD matrix ``C_i`` supported on a coordinate set ``S_i`` of q
coordinates.  A joint realization is stored stacked over clients (see
:class:`SketchSample`): an (n, q) array of coordinates and the restriction
of each ``C_i`` to its coordinates.  That restriction is a weight vector,
because ``C_i`` is diagonal, for every kind except the heterogeneity-scaled
permutation sketch with q > 1, which stores dense q x q blocks.  Each
operation on a sample works on the whole stack at once.

Kinds
-----
identity
    C_i = I for every client.
perm_q  (requires d = q * n)
    A random permutation of [d] is cut into n consecutive blocks of size q;
    client i applies weight n on its block.  The blocks partition [d], so
    (1/n) sum_i C_i = I holds for every realization.
scaled_perm_homog  (requires d = q * n)
    Same partition with weight sqrt(n) instead of n.
perm_multiset  (requires n = q * d)
    A random permutation of the multiset {1..d, each q times}; client i
    holds the single coordinate pi_i with weight sqrt(d).
scaled_perm_het  (requires d = q * n)
    Client i holds its block S_i and applies
    sqrt(n) * (L_i[S_i, S_i])^{-1/2} on it, which for q = 1 is the scalar
    weight sqrt(n / L_i[j, j]).  This choice makes the per-round curvature
    B = (1/n) sum_i C_i L_i C_i equal the identity for every realization,
    not just in expectation.
rand_q
    Each client independently keeps a uniform q-subset with weight d / q.
bernoulli
    Each client independently keeps each coordinate with probability p and
    weight 1 / p.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .errors import (
    DimMismatch,
    IncompatibleShape,
    NoClosedForm,
    NonPositiveDiagonal,
    TooLarge,
)
from .quadratics import QuadraticProblem

KINDS = (
    "identity",
    "perm_q",
    "perm_multiset",
    "scaled_perm_homog",
    "scaled_perm_het",
    "rand_q",
    "bernoulli",
)

#: Maximum number of joint outcomes the exact enumerator will visit.
ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class SketchKind:
    """Tagged sketch family; ``q``/``p`` only where the family uses them."""

    kind: str
    q: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise IncompatibleShape(f"unknown sketch kind {self.kind!r}")
        if self.kind == "rand_q":
            if self.q is None or self.q < 1:
                raise IncompatibleShape("rand_q requires an integer q >= 1")
        elif self.kind == "bernoulli":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise IncompatibleShape("bernoulli requires 0 < p <= 1")
        elif self.kind == "perm_q":
            if self.q is not None and self.q < 1:
                raise IncompatibleShape("perm_q requires q >= 1 when given")
        else:
            if self.q is not None or self.p is not None:
                raise IncompatibleShape(f"{self.kind} takes no q/p parameters")

    # convenience constructors -------------------------------------------

    @classmethod
    def identity(cls) -> "SketchKind":
        return cls("identity")

    @classmethod
    def perm_q(cls, q: int | None = None) -> "SketchKind":
        return cls("perm_q", q=q)

    @classmethod
    def perm_multiset(cls) -> "SketchKind":
        return cls("perm_multiset")

    @classmethod
    def scaled_perm_homog(cls) -> "SketchKind":
        return cls("scaled_perm_homog")

    @classmethod
    def scaled_perm_het(cls) -> "SketchKind":
        return cls("scaled_perm_het")

    @classmethod
    def rand_q(cls, q: int) -> "SketchKind":
        return cls("rand_q", q=q)

    @classmethod
    def bernoulli(cls, p: float) -> "SketchKind":
        return cls("bernoulli", p=p)

    # config wire format ---------------------------------------------------

    @classmethod
    def from_config(cls, doc: dict) -> "SketchKind":
        extra = set(doc) - {"kind", "q", "p"}
        if extra:
            raise IncompatibleShape(f"unknown sketch config keys {sorted(extra)}")
        return cls(doc["kind"], q=doc.get("q"), p=doc.get("p"))

    def to_config(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.q is not None:
            doc["q"] = self.q
        if self.p is not None:
            doc["p"] = self.p
        return doc


def resolve_block_size(kind: SketchKind, n: int, d: int) -> int:
    """Coordinates per client for ``kind`` on an (n, d) problem.

    Raises :class:`IncompatibleShape` when the family's divisibility
    requirement fails (permutation kinds support exactly d = q*n and the
    multiset kind n = q*d; other shape combinations are rejected).
    """
    if kind.kind in ("perm_q", "scaled_perm_homog", "scaled_perm_het"):
        if d % n != 0:
            raise IncompatibleShape(f"{kind.kind} requires d = q*n, got n={n}, d={d}")
        q = d // n
        if kind.q is not None and kind.q != q:
            raise IncompatibleShape(f"configured q={kind.q} but d/n = {q}")
        return q
    if kind.kind == "perm_multiset":
        if n % d != 0:
            raise IncompatibleShape(f"perm_multiset requires n = q*d, got n={n}, d={d}")
        return 1
    if kind.kind == "rand_q":
        if kind.q > d:
            raise IncompatibleShape(f"rand_q with q={kind.q} exceeds d={d}")
        return kind.q
    return d  # identity / bernoulli: no block structure


@dataclass(frozen=True)
class SketchSample:
    """One joint realization {C_1, ..., C_n} in a stacked layout.

    ``idx`` is an (n, q) int array: row i holds the coordinates S_i that
    client i keeps.  ``factors`` holds C_i restricted to S_i for every
    client: an (n, q) array of diagonal weights, or, for scaled_perm_het with
    q > 1, an (n, q, q) stack of dense blocks.  Bernoulli keeps a different
    number of coordinates per client, so each of its rows is padded to the
    draw's largest kept count with coordinates the client dropped, at weight
    zero; a zero weight marks padding and nothing else.

    ``coords[i]`` and ``weights[i]`` read client i's kept coordinates and
    their weights without padding; ``blocks`` is the block stack, or None
    for diagonal factors, in which case ``weights`` is not None.
    """

    kind: SketchKind
    n: int
    d: int
    idx: NDArray
    factors: NDArray
    permutation: NDArray | None = None

    @property
    def coords(self) -> NDArray | tuple[NDArray, ...]:
        return self._unpadded(self.idx)

    @property
    def weights(self) -> NDArray | tuple[NDArray, ...] | None:
        return None if self.factors.ndim == 3 else self._unpadded(self.factors)

    @property
    def blocks(self) -> NDArray | None:
        return self.factors if self.factors.ndim == 3 else None

    def _unpadded(self, rows: NDArray) -> NDArray | tuple[NDArray, ...]:
        w = self.factors
        if w.ndim == 3 or w.all():
            return rows
        return tuple(r[wi != 0.0] for r, wi in zip(rows, w))

    def apply(self, i: int, x: NDArray) -> NDArray:
        """C_i x as a dense vector (zeros off the kept coordinates)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise DimMismatch(f"expected vector of length {self.d}")
        out = np.zeros(self.d)
        idx = self.idx[i]
        out[idx] = _times(self.factors[i : i + 1], x[idx][None, :, None])[0, :, 0]
        return out

    def client_matrix(self, i: int) -> NDArray:
        """Dense d x d matrix of C_i."""
        return _scatter(self.idx[i], self._blocks()[i], self.d)

    def mean_sketch(self) -> NDArray:
        """(1/n) sum_i C_i as a dense matrix."""
        return _scatter(self.idx, self._blocks(), self.d) / self.n

    def curvature(self, p: QuadraticProblem) -> NDArray:
        """Per-round curvature B = (1/n) sum_i C_i L_i C_i, dense."""
        cl = _times(self.factors, _sub_blocks(p, self.idx))
        clc = _times(self.factors, np.swapaxes(cl, 1, 2))
        return _scatter(self.idx, clc, self.d) / self.n

    def linear_term(self, p: QuadraticProblem) -> NDArray:
        """(1/n) sum_i C_i b_i as a dense vector."""
        cb = _times(self.factors, _rows(p.b, self.idx)[..., None])
        return _accumulate(self.idx, cb, self.d) / self.n

    def _blocks(self) -> NDArray:
        """C_i restricted to S_i as an (n, q, q) stack."""
        return _times(self.factors, np.eye(self.idx.shape[1]))


def _times(factors: NDArray, m: NDArray) -> NDArray:
    """C_i restricted to S_i times m[i], for every client i.

    ``factors`` is (n, q) weights or (n, q, q) blocks and ``m`` is (n, q, k),
    or (q, k) shared by all clients: weights scale rows, blocks multiply.
    This is the one place that tells diagonal factors from blocks.
    """
    if factors.ndim == 2:
        return factors[..., None] * m
    return factors @ m


@functools.lru_cache(maxsize=16)
def _client_offsets(n: int, d: int) -> NDArray:
    """Read-only (n, 1) column of i * d: turns client i's coordinates into
    row numbers of its (n * d, ...) flattened per-client data."""
    off = np.arange(n)[:, None] * d
    off.setflags(write=False)
    return off


# The gathers below index one flattened axis rather than (client, coordinate)
# pairs: numpy releases the interpreter lock for multi-array fancy indexing,
# and on tiny problems the repeat threads then spend more time handing the
# lock over than gathering.


def _rows(a: NDArray, idx: NDArray) -> NDArray:
    """a[i][idx[i]] for every client i; ``a`` is (n, d, ...) per-client data."""
    n, d = a.shape[:2]
    return a.reshape((n * d,) + a.shape[2:])[idx + _client_offsets(n, d)]


def _sub_blocks(p: QuadraticProblem, idx: NDArray) -> NDArray:
    """L_i[S_i, S_i] for every client, shape (n, q, q)."""
    d = p.d
    flat_rows = (idx + _client_offsets(p.n, d)) * d
    return p.L.reshape(-1)[flat_rows[:, :, None] + idx[:, None, :]]


def _accumulate(idx: NDArray, v: NDArray, d: int) -> NDArray:
    """sum_i of the per-client values v[i] placed at idx[i] in a length-d vector."""
    return np.bincount(idx.ravel(), weights=v.ravel(), minlength=d)


def _scatter(idx: NDArray, blocks: NDArray, d: int) -> NDArray:
    """sum_i of the q x q blocks placed at idx[i] x idx[i] in a d x d matrix."""
    flat = idx[..., :, None] * d + idx[..., None, :]
    return _accumulate(flat, blocks, d * d).reshape(d, d)


def _require_positive_diagonal(p: QuadraticProblem) -> None:
    if not p.positive_diagonal:
        raise NonPositiveDiagonal("scaled_perm_het requires every [L_i]_jj > 0")


def _het_factors(p: QuadraticProblem, idx: NDArray) -> NDArray:
    """Factors sqrt(n) (L_i[S_i, S_i])^{-1/2}: weights for q = 1, else blocks."""
    _require_positive_diagonal(p)
    if idx.shape[1] == 1:
        return np.sqrt(p.n / _rows(p.diag, idx))
    return math.sqrt(p.n) * linalg.spd_inv_sqrt(_sub_blocks(p, idx))


def _from_permutation(kind: SketchKind, p: QuadraticProblem, perm: NDArray) -> SketchSample:
    """Assemble a permutation-family sample from a drawn permutation.

    Client i holds the i-th run of q consecutive entries of ``perm``.
    """
    n, d = p.n, p.d
    idx = perm.reshape(n, -1)
    if kind.kind == "scaled_perm_het":
        return SketchSample(kind, n, d, idx, _het_factors(p, idx), permutation=perm)
    if kind.kind == "perm_multiset":
        w = math.sqrt(d)
    elif kind.kind == "perm_q":
        w = float(n)
    else:  # scaled_perm_homog
        w = math.sqrt(n)
    return SketchSample(kind, n, d, idx, np.full(idx.shape, w), permutation=perm)


def _from_mask(kind: SketchKind, mask: NDArray) -> SketchSample:
    """Assemble a Bernoulli sample from an (n, d) boolean keep mask."""
    n, d = mask.shape
    kept = mask.sum(axis=1)
    q = int(kept.max(initial=0))
    # a stable sort puts each row's kept coordinates first, in order, and
    # pads with coordinates the client dropped
    idx = np.argsort(~mask, axis=1, kind="stable")[:, :q]
    weights = np.where(np.arange(q) < kept[:, None], 1.0 / kind.p, 0.0)
    return SketchSample(kind, n, d, idx, weights)


def sample(kind: SketchKind, p: QuadraticProblem, rng: np.random.Generator) -> SketchSample:
    """Draw one joint realization of ``kind`` for problem ``p``.

    Permutations are drawn with ``rng.permutation`` (Fisher-Yates), so every
    permutation-family realization is uniform.
    """
    n, d = p.n, p.d
    resolve_block_size(kind, n, d)
    if kind.kind == "identity":
        return identity_sample(n, d)
    if kind.kind in ("perm_q", "scaled_perm_homog", "scaled_perm_het"):
        return _from_permutation(kind, p, rng.permutation(d))
    if kind.kind == "perm_multiset":
        multiset = np.repeat(np.arange(d), n // d)
        return _from_permutation(kind, p, rng.permutation(multiset))
    if kind.kind == "rand_q":
        idx = np.sort([rng.choice(d, size=kind.q, replace=False) for _ in range(n)], axis=1)
        return SketchSample(kind, n, d, idx, np.full(idx.shape, d / kind.q))
    # bernoulli; one (n, d) draw is the stream of n draws of length d
    return _from_mask(kind, rng.random((n, d)) < kind.p)


def identity_sample(n: int, d: int) -> SketchSample:
    """The deterministic identity realization (consumes no randomness)."""
    return SketchSample(
        SketchKind.identity(), n, d,
        idx=np.broadcast_to(np.arange(d), (n, d)),
        factors=np.broadcast_to(1.0, (n, d)),
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumeration_count(kind: SketchKind, n: int, d: int) -> int:
    """Number of joint outcomes the enumerator would visit."""
    resolve_block_size(kind, n, d)
    if kind.kind == "identity":
        return 1
    if kind.kind in ("perm_q", "scaled_perm_homog", "scaled_perm_het"):
        return math.factorial(d)
    if kind.kind == "perm_multiset":
        return math.factorial(n)
    if kind.kind == "rand_q":
        return math.comb(d, kind.q) ** n
    return 2 ** (d * n)  # bernoulli


def enumerate_outcomes(kind: SketchKind, p: QuadraticProblem):
    """Yield (probability, SketchSample) over the entire joint outcome space.

    Probabilities sum to one exactly for the uniform families and up to
    float round-off for Bernoulli masks.

    Raises
    ------
    TooLarge
        If the outcome count exceeds :data:`ENUMERATION_BUDGET`.
    """
    n, d = p.n, p.d
    count = enumeration_count(kind, n, d)
    if count > ENUMERATION_BUDGET:
        # the count itself is left out: n! can exceed Python's limit on the
        # digits an int may format
        raise TooLarge(
            f"{kind.kind} at n={n}, d={d} has more joint outcomes than the budget "
            f"{ENUMERATION_BUDGET}"
        )
    if kind.kind == "identity":
        yield 1.0, identity_sample(n, d)
        return
    if kind.kind in ("perm_q", "scaled_perm_homog", "scaled_perm_het"):
        prob = 1.0 / count
        for perm in itertools.permutations(range(d)):
            yield prob, _from_permutation(kind, p, np.array(perm))
        return
    if kind.kind == "perm_multiset":
        # Permuting the multiset array yields each arrangement a uniform
        # number of times, so equal weights remain exact.
        prob = 1.0 / count
        multiset = np.repeat(np.arange(d), n // d)
        for perm in itertools.permutations(multiset):
            yield prob, _from_permutation(kind, p, np.array(perm))
        return
    if kind.kind == "rand_q":
        weights = np.broadcast_to(d / kind.q, (n, kind.q))  # read-only, shared by every outcome
        prob = 1.0 / count
        subsets = list(itertools.combinations(range(d), kind.q))
        for joint in itertools.product(subsets, repeat=n):
            yield prob, SketchSample(kind, n, d, np.array(joint), weights)
        return
    # bernoulli: outcomes are NOT equiprobable; weight each mask by its
    # probability p^{kept} (1-p)^{dropped}.
    masks = list(itertools.product((0, 1), repeat=d))
    mask_prob = {
        m: (kind.p ** sum(m)) * ((1.0 - kind.p) ** (d - sum(m))) for m in masks
    }
    for joint in itertools.product(masks, repeat=n):
        prob = 1.0
        for m in joint:
            prob *= mask_prob[m]
        if prob == 0.0:
            continue
        yield prob, _from_mask(kind, np.array(joint, dtype=bool))


# ---------------------------------------------------------------------------
# expectation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SketchMoments:
    """Expectations of the sketched quantities driving the theory.

    Attributes
    ----------
    curvature : ndarray (d, d)
        E[B] with B = (1/n) sum_i C_i L_i C_i.
    curvature_second : ndarray (d, d) or None
        E[B L_bar B]; None when no exact route produced it.
    linear : ndarray (d,) or None
        E[(1/n) sum_i C_i b_i]; None when unavailable.
    method : str
        "closed_form", "enumeration", or "monte_carlo".
    n_samples : int or None
        Draw count for Monte Carlo reports.
    curvature_stderr, linear_stderr
        Elementwise standard errors for Monte Carlo reports.
    """

    curvature: NDArray
    curvature_second: NDArray | None
    linear: NDArray | None
    method: str
    n_samples: int | None = None
    curvature_stderr: NDArray | None = None
    linear_stderr: NDArray | None = None


def _offdiag(m: NDArray) -> NDArray:
    return m - np.diag(np.diag(m))


def closed_moments(kind: SketchKind, p: QuadraticProblem) -> SketchMoments:
    """Closed-form expectations where the sketch family admits them.

    Availability:

    ==================  =======================  ==========================
    kind                curvature E[B]           second / linear
    ==================  =======================  ==========================
    identity            L_bar                    L_bar^3 / b_bar
    perm_q              n Diag(L_bar) + cross    second only for q=1
                        term for q > 1           homogeneous; linear b_bar
    scaled_perm_homog   Diag(L_bar) + cross      second only for q=1
                        term for q > 1           homogeneous; linear
                                                 b_bar / sqrt(n)
    perm_multiset       Diag(L_bar)              second only homogeneous;
                                                 linear b_bar / sqrt(d)
    scaled_perm_het     I  (per realization)     second = L_bar; linear
                                                 only for q = 1 (or zero
                                                 linear terms)
    ==================  =======================  ==========================

    Raises :class:`NoClosedForm` for rand_q / bernoulli.
    """
    n, d = p.n, p.d
    L_bar = p.L_bar
    if kind.kind == "identity":
        return SketchMoments(
            curvature=L_bar.copy(),
            curvature_second=L_bar @ L_bar @ L_bar,
            linear=p.b_bar.copy(),
            method="closed_form",
        )
    q = resolve_block_size(kind, n, d)
    if kind.kind == "perm_q":
        # E[C_i L_i C_i] = n^2 [ (q/d) Diag(L_i) + q(q-1)/(d(d-1)) offdiag(L_i) ]
        curv = n * np.diag(np.diag(L_bar))
        if q > 1:
            curv = curv + (n * n * q * (q - 1) / (d * (d - 1))) * _offdiag(L_bar)
        second = None
        if q == 1 and p.homogeneous:
            D = np.diag(np.diag(L_bar))
            second = (n * D) @ L_bar @ (n * D)
        return SketchMoments(curv, second, p.b_bar.copy(), method="closed_form")
    if kind.kind == "scaled_perm_homog":
        curv = np.diag(np.diag(L_bar))
        if q > 1:
            curv = curv + ((q - 1) / (d - 1)) * _offdiag(L_bar)
        second = None
        if q == 1 and p.homogeneous:
            D = np.diag(np.diag(L_bar))
            second = D @ L_bar @ D
        return SketchMoments(
            curv, second, p.b_bar / math.sqrt(n), method="closed_form"
        )
    if kind.kind == "perm_multiset":
        curv = np.diag(np.diag(L_bar))
        second = None
        if p.homogeneous:
            second = curv @ L_bar @ curv
        return SketchMoments(
            curv, second, p.b_bar / math.sqrt(d), method="closed_form"
        )
    if kind.kind == "scaled_perm_het":
        _require_positive_diagonal(p)
        if q == 1:
            linear = (p.b / np.sqrt(p.diag)).mean(axis=0) / math.sqrt(n)
        elif p.interpolation:
            linear = np.zeros(d)
        else:
            linear = None  # block factors have no closed-form linear mean
        return SketchMoments(
            curvature=np.eye(d),
            curvature_second=L_bar.copy(),
            linear=linear,
            method="closed_form",
        )
    raise NoClosedForm(f"no closed-form expectations for kind {kind.kind!r}")


def enumerated_moments(kind: SketchKind, p: QuadraticProblem) -> SketchMoments:
    """Exact expectations by visiting every joint outcome.

    Independent of :func:`closed_moments`; used as the oracle in tests.
    """
    d = p.d
    L_bar = p.L_bar
    curv = np.zeros((d, d))
    second = np.zeros((d, d))
    linear = np.zeros(d)
    total = 0.0
    for prob, s in enumerate_outcomes(kind, p):
        B = s.curvature(p)
        curv += prob * B
        second += prob * (B @ L_bar @ B)
        linear += prob * s.linear_term(p)
        total += prob
    # Bernoulli probabilities accumulate float error ~1e-15; renormalize.
    curv /= total
    second /= total
    linear /= total
    return SketchMoments(curv, second, linear, method="enumeration")


def monte_carlo_moments(
    kind: SketchKind,
    p: QuadraticProblem,
    n_samples: int,
    rng: np.random.Generator,
) -> SketchMoments:
    """Sample means of B and the linear term with elementwise standard errors."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = p.d
    # Welford updates: exact zeros for deterministic kinds, no cancellation.
    curv_mean = np.zeros((d, d))
    curv_m2 = np.zeros((d, d))
    lin_mean = np.zeros(d)
    lin_m2 = np.zeros(d)
    for t in range(1, n_samples + 1):
        s = sample(kind, p, rng)
        B = s.curvature(p)
        v = s.linear_term(p)
        delta = B - curv_mean
        curv_mean += delta / t
        curv_m2 += delta * (B - curv_mean)
        delta_v = v - lin_mean
        lin_mean += delta_v / t
        lin_m2 += delta_v * (v - lin_mean)
    return SketchMoments(
        curvature=curv_mean,
        curvature_second=None,
        linear=lin_mean,
        method="monte_carlo",
        n_samples=n_samples,
        curvature_stderr=np.sqrt(np.maximum(curv_m2, 0.0)) / n_samples,
        linear_stderr=np.sqrt(np.maximum(lin_m2, 0.0)) / n_samples,
    )
