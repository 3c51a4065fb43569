"""Sketch operators: sampling, application, and expectations.

Every sketch used here selects coordinates: client ``i`` receives a
symmetric PSD matrix ``C_i`` supported on a coordinate set ``S_i`` of q
coordinates.  A joint realization is stored stacked over clients (see
:class:`SketchSample`): an (n, q) array of coordinates and the restriction
of each ``C_i`` to its coordinates.  That restriction is a weight vector,
because ``C_i`` is diagonal, for every kind except the heterogeneity-scaled
permutation sketch with q > 1, which stores dense q x q blocks.  Each
operation on a sample works on the whole stack at once.  A tape of rounds,
an enumeration chunk and a Monte Carlo chunk are each one sample with a
leading axis, split into one-round views by :meth:`SketchSample.rounds`.

Families
--------
Each family is one object in :data:`FAMILIES`, reached as
``SketchKind.family``, and its class docstring describes it.  The object
owns the parameter check, block-size rule, outcome count, sampling,
enumeration and whatever closed forms the family has: moments, E[C_i], the
fixed point and sigma2.  The module functions route to it, so a new family
is one class here and one entry in FAMILIES.

Expectations
------------
:func:`_expectation` is the one route policy: closed form, else an exact
route (enumeration within :data:`ENUMERATION_BUDGET`, or for q = 1
scaled_perm_het sigma2 a pair-probability formula), else Monte Carlo where
a draw count was given.  Enumeration (:func:`_chunks`) and Monte Carlo
(:func:`_draws`) feed one consumer, :func:`_sums`; Monte Carlo sums are
shifted by the first draw.  The closed E[B] and E[B L_bar B] of rand_q,
bernoulli, perm_q and scaled_perm_homog come from one helper,
:func:`_selection_moments`, which sums the equality patterns of the four
indices of E[B L_bar B] over shared per-client products (equal to one einsum
per pattern up to round-off); perm_multiset's second moment and q > 1
scaled_perm_het's sigma2 stay on enumeration or Monte Carlo.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .errors import (
    DimMismatch,
    IncompatibleShape,
    NoClosedForm,
    NoExpectation,
    NonPositiveDiagonal,
    SingularMatrix,
    TooLarge,
    WrongKind,
    integer,
    json_object,
    real,
)
from .quadratics import QuadraticProblem

#: Maximum number of joint outcomes the exact enumerator will visit.
ENUMERATION_BUDGET = 1_000_000

#: Bytes of the largest stack a chunk makes: (outcomes, d, max(d, n q)) floats in
#: enumeration, (draws, d, d) in Monte Carlo, (clients, d, d) in _pattern_sums.
CHUNK_BYTES = 2 * 2**20

#: Unit-diagonal tolerance when a preconditioned homogeneous problem is required.
UNIT_DIAG_TOL = 1e-9

#: Largest q / d at which SketchSample.submodel_loss gathers L_i[S_i, S_i]: the gather's
#: n q^2 scattered reads cost as much as streaming n d^2 near q = 0.3 d (d = 200 and 2000).
GATHER_MAX_FRACTION = 0.3


@dataclass(frozen=True)
class SketchKind:
    """Tagged sketch family; ``q``/``p`` only where the family takes them."""

    kind: str
    q: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in FAMILIES:
            raise IncompatibleShape(f"unknown sketch kind {self.kind!r}")
        self.family.check(self)

    @property
    def family(self) -> _Family:
        """The object in :data:`FAMILIES` that implements this kind."""
        return FAMILIES[self.kind]

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
        json_object(doc, IncompatibleShape, "sketch", {"kind", "q", "p"})
        return cls(doc.get("kind"), q=doc.get("q"), p=doc.get("p"))

    def to_config(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.q is not None:
            doc["q"] = self.q
        if self.p is not None:
            doc["p"] = self.p
        return doc


@dataclass(frozen=True)
class SketchSample:
    """One joint realization {C_1, ..., C_n} in a stacked layout.

    ``idx`` is an (n, q) int array: row i holds the coordinates S_i that
    client i keeps.  ``factors`` holds C_i restricted to S_i for every
    client: an (n, q) array of diagonal weights, or, for scaled_perm_het with
    q > 1, an (n, q, q) stack of dense blocks.  Bernoulli keeps a different
    number of coordinates per client, so each of its rows is padded to the
    draw's largest kept count with coordinates the client dropped, at weight
    zero; a zero weight marks padding and nothing else.  A stack of rounds
    or outcomes carries a leading axis on every array; ``curvature``,
    ``linear_term`` and ``submodel_loss`` then give one result per round,
    :meth:`rounds` splits it into one-round samples and :meth:`parts` into
    stacks of one width.

    ``coords[i]`` and ``weights[i]`` read client i's kept coordinates and
    their weights without padding; ``blocks`` is the block stack, or None
    for diagonal factors, in which case ``weights`` is not None.  ``local`` is
    the (n, q, q) stack L_i[S_i, S_i]: gathered by the draw where its factors
    need it, else by the first ``local_blocks`` call, and then kept; ``rhs``,
    the (n, q, 1) columns b_i[S_i], likewise by the first ``local_rhs`` call.  A
    tape gathers both once for all its rounds, whose views read slices of
    the stack's (as do the parts of ``local``), and every lane of a sweep
    reads them.  The methods that take a problem must therefore get the one
    the sample was drawn for (``submodel_loss`` and the gradients read
    ``local`` and ``rhs`` over ``p.L`` and ``p.b``).
    """

    kind: SketchKind
    n: int
    d: int
    idx: NDArray
    factors: NDArray
    local: NDArray | None = None
    permutation: NDArray | None = None
    rhs: NDArray | None = None

    @property
    def coords(self) -> NDArray | tuple[NDArray, ...]:
        return self._unpadded(self.idx)

    @property
    def weights(self) -> NDArray | tuple[NDArray, ...] | None:
        return self._unpadded(self.factors) if self.diagonal else None

    @property
    def blocks(self) -> NDArray | None:
        return None if self.diagonal else self.factors

    @property
    def diagonal(self) -> bool:
        """True for weight factors, one per kept coordinate; False for blocks."""
        return self.factors.ndim == self.idx.ndim

    def rounds(self) -> list[SketchSample]:
        """The one-round samples of a stack, each a view of it.  Where its weights
        hold zeros, round t is cut back to its own widest client, as drawn alone:
        to the columns some client keeps, found once per stack.  A stack is padded
        to its widest round, so a one-round stack needs no cut."""
        none = [None] * len(self.idx)
        idx, factors, local, perm, rhs = (none if a is None else a for a in
                                          (self.idx, self.factors, self.local, self.permutation, self.rhs))
        if len(idx) > 1 and (widths := self._widths()) is not None:
            idx, factors, rhs = ([a if a is None else a[:, :w] for a, w in zip(b, widths)]
                                 for b in (idx, factors, rhs))
            local = [a if a is None else a[:, :w, :w] for a, w in zip(local, widths)]
        return [SketchSample(self.kind, self.n, self.d, *r) for r in zip(idx, factors, local, perm, rhs)]

    def parts(self):
        """Yield (positions, sample) parts covering a stack's rounds, for stacked
        passes whose results are bitwise per round: each sample stacks rounds of
        one width, cut to it as :meth:`rounds` cuts them (``local`` and ``rhs``
        too, where gathered), whose (n, w, w) blocks and their gather index fit
        ``CHUNK_BYTES // 2``."""
        k, n, q = self.idx.shape
        widths = np.array(self._widths() or [q] * k)
        for w in sorted(set(widths.tolist())):  # not np.unique, whose first call imports numpy.ma
            pos = np.flatnonzero(widths == w)
            step = max(1, CHUNK_BYTES // (32 * n * max(w, 1) ** 2))
            for at in np.split(pos, range(step, len(pos), step)):
                local = None if self.local is None else self.local[at, :, :w, :w]
                rhs = None if self.rhs is None else self.rhs[at, :, :w]
                yield at, SketchSample(self.kind, self.n, self.d, self.idx[at, :, :w],
                                       self.factors[at, :, :w], local, rhs=rhs)

    def _widths(self) -> list[int] | None:
        """Each round's own width, the columns some client keeps, where a stack's
        weights hold padding zeros; else None."""
        f = self.factors
        return f.any(axis=-2).sum(axis=-1).tolist() if self.diagonal and not f.all() else None

    def _unpadded(self, rows: NDArray) -> NDArray | tuple[NDArray, ...]:
        w = self.factors
        if not self.diagonal or w.all():
            return rows
        return tuple(r[wi != 0.0] for r, wi in zip(rows, w))

    def apply(self, i: int, x: NDArray) -> NDArray:
        """C_i x as a dense vector (zeros off the kept coordinates)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise DimMismatch(f"expected vector of length {self.d}")
        out = np.zeros(self.d)
        idx = self.idx[i]
        out[idx] = self.times(x[self.idx][..., None])[i, :, 0]
        return out

    def client_matrix(self, i: int) -> NDArray:
        """Dense d x d matrix of C_i."""
        return _scatter(self.idx[i], self._blocks()[i], self.d)

    def mean_sketch(self) -> NDArray:
        """(1/n) sum_i C_i as a dense matrix."""
        return _scatter(self.idx, self._blocks(), self.d) / self.n

    def curvature(self, p: QuadraticProblem) -> NDArray:
        """Per-round curvature B = (1/n) sum_i C_i L_i C_i, dense."""
        cl = self.times(_sub_blocks(p, self.idx))
        clc = self.times(np.swapaxes(cl, -1, -2))
        return _scatter(self.idx, clc, self.d) / self.n

    def linear_term(self, p: QuadraticProblem) -> NDArray:
        """(1/n) sum_i C_i b_i as a dense vector."""
        cb = self.times(self.local_rhs(p))
        return _accumulate(self.idx, cb[..., 0], self.d) / self.n

    def local_blocks(self, p: QuadraticProblem) -> NDArray:
        """``local``, gathered on the first call from ``p``, which must be the
        problem the sample was drawn for, and then kept."""
        if self.local is None:
            object.__setattr__(self, "local", _sub_blocks(p, self.idx))  # frozen dataclass
        return self.local

    def local_rhs(self, p: QuadraticProblem) -> NDArray:
        """``rhs``, gathered and kept as :meth:`local_blocks` keeps ``local``."""
        if self.rhs is None:
            object.__setattr__(self, "rhs", _rows(p.b, self.idx)[..., None])
        return self.rhs

    def submodel_loss(self, p: QuadraticProblem, x: NDArray) -> float | NDArray:
        """(1/n) sum_i f_i(C_i x): on the kept coordinates when q <= GATHER_MAX_FRACTION * d,
        otherwise with C_i x scattered to a dense vector and multiplied by all of L_i.

        A stack of k rounds of one width (:meth:`parts`) takes their iterates
        ``x`` as (k, d) and returns the k losses, each bitwise the one-round value."""
        n, d = self.n, self.d
        w = self.times(np.take_along_axis(x[..., None, :], self.idx, axis=-1)[..., None])
        if self.idx.shape[-1] <= GATHER_MAX_FRACTION * d:
            terms = w * (0.5 * (self.local_blocks(p) @ w) - self.local_rhs(p))
        else:
            z = _accumulate(self.idx + _client_offsets(n, d), w[..., 0], n * d).reshape(x.shape[:-1] + (n, d))
            terms = z * (0.5 * (p.L @ z[..., None])[..., 0] - p.b)
        total = terms.reshape(x.shape[:-1] + (-1,)).sum(axis=-1)
        return total / n if x.ndim > 1 else float(total) / n

    def _blocks(self) -> NDArray:
        """C_i restricted to S_i as an (n, q, q) stack."""
        q = self.idx.shape[-1]
        return self.times(np.broadcast_to(np.eye(q), self.idx.shape + (q,)))

    def times(self, m: NDArray) -> NDArray:
        """C_i restricted to S_i times m[..., i, :, :], for every client i.

        ``m`` is (..., n, q, k), where its leading axes match or broadcast
        against the sample's (a sweep's lanes on one round's draw): weights
        scale rows, blocks multiply.
        """
        return self.factors[..., None] * m if self.diagonal else self.factors @ m


@functools.lru_cache(maxsize=16)
def _client_offsets(n: int, d: int) -> NDArray:
    """Read-only (n, 1) column of i * d: turns client i's coordinates into
    row numbers of its (n * d, ...) flattened per-client data."""
    off = np.arange(n)[:, None] * d
    off.setflags(write=False)
    return off


# The gathers below turn (client, coordinate) pairs into row numbers of the
# flattened per-client data (:func:`_client_offsets`) and index that one axis.
#
# Each helper takes idx of shape (..., n, q): any leading axes stack the
# outcomes of an enumeration chunk and give one result per outcome.


def _rows(a: NDArray, idx: NDArray) -> NDArray:
    """a[i][idx[..., i, :]] for every client i; ``a`` is (n, d, ...) per-client data."""
    n, d = a.shape[:2]
    return a.reshape((n * d,) + a.shape[2:])[idx + _client_offsets(n, d)]


def _sub_blocks(p: QuadraticProblem, idx: NDArray) -> NDArray:
    """L_i[S_i, S_i] for every client, shape (..., n, q, q)."""
    d = p.d
    flat_rows = (idx + _client_offsets(p.n, d)) * d
    return p.L.reshape(-1)[flat_rows[..., :, None] + idx[..., None, :]]


def _accumulate(idx: NDArray, v: NDArray, d: int) -> NDArray:
    """v placed at idx and summed over the last two axes into (..., d) vectors;
    idx broadcasts against v, whose leading axes may stack lanes on one draw."""
    lead = v.shape[:-2]
    if lead:  # one run of d bins per stacked outcome or lane
        m = math.prod(lead)
        idx = idx + _client_offsets(m, d).reshape(lead + (1, 1))
        return np.bincount(idx.ravel(), weights=v.ravel(), minlength=m * d).reshape(lead + (d,))
    return np.bincount(idx.ravel(), weights=v.ravel(), minlength=d)


def _scatter(idx: NDArray, blocks: NDArray, d: int) -> NDArray:
    """sum_i of the q x q blocks placed at idx[i] x idx[i] in (..., d, d) matrices."""
    q = idx.shape[-1]
    flat = (idx[..., :, None] * d + idx[..., None, :]).reshape(idx.shape[:-1] + (q * q,))
    return _accumulate(flat, blocks.reshape(flat.shape), d * d).reshape(idx.shape[:-2] + (d, d))


def _require_positive_diagonal(p: QuadraticProblem) -> None:
    if not p.positive_diagonal:
        raise NonPositiveDiagonal("scaled_perm_het requires every [L_i]_jj > 0")


def _require_unit_diag(p: QuadraticProblem, what: str) -> None:
    if not p.homogeneous:
        raise WrongKind(f"{what} requires a homogeneous problem")
    if np.abs(p.diag[0] - 1.0).max(initial=0.0) > UNIT_DIAG_TOL:
        raise WrongKind("problem must be diagonally preconditioned (unit diagonal)")


def _het_factors(p: QuadraticProblem, idx: NDArray) -> tuple[NDArray, NDArray]:
    """sqrt(n) (L_i[S_i, S_i])^{-1/2} (weights for q = 1, else blocks) and L_i[S_i, S_i]."""
    _require_positive_diagonal(p)
    local = _sub_blocks(p, idx)
    if idx.shape[-1] == 1:
        return np.sqrt(p.n / local[..., 0]), local
    return math.sqrt(p.n) * linalg.spd_inv_sqrt(local), local


def _pair_sigma2(p: QuadraticProblem) -> float:
    """sigma2 of the q = 1 scaled_perm_het sketch (n = d) in O(n d^2).

    Coordinate j of the linear term is a_{pi(j) j} / sqrt(n), with
    a_ij = b_i[j] / sqrt(L_i[jj]) and pi a uniform bijection from coordinates
    to clients, so distinct coordinates sit on a given pair of distinct
    clients with probability 1 / (n(n-1)).  With c_ij = a_ij - mean_i a_ij
    and G = C^T C, the covariance of a_{pi(j) j} is
    cov = (n Diag(G) - G) / (n(n-1)), and sigma2 = sum(L_bar * cov) / n.
    c is centred after subtracting client 0's row, so identical clients give
    exactly 0.
    """
    _require_positive_diagonal(p)
    n = p.n
    if n == 1:
        return 0.0  # a single outcome
    a = p.b / np.sqrt(p.diag)
    c = a - a[0]
    c -= c.mean(axis=0)
    G = c.T @ c
    cov = n * np.diag(np.diag(G)) - G
    return float(np.sum(p.L_bar * cov)) / (n * n * (n - 1))


def fixed_point_het(p: QuadraticProblem) -> NDArray:
    """x_inf = (1/(n sqrt(n))) sum_i D_i^{-1/2} b_i: the mean linear term of
    the q = 1 scaled_perm_het sketch, defined on any (n, d)."""
    if np.any(p.diag <= 0.0):
        raise SingularMatrix("fixed point needs every [L_i]_jj > 0")
    return (p.b / np.sqrt(p.diag)).mean(axis=0) / math.sqrt(p.n)


def _from_mask(kind: SketchKind, mask: NDArray) -> SketchSample:
    """Assemble a Bernoulli sample from a (..., n, d) boolean keep mask, rows padded stack-wide."""
    n, d = mask.shape[-2:]
    kept = mask.sum(axis=-1)
    q = int(kept.max(initial=0))
    # a stable sort puts each row's kept coordinates first, in order, and
    # pads with coordinates the client dropped; the copy frees the (..., n, d) sort
    idx = np.argsort(~mask, axis=-1, kind="stable")[..., :q].copy()
    weights = np.where(np.arange(q) < kept[..., None], 1.0 / kind.p, 0.0)
    return SketchSample(kind, n, d, idx, weights)


# ---------------------------------------------------------------------------
# equality patterns: closed moments of the coordinate-selection families
# ---------------------------------------------------------------------------


def _set_partitions(m: int) -> list[tuple[int, ...]]:
    """Every set partition of m positions, as the block number of each
    position, blocks numbered in order of first appearance."""
    out = [()]
    for _ in range(m):
        out = [s + (v,) for s in out for v in range(max(s, default=-1) + 2)]
    return out


#: The 15 equality patterns of the positions (a, c, e, b) in entry (a, b) of
#: C_i L_i C_i L_bar C_j L_j C_j = sum_{c,e} c_ia c_ic c_je c_jb L_i[a,c] L_bar[c,e] L_j[e,b].
_PATTERNS = _set_partitions(4)


def _finer(s: tuple, t: tuple) -> bool:
    """True when every equality of pattern s holds in pattern t."""
    return all(t[x] == t[y] for x in range(len(s)) for y in range(x) if s[x] == s[y])


def _mobius(values: dict) -> dict:
    """G with values[t] = the sum of G[s] over the patterns s finer than t, t
    included: the Mobius inversion of ``values`` on the partition lattice,
    in exact arithmetic.  A sum over index tuples of T times values[pattern
    of the tuple] is then the sum over s of G[s] times the sum of T over the
    tuples that meet s's equalities."""
    g: dict = {}
    for t in sorted(values, key=max, reverse=True):  # finer patterns first
        g[t] = values[t] - sum((g[s] for s in g if _finer(s, t)), Fraction(0))
    return g


def _pattern_sums(L: NDArray, M: NDArray, weights: dict) -> NDArray:
    """sum_s weights[s] R_s, R_s the (d, d) matrix over (a, b) of sum_z sum_{c,e}
    L[z,a,c] M[c,e] L[z,e,b] over the (c, e) meeting pattern s's equalities with a and b
    (M, L[z] symmetric; diagonal where s has a = b): a Diag or Hadamard form of one sum
    over clients, of Diag(v_z) L_z or Diag(v_z) B_z (B_z = M L_z), of L_z * L_z, of the
    GEMMs L_z M L_z or L_z Diag(M) L_z, or of O(d^2) products.  Each sum a weighted pattern
    reads is accumulated over chunks of clients whose stacks fit :data:`CHUNK_BYTES`,
    and the weights are applied once, after the last chunk."""
    d = M.shape[0]
    dM = np.diag(M)
    forms = {  # pattern: (the client sum it reads, R_s from that sum or None for the sum itself)
        (0, 0, 0, 0): ("dd", lambda s: dM * s),
        (0, 0, 0, 1): ("dX", lambda s: dM[:, None] * s),
        (0, 0, 1, 0): ("dh", None),
        (0, 0, 1, 1): ("dXdX", lambda s: M * s),
        (0, 0, 1, 2): ("dB", None),
        (0, 1, 0, 0): ("dh", None),
        (0, 1, 0, 1): ("H", lambda s: M * s),
        (0, 1, 0, 2): ("hX", None),
        (0, 1, 1, 0): ("H", lambda s: s @ dM),
        (0, 1, 1, 1): ("dX", lambda s: (dM[:, None] * s).T),  # a transposed R_s is another's
        (0, 1, 1, 2): ("XDX", None),
        (0, 1, 2, 0): ("BX", None),
        (0, 1, 2, 1): ("hX", np.transpose),
        (0, 1, 2, 2): ("dB", np.transpose),
        (0, 1, 2, 3): ("BtX", None),
    }
    sums: dict = dict.fromkeys(forms[s][0] for s in weights)
    chunk = max(1, CHUNK_BYTES // (8 * d * d))
    for z0 in range(0, len(L), chunk):
        X = L[z0:z0 + chunk]
        dX, flat = np.diagonal(X, axis1=1, axis2=2), X.reshape(-1, d)
        products, made = {  # each formed on first use; no closure cycle keeps them alive
            "hX": lambda: np.einsum("zab,ab->za", X, M),  # diag(L_z M)
            "B": lambda: np.matmul(M, X),  # B_z^T = L_z M
        }, {}
        get = lambda k: made[k] if k in made else made.setdefault(k, products[k]())  # noqa: E731
        terms = {
            "dd": lambda: np.einsum("za,za->a", dX, dX),
            "dX": lambda: np.einsum("za,zab->ab", dX, X),
            "dh": lambda: np.einsum("za,za->a", dX, get("hX")),
            "dXdX": lambda: dX.T @ dX,
            "dB": lambda: np.einsum("za,zab->ab", dX, get("B")),
            "H": lambda: np.einsum("zab,zab->ab", X, X),
            "hX": lambda: np.einsum("za,zab->ab", get("hX"), X),
            "XDX": lambda: (dM[:, None] * X).reshape(-1, d).T @ flat,
            "BX": lambda: np.einsum("zca,zca->a", get("B"), X),
            "BtX": lambda: get("B").reshape(-1, d).T @ flat,
        }
        for key, acc in sums.items():
            sums[key] = terms[key]() if acc is None else np.add(acc, terms[key](), out=acc)
    out, diag = np.zeros((d, d)), np.zeros(d)
    for s, w in weights.items():
        key, form = forms[s]
        r = sums[key] if form is None else form(sums[key])
        (diag if r.ndim == 1 else out)[...] += w * r
    out.flat[:: d + 1] += diag
    return out


def _ratio(num: int, den: int) -> Fraction:
    """num / den, or 0 where den = 0: a pattern with more distinct coordinates
    than d never occurs, so its value is free."""
    return Fraction(num, den) if den else Fraction(0)


def _selection_moments(kind: SketchKind, p: QuadraticProblem,
                       second: bool = True) -> tuple[NDArray, NDArray | None]:
    """E[B] and, if ``second``, E[B L_bar B] (else None) for a family whose
    client i applies C_i = Diag(c_i), c_i = w m_i with m_i a random 0/1 keep
    mask, in O(n d^3).

    The kind's family gives ``weight2(kind, n, d)``, w^2, and ``keep(kind,
    n, d, sizes, disjoint)``, the probability that distinct clients keep
    sizes[t] given distinct coordinates each, ``disjoint`` telling whether
    no coordinate is given to two clients; both are exact fractions.  Then
    E[c_ia c_ib] = w^2 keep(k), k the distinct indices among (a, b), so
    E[B] = g1 Diag(L_bar) + g2 offdiag(L_bar).  Entry (a, b) of
    E[C_i L_i C_i L_bar C_j L_j C_j] weights each term of its sum over
    (c, e) by E[c_ia c_ic c_je c_jb], which depends only on the equality
    pattern of (a, c, e, b) and on whether i = j.  Its Mobius transform turns
    the sum into one over :data:`_PATTERNS` of restricted sums
    (:func:`_pattern_sums`).  A restricted sum is bilinear in (L_i, L_j), so
    the pairs i != j are all pairs, whose L_i and L_j sum to n L_bar (one
    "client" L_bar), less the pairs i = j (the clients).  The coefficients
    (:func:`_selection_weights`) depend only on the kind and the shape.
    """
    g1, g2, terms = _selection_weights(kind, p.n, p.d)
    L_bar = p.L_bar
    diag = np.diag(np.diag(L_bar))
    curv = g1 * diag
    if g2:
        curv = curv + g2 * (L_bar - diag)
    if not second:
        return curv, None
    over_mean = _pattern_sums(L_bar[None], L_bar, {s: w for s, w, _ in terms if w})
    return curv, over_mean + _pattern_sums(p.L, L_bar, {s: w for s, _, w in terms if w})


@functools.lru_cache(maxsize=64)
def _selection_weights(kind: SketchKind, n: int, d: int) -> tuple[float, float, tuple]:
    """The coefficients of :func:`_selection_moments` for ``kind`` on an (n, d)
    problem, each rounded once from an exact fraction: g1 and g2 of E[B],
    and for each pattern of E[B L_bar B] with a nonzero one, (pattern, its
    weight over L_bar for every pair of clients, its weight over the
    clients' own L_i for the pairs i = j, less the first)."""
    family = kind.family
    w2 = family.weight2(kind, n, d)
    g1, g2 = (float(w2 * family.keep(kind, n, d, (k,), True)) for k in (1, 2))

    def split(s):  # distinct coordinates of client i (a, c) and of client j (e, b)
        ac, eb = set(s[:2]), set(s[2:])
        return (len(ac), len(eb)), not ac & eb

    same = _mobius({s: w2 * w2 * family.keep(kind, n, d, (max(s) + 1,), True)
                    for s in _PATTERNS})
    cross = _mobius({s: w2 * w2 * family.keep(kind, n, d, *split(s)) for s in _PATTERNS})
    return g1, g2, tuple((s, float(cross[s]), float((same[s] - cross[s]) / (n * n)))
                         for s in _PATTERNS if cross[s] or same[s] != cross[s])


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class _Family:
    """Everything istlab knows about one sketch family.

    A family gives ``count(kind, n, d)``, the number of joint outcomes;
    ``draw_many(kind, p, rng, k)``, one sample stacking k rounds that are bit
    for bit k one-round draws and leave ``rng`` where those leave it; and
    ``chunks(kind, p, m)``, which yields the outcomes in order as chunks of at
    most m: their probabilities and (positions, sample) parts, each sample
    stacking the outcomes at those positions (Bernoulli: one part per width).
    ``params`` maps each parameter the family takes to whether it is
    required.  ``fixed_point`` and ``sigma2`` are None for a family without
    those quantities; where defined, they raise :class:`WrongKind` on
    problems they do not cover.
    """

    fixed_point = None
    sigma2 = None
    whole_model = False  # True where every C_i = I
    unit_curvature = False  # True where B = I on every draw: E[B] = I, E[B L_bar B] = L_bar

    def __init__(self, name: str, params: dict[str, bool] | None = None):
        self.name, self.params = name, params or {}

    def check(self, kind: SketchKind) -> None:
        """Reject a parameter the family does not take, and a missing or malformed one."""
        for name, value in (("q", kind.q), ("p", kind.p)):
            if value is not None and name not in self.params:
                raise IncompatibleShape(f"{self.name} takes no {name} parameter")
        if kind.q is not None or self.params.get("q"):
            integer(kind.q, IncompatibleShape, f"{self.name} requires an integer q >= 1", low=1)
        if kind.p is not None or self.params.get("p"):
            real(kind.p, IncompatibleShape, f"{self.name} requires a real 0 < p <= 1", above=0.0, at_most=1.0)

    def block_size(self, kind: SketchKind, n: int, d: int) -> int:
        """Coordinates per client; raises IncompatibleShape on a bad shape."""
        return d

    def check_problem(self, kind: SketchKind, p: QuadraticProblem) -> int:
        """Coordinates per client on ``p``; raises where the family cannot run on ``p``."""
        return self.block_size(kind, p.n, p.d)

    def round_bytes(self, kind: SketchKind, n: int, d: int, blocks: bool) -> int:
        """Bytes one round of a tape holds, with its (n, q, q) blocks L_i[S_i, S_i]
        where ``blocks``: for q coordinates per client, at most d x max(d, n q) floats."""
        return 8 * d * max(d, n * self.block_size(kind, n, d))

    def count_exceeds(self, kind: SketchKind, n: int, d: int, budget: int) -> bool:
        """True when the joint outcomes number more than ``budget``."""
        return self.count(kind, n, d) > budget

    def moments(self, kind: SketchKind, p: QuadraticProblem, second: bool = True) -> SketchMoments:
        """Closed-form expectations; E[B L_bar B] is left None unless ``second``."""
        raise NoClosedForm(f"no closed-form expectations for kind {self.name!r}")

    def client_means(self, kind: SketchKind, p: QuadraticProblem) -> list[NDArray] | None:
        """E[C_i] per client where known in closed form, else None."""
        self.block_size(kind, p.n, p.d)
        return [np.eye(p.d)] * p.n  # unbiased compressors


class _Identity(_Family):
    """identity: C_i = I for every client, consuming no randomness.  E[B] is
    L_bar, E[B L_bar B] is L_bar^3 and the mean linear term is b_bar."""

    whole_model = True

    def count(self, kind, n, d):
        return 1

    def draw_many(self, kind, p, rng, k):
        idx = np.broadcast_to(np.arange(p.d), (k, p.n, p.d))
        return SketchSample(kind, p.n, p.d, idx, np.broadcast_to(1.0, idx.shape))

    def chunks(self, kind, p, m):
        yield np.ones(1), [(slice(None), self.draw_many(kind, p, None, 1))]

    def moments(self, kind, p, second=True):
        L_bar = p.L_bar
        return SketchMoments(L_bar.copy(), L_bar @ L_bar @ L_bar if second else None,
                             p.b_bar.copy(), "closed_form")

    def sigma2(self, kind, p, n_samples=None, rng=None):
        return 0.0


class _Partition(_Family):
    """A uniform permutation cut into n runs of q; client i weights its run
    by sqrt(w2), with ``w2(n, d)`` an integer.

    perm_q  (d = q * n, w2 = n^2)
        Permutes [d]; (1/n) sum_i C_i = I holds for every realization.
    scaled_perm_homog  (d = q * n, w2 = n)
        The same partition with weight sqrt(n).
    perm_multiset  (n = q * d, w2 = d)
        Permutes the multiset {1..d, each q times}; client i holds pi_i.

    Client i's run is a uniform q-subset of [d], so
    E[B] = (w2 q/d) Diag(L_bar) + w2 q(q-1)/(d(d-1)) offdiag(L_bar), and
    E[C_i] and the mean linear term are I and b_bar divided by
    s = sqrt(d^2 / (w2 q^2)).  E[B L_bar B] is closed for perm_q and
    scaled_perm_homog at any q (:func:`_selection_moments`, the Perm-K
    moments of Szlendak, Tyurin & Richtarik, arXiv 2110.03300): k given
    coordinates all lie in one client's run with probability
    q^(k) / d^(k) (falling factorials), and two clients' runs are disjoint,
    so k1 coordinates lie in client i's run and k2 others in client j's with
    probability q^(k1) q^(k2) / d^(k1 + k2).  perm_multiset hands a
    coordinate to several clients, so its E[B L_bar B] is enumerated, except
    where B is the same on every realization (q = 1 on a homogeneous
    problem, any of these families), where it is E[B] L_bar E[B].
    """

    def __init__(self, name, w2=None, multiset=False, params=None):
        super().__init__(name, params)
        self.w2, self.multiset = w2, multiset

    def block_size(self, kind, n, d):
        if self.multiset:
            if n % d != 0:
                raise IncompatibleShape(f"{self.name} requires n = q*d, got n={n}, d={d}")
            return 1
        if d % n != 0:
            raise IncompatibleShape(f"{self.name} requires d = q*n, got n={n}, d={d}")
        q = d // n
        if kind.q is not None and kind.q != q:
            raise IncompatibleShape(f"configured q={kind.q} but d/n = {q}")
        return q

    def count(self, kind, n, d):
        return math.factorial(max(n, d))

    def count_exceeds(self, kind, n, d, budget):
        # builds 1 * 2 * ... only until it passes the budget: d! has 5736
        # digits at d = 2000
        total, k = 1, 1
        while total <= budget and k < max(n, d):
            k += 1
            total *= k
        return total > budget

    def draw_many(self, kind, p, rng, k):
        # permuted shuffles the rows in turn, each as rng.permutation shuffles [d]
        # (or the multiset), so row t is round t's permutation
        self.block_size(kind, p.n, p.d)
        base = np.arange(p.d) if p.n <= p.d else np.repeat(np.arange(p.d), p.n // p.d)
        return self._sample(kind, p, rng.permuted(np.tile(base, (k, 1)), axis=1))

    def chunks(self, kind, p, m):
        # Permuting the multiset yields each arrangement a uniform number
        # of times, so equal weights remain exact.
        n, d = p.n, p.d
        prob = 1.0 / self.count(kind, n, d)
        perms = itertools.permutations(np.repeat(np.arange(d), max(n // d, 1)).tolist())
        while block := list(itertools.islice(perms, m)):
            yield np.full(len(block), prob), [(slice(None), self._sample(kind, p, np.array(block)))]

    def _sample(self, kind, p, perms):
        """The stacked sample of the permutations ``perms``, one per row, each cut into n runs."""
        idx = perms.reshape(len(perms), p.n, perms.shape[-1] // p.n)
        return SketchSample(kind, p.n, p.d, idx, *self._factors(p, idx), perms)

    def _factors(self, p, idx):
        return np.full(idx.shape, math.sqrt(self.w2(p.n, p.d))), None

    def _scale(self, n, d, q):
        return math.sqrt(d * d / (self.w2(n, d) * q * q))

    def weight2(self, kind, n, d):
        return Fraction(self.w2(n, d))

    def keep(self, kind, n, d, sizes, disjoint):
        q = self.block_size(kind, n, d)
        if not disjoint:
            return Fraction(0)
        return _ratio(math.prod(math.perm(q, k) for k in sizes), math.perm(d, sum(sizes)))

    def moments(self, kind, p, second=True):
        n, d = p.n, p.d
        q = self.block_size(kind, n, d)
        fixed = q == 1 and p.homogeneous  # B is the same on every realization
        curv, curv2 = _selection_moments(kind, p, second and not (fixed or self.multiset))
        if second and fixed:
            curv2 = curv @ p.L_bar @ curv
        return SketchMoments(curv, curv2, p.b_bar / self._scale(n, d, q), "closed_form")

    def client_means(self, kind, p):
        q = self.block_size(kind, p.n, p.d)
        return [np.eye(p.d) / self._scale(p.n, p.d, q)] * p.n


class _ScaledPartition(_Partition):
    """A partition with w2 q = d: for q = 1, E[B] = Diag(L_bar), which is I
    on a preconditioned homogeneous problem.  The estimator is then
    deterministic and its mean update is x -> (1-gamma) x + gamma x_inf
    with x_inf the mean linear term."""

    def fixed_point(self, kind, p):
        if self.block_size(kind, p.n, p.d) > 1:
            # q > 1 keeps random within-block cross terms in the curvature,
            # so the mean update is no longer the scalar affine map
            raise WrongKind("closed-form fixed point needs one coordinate per client")
        _require_unit_diag(p, f"{kind.kind} fixed point")
        return p.b_bar / self._scale(p.n, p.d, 1)

    def sigma2(self, kind, p, n_samples=None, rng=None):
        q = self.block_size(kind, p.n, p.d)
        if not p.homogeneous:
            raise WrongKind(f"{self.name} variance formula requires a homogeneous problem")
        if q > 1:
            # the random within-block cross terms make the noise depend on x
            raise WrongKind(f"{self.name} is deterministic only for n = d")
        return 0.0


class _ScaledHet(_Partition):
    """scaled_perm_het  (d = q * n): client i applies
    sqrt(n) (L_i[S_i, S_i])^{-1/2} on its run, for q = 1 the weight
    sqrt(n / L_i[j, j]).  The per-round curvature B is then the identity on
    every realization (``unit_curvature``), so E[B L_bar B] = L_bar and the
    noise is the linear term's fluctuation alone.  The mean linear term is
    closed-form for q = 1 (or zero linear terms).  sigma2 is exact for q = 1 at any
    n = d, in O(n d^2) from pair probabilities (:func:`_pair_sigma2`); for
    q > 1 it is enumerated within the budget.
    """

    _factors = staticmethod(_het_factors)
    unit_curvature = True

    def check_problem(self, kind, p):
        q = self.block_size(kind, p.n, p.d)
        _require_positive_diagonal(p)
        return q

    def moments(self, kind, p, second=True):
        q = self.check_problem(kind, p)
        if q == 1:
            linear = fixed_point_het(p)
        elif p.interpolation:
            linear = np.zeros(p.d)
        else:
            linear = None  # block factors have no closed-form linear mean
        return SketchMoments(np.eye(p.d), p.L_bar.copy() if second else None, linear, "closed_form")

    def client_means(self, kind, p):
        if self.block_size(kind, p.n, p.d) > 1:
            return None
        return [np.diag(1.0 / np.sqrt(p.diag[i])) / np.sqrt(p.n) for i in range(p.n)]

    def fixed_point(self, kind, p):
        if self.block_size(kind, p.n, p.d) > 1 and not p.interpolation:
            raise WrongKind("closed-form fixed point needs one coordinate per client")
        return fixed_point_het(p)

    def sigma2(self, kind, p, n_samples=None, rng=None):
        """sigma2 by :func:`_expectation`: 0 under interpolation; else, without
        ``n_samples``, exact: :func:`_pair_sigma2` for q = 1, two passes over
        the outcomes for q > 1 (the mean, then the spread); else one shifted
        pass over ``n_samples`` draws of ``rng``."""
        q = self.block_size(kind, p.n, p.d)

        def exact():
            if q == 1:
                return _pair_sigma2(p)
            (mean,) = outcome_sums(kind, p, lambda s: (s.linear_term(p),))

            def spread(s):  # per outcome, the mat-vec and dot of the (d,) loop
                c = (s.linear_term(p) - mean)[..., None]
                return ((np.swapaxes(c, -1, -2) @ (p.L_bar @ c))[:, 0, 0],)

            return float(outcome_sums(kind, p, spread)[0])

        def sampled(draws):
            _, (var,) = _sample_stats(draws, lambda s: (s.linear_term(p),),
                                      lambda c: np.sum(c * (c @ p.L_bar), axis=-1))
            return float(var)

        return _expectation(kind, p, "sigma2", lambda: 0.0 if p.interpolation else None,
                            exact if n_samples is None else None, sampled, n_samples, rng)


class _Independent(_Family):
    """A family whose clients draw their keep masks independently, each
    keeping a coordinate with weight w and probability 1/w, so that
    E[C_i] = I and the mean linear term is b_bar.  E[B] and E[B L_bar B]
    are closed (:func:`_selection_moments`): for one client, E[c_ia c_ic
    c_je c_jb] is w^4 times the probability that it keeps the k distinct
    coordinates among them, and for two clients it factors, so the pairs
    i != j contribute M_i L_bar M_j with M_i = E[C_i L_i C_i] (the
    independent-client analogue of the Perm-K moments of Szlendak, Tyurin &
    Richtarik, arXiv 2110.03300)."""

    def moments(self, kind, p, second=True):
        self.block_size(kind, p.n, p.d)
        curv, curv2 = _selection_moments(kind, p, second)
        return SketchMoments(curv, curv2, p.b_bar.copy(), "closed_form")


class _RandQ(_Independent):
    """rand_q: each client independently keeps a uniform q-subset with
    weight d / q; k given coordinates are all kept with probability
    q^(k) / d^(k) (falling factorials), so E[B] = (d/q) Diag(L_bar) +
    d(q-1)/(q(d-1)) offdiag(L_bar)."""

    def block_size(self, kind, n, d):
        if kind.q > d:
            raise IncompatibleShape(f"rand_q with q={kind.q} exceeds d={d}")
        return kind.q

    def count(self, kind, n, d):
        return math.comb(d, kind.q) ** n

    def weight2(self, kind, n, d):
        return Fraction(d, kind.q) ** 2

    def keep(self, kind, n, d, sizes, disjoint):
        return math.prod(_ratio(math.perm(kind.q, k), math.perm(d, k)) for k in sizes)

    def draw_many(self, kind, p, rng, k):
        n, d = p.n, p.d
        self.block_size(kind, n, d)
        subsets = [rng.choice(d, size=kind.q, replace=False) for _ in range(k * n)]
        idx = np.sort(np.reshape(subsets, (k, n, kind.q)), axis=-1)
        return SketchSample(kind, n, d, idx, np.broadcast_to(d / kind.q, idx.shape))

    def chunks(self, kind, p, m):
        n, d = p.n, p.d
        count = self.count(kind, n, d)
        subsets = np.array(list(itertools.combinations(range(d), kind.q)))
        for t0 in range(0, count, m):
            # outcome t picks subset t // C^(n-1-i) mod C for client i
            t = np.arange(t0, min(t0 + m, count))[:, None]
            idx = subsets[t // len(subsets) ** np.arange(n - 1, -1, -1) % len(subsets)]
            s = SketchSample(kind, n, d, idx, np.broadcast_to(d / kind.q, idx.shape))
            yield np.full(len(t), 1.0 / count), [(slice(None), s)]


class _Bernoulli(_Independent):
    """bernoulli: each client independently keeps each coordinate with
    probability p and weight 1 / p; k given coordinates are all kept with
    probability p^k, so E[B] = Diag(L_bar) / p + offdiag(L_bar)."""

    def count(self, kind, n, d):
        return 2 ** (d * n)

    def weight2(self, kind, n, d):
        return 1 / Fraction(kind.p) ** 2

    def keep(self, kind, n, d, sizes, disjoint):
        return Fraction(kind.p) ** sum(sizes)

    def draw_many(self, kind, p, rng, k):
        # one (k, n, d) draw is the stream of k (n, d) draws
        return _from_mask(kind, rng.random((k, p.n, p.d)) < kind.p)

    def round_bytes(self, kind, n, d, blocks):
        # (n, d) uniforms, keep mask and sort indices; blocks of up to d kept coordinates
        return n * d * (17 + (8 * d if blocks else 0))

    def chunks(self, kind, p, m):
        # outcomes are NOT equiprobable; weight each client's mask by its
        # probability p^{kept} (1-p)^{dropped}, and multiply over clients.
        n, d = p.n, p.d
        kept_prob = np.array([(kind.p ** c) * ((1.0 - kind.p) ** (d - c)) for c in range(d + 1)])
        count = self.count(kind, n, d)
        for t0 in range(0, count, m):
            # the bits of outcome t, most significant first, are the n masks in turn
            t = np.arange(t0, min(t0 + m, count))[:, None]
            mask = (t >> np.arange(n * d - 1, -1, -1) & 1).astype(bool).reshape(-1, n, d)
            kept = mask.sum(axis=-1)
            prob = functools.reduce(np.multiply, kept_prob[kept].T)  # client by client
            live = prob != 0.0
            if not live.any():
                continue
            # one part per width: a sample is padded only to its own widest client
            yield prob[live], list(_from_mask(kind, mask[live]).parts())


#: Every sketch family by its config tag.
FAMILIES: dict[str, _Family] = {f.name: f for f in (
    _Identity("identity"),
    _Partition("perm_q", lambda n, d: n * n, params={"q": False}),
    _ScaledPartition("perm_multiset", lambda n, d: d, multiset=True),
    _ScaledPartition("scaled_perm_homog", lambda n, d: n),
    _ScaledHet("scaled_perm_het"),
    _RandQ("rand_q", params={"q": True}),
    _Bernoulli("bernoulli", params={"p": True}),
)}


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def resolve_block_size(kind: SketchKind, n: int, d: int) -> int:
    """Coordinates per client for ``kind`` on an (n, d) problem; raises
    :class:`IncompatibleShape` where the family's shape rule fails."""
    return kind.family.block_size(kind, n, d)


def sample(kind: SketchKind, p: QuadraticProblem, rng: np.random.Generator,
           rounds: int | None = None, stacked: bool = False) -> SketchSample | list[SketchSample]:
    """Draw one joint realization of ``kind`` for problem ``p``, or, given
    ``rounds``, the list of ``rounds`` realizations that as many one-draw
    calls return, bit for bit, leaving ``rng`` where they leave it; with
    ``stacked``, the one sample that stacks them (:meth:`SketchSample.rounds`).

    Permutations are Fisher-Yates shuffles, so every permutation-family
    realization is uniform.
    """
    # the dict, not the ``family`` property: this runs once per chunk of rounds;
    # the rounds are views of the family's one stacked draw
    stack = FAMILIES[kind.kind].draw_many(kind, p, rng, 1 if rounds is None else rounds)
    if stacked:
        return stack
    return stack.rounds()[0] if rounds is None else stack.rounds()


def enumerate_outcomes(kind: SketchKind, p: QuadraticProblem):
    """Yield (probability, SketchSample) over the entire joint outcome space.

    Probabilities sum to one exactly for the uniform families and up to
    float round-off for Bernoulli masks.  Each outcome is a round
    (:meth:`SketchSample.rounds`) of the chunks :func:`outcome_sums` evaluates whole.

    Raises
    ------
    TooLarge
        If the outcome count exceeds :data:`ENUMERATION_BUDGET`.
    """
    for prob, parts in _chunks(kind, p):
        samples = np.empty(len(prob), dtype=object)
        for pos, s in parts:
            samples[pos] = s.rounds()
        yield from zip(prob.tolist(), samples)


def _chunks(kind: SketchKind, p: QuadraticProblem):
    family, n, d = kind.family, p.n, p.d
    q = family.block_size(kind, n, d)
    if family.count_exceeds(kind, n, d, ENUMERATION_BUDGET):
        # the count itself is left out: n! can exceed Python's limit on the
        # digits an int may format
        raise TooLarge(
            f"{kind.kind} at n={n}, d={d} has more joint outcomes than the budget "
            f"{ENUMERATION_BUDGET}"
        )
    yield from family.chunks(kind, p, _chunk_len(n, d, q))


def _chunk_len(n: int, d: int, q: int) -> int:
    return max(1, CHUNK_BYTES // (8 * d * max(d, n * q)))


def _tape_len(kind: SketchKind, n: int, d: int, blocks: bool) -> int:
    """Rounds per tape chunk: as many as fit CHUNK_BYTES at the family's
    ``round_bytes``, with each round's (n, q, q) blocks where ``blocks``."""
    return max(1, CHUNK_BYTES // kind.family.round_bytes(kind, n, d, blocks))


def _draws(kind: SketchKind, p: QuadraticProblem, rng: np.random.Generator, n_samples: int):
    """The draws of ``n_samples`` :func:`sample` calls on ``rng``, in stream
    order, as chunks of the family's ``draw_many`` stacks at weight
    1 / n_samples (Bernoulli rows padded to the chunk's widest client with
    dropped coordinates at weight 0); rng ends where those calls leave it."""
    integer(n_samples, ValueError, "n_samples must be >= 1 and an integer", low=1)
    if rng is None:
        raise ValueError("Monte Carlo needs an rng")
    m = max(1, CHUNK_BYTES // (8 * p.d * p.d))
    for t0 in range(0, n_samples, m):
        k = min(m, n_samples - t0)
        yield np.full(k, 1.0 / n_samples), [(slice(None), kind.family.draw_many(kind, p, rng, k))]


def _sums(chunks, fn) -> list[NDArray]:
    """Sums of prob * v over the outcomes of ``chunks``, for each (k, ...) array
    v that ``fn`` returns for a chunk sample stacking k outcomes.  Terms are
    added one at a time in outcome order, so each sum is bitwise that of a
    loop over the outcomes, whatever the chunk size."""
    sums = None
    for prob, parts in chunks:
        values = None
        for pos, s in parts:
            out = fn(s)
            if values is None:
                values = [np.empty((len(prob),) + v.shape[1:]) for v in out]
            for v, o in zip(values, out):
                v[pos] = o
        sums = sums or [np.zeros(v.shape[1:]) for v in values]
        for acc, v in zip(sums, values):
            buf = np.empty((len(v) + 1,) + acc.shape)  # the running sum in row 0, then prob * v
            buf[0] = acc
            np.multiply(prob.reshape((-1,) + (1,) * acc.ndim), v, out=buf[1:])
            acc[...] = np.add.accumulate(buf, axis=0, out=buf)[-1]
    return sums


def outcome_sums(kind: SketchKind, p: QuadraticProblem, fn) -> list[NDArray]:
    """:func:`_sums` over every joint outcome: bitwise a loop over
    :func:`enumerate_outcomes`, whatever the chunk size."""
    return _sums(_chunks(kind, p), fn)


def _sample_stats(draws, fn, square=np.square):
    """Means over ``draws`` of each (k, ...) array v that ``fn`` returns, and
    the means of square(v - mean), ``square`` acting on (k, ...) stacks.  Both
    come from sums of v - v0 and square(v - v0), v0 the first draw's v: the
    shift keeps the spread from cancelling and gives exact zeros where v never
    moves (Chan, Golub & LeVeque, Amer. Stat. 37(3), 1983)."""
    first = []

    def terms(s):
        values = fn(s)
        if not first:
            first.extend(v[0].copy() for v in values)
        dev = [np.subtract(v, v0, out=v) for v, v0 in zip(values, first)]
        return dev + [square(e) for e in dev]

    sums = _sums(draws, terms)
    k = len(first)
    return ([v0 + s1 for v0, s1 in zip(first, sums[:k])],
            [s2 - square(s1[None])[0] for s1, s2 in zip(sums[:k], sums[k:])])


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
        E[B L_bar B]; None when no exact route produced it or it was not asked for.
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


def closed_moments(kind: SketchKind, p: QuadraticProblem, second: bool = True) -> SketchMoments:
    """Closed-form expectations of ``kind`` on ``p``.

    Each family's class documents its forms.  Every family has E[B] and the
    mean linear term (None for q > 1 scaled_perm_het on a problem with
    linear terms).  E[B L_bar B] is None for perm_multiset except where B is
    the same on every realization; rand_q, bernoulli, perm_q and
    scaled_perm_homog get it in O(n d^3) from :func:`_selection_moments`.
    It is left None, and not computed, when ``second`` is false.
    """
    return kind.family.moments(kind, p, second)


def enumerated_moments(kind: SketchKind, p: QuadraticProblem) -> SketchMoments:
    """Exact expectations by visiting every joint outcome.

    Chunks are evaluated stacked (:func:`outcome_sums`).  Independent of
    :func:`closed_moments`; used as the oracle in tests.
    """
    L_bar = p.L_bar

    def terms(s):
        B = s.curvature(p)
        return B, B @ L_bar @ B, s.linear_term(p), np.ones(len(B))

    curv, second, linear, total = outcome_sums(kind, p, terms)
    # Bernoulli probabilities accumulate float error ~1e-15; renormalize.
    return SketchMoments(curv / total, second / total, linear / total, method="enumeration")


def monte_carlo_moments(kind: SketchKind, p: QuadraticProblem, n_samples: int,
                        rng: np.random.Generator) -> SketchMoments:
    """Sample means of B and the linear term over ``n_samples`` draws, with
    elementwise standard errors sqrt(var / n_samples), var the population
    variance (:func:`_sample_stats`)."""
    (curv, linear), var = _sample_stats(
        _draws(kind, p, rng, n_samples), lambda s: (s.curvature(p), s.linear_term(p)))
    curv_se, linear_se = (np.sqrt(np.maximum(v, 0.0) / n_samples) for v in var)
    return SketchMoments(curv, None, linear, "monte_carlo", n_samples, curv_se, linear_se)


def _expectation(kind: SketchKind, p: QuadraticProblem, what: str, closed, exact,
                 sampled=None, n_samples: int | None = None, rng=None):
    """The one route policy: ``closed()`` unless it raises NoClosedForm or
    returns None, else ``exact()`` unless its enumeration raises TooLarge,
    else ``sampled(draws)`` over :func:`_draws` where ``n_samples`` is given.
    A route that is None is skipped; where none answers, raises NoExpectation."""
    try:
        value = closed()
    except NoClosedForm:
        value = None
    if value is None and exact is not None:
        try:
            value = exact()
        except TooLarge:
            pass
    if value is None and sampled is not None and n_samples is not None:
        value = sampled(_draws(kind, p, rng, n_samples))
    if value is None:
        raise NoExpectation(
            f"no exact route to {what} for sketch {kind.kind!r} at n={p.n}, d={p.d}")
    return value


def _moments(kind: SketchKind, p: QuadraticProblem, second: bool = False) -> SketchMoments:
    """E[B], and E[B L_bar B] if ``second``, by :func:`_expectation`."""

    def closed():
        m = closed_moments(kind, p, second)
        return None if second and m.curvature_second is None else m

    return _expectation(kind, p, "E[B L B]" if second else "E[B]", closed,
                        lambda: enumerated_moments(kind, p))
