"""Sketch operators: sampling, application, and exact expectations.

Every sketch used here selects coordinates: client ``i`` receives a
symmetric PSD matrix ``C_i`` supported on a coordinate set ``S_i`` of q
coordinates.  A joint realization is stored stacked over clients (see
:class:`SketchSample`): an (n, q) array of coordinates and the restriction
of each ``C_i`` to its coordinates.  That restriction is a weight vector,
because ``C_i`` is diagonal, for every kind except the heterogeneity-scaled
permutation sketch with q > 1, which stores dense q x q blocks.  Each
operation on a sample works on the whole stack at once.

Families
--------
Each family is one object in :data:`FAMILIES`, reached as
``SketchKind.family``, and its class docstring describes it.  The object
owns the parameter check, block-size rule, outcome count, sampling,
enumeration and whatever closed forms the family has: moments, E[C_i], the
fixed point and sigma2.  The module functions route to it, so a new family
is one class here and one entry in FAMILIES.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .errors import (
    DimMismatch,
    IncompatibleShape,
    NoClosedForm,
    NonPositiveDiagonal,
    SingularMatrix,
    TooLarge,
    WrongKind,
)
from .quadratics import QuadraticProblem

#: Maximum number of joint outcomes the exact enumerator will visit.
ENUMERATION_BUDGET = 1_000_000

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
        if not isinstance(doc, dict):
            raise IncompatibleShape(f"sketch must be an object, got {doc!r}")
        extra = set(doc) - {"kind", "q", "p"}
        if extra:
            raise IncompatibleShape(f"unknown sketch config keys {sorted(extra)}")
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
    zero; a zero weight marks padding and nothing else.

    ``coords[i]`` and ``weights[i]`` read client i's kept coordinates and
    their weights without padding; ``blocks`` is the block stack, or None
    for diagonal factors, in which case ``weights`` is not None.  ``local`` is
    the (n, q, q) stack L_i[S_i, S_i] where the draw gathered it, else None;
    so the methods that take a problem must get the one the sample was drawn
    for (``local_product`` and ``submodel_loss`` read ``local`` over ``p.L``).
    """

    kind: SketchKind
    n: int
    d: int
    idx: NDArray
    factors: NDArray
    local: NDArray | None = None
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

    def local_product(self, p: QuadraticProblem, x: NDArray) -> tuple[NDArray, NDArray]:
        """w_i = (C_i x)[S_i] and L_i[S_i, S_i] w_i for every client, (n, q, 1) each.

        ``p`` must be the problem the sample was drawn for: a stored ``local``
        stack is used in place of ``p.L``."""
        w = _times(self.factors, x[self.idx][..., None])
        local = _sub_blocks(p, self.idx) if self.local is None else self.local
        return w, local @ w

    def submodel_loss(self, p: QuadraticProblem, x: NDArray) -> float:
        """(1/n) sum_i f_i(C_i x): on the kept coordinates when q <= GATHER_MAX_FRACTION * d,
        otherwise with C_i x scattered to a dense vector and multiplied by all of L_i."""
        if self.idx.shape[1] <= GATHER_MAX_FRACTION * self.d:
            w, lw = self.local_product(p, x)
            return float(np.sum(w * (0.5 * lw - _rows(p.b, self.idx)[..., None]))) / self.n
        n, d = self.n, self.d
        w = _times(self.factors, x[self.idx][..., None])
        z = _accumulate(self.idx + _client_offsets(n, d), w, n * d).reshape(n, d)
        return float(np.sum(z * (0.5 * (p.L @ z[..., None])[..., 0] - p.b))) / n

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


def _require_unit_diag(p: QuadraticProblem, what: str) -> None:
    if not p.homogeneous:
        raise WrongKind(f"{what} requires a homogeneous problem")
    if np.abs(p.diag[0] - 1.0).max(initial=0.0) > UNIT_DIAG_TOL:
        raise WrongKind("problem must be diagonally preconditioned (unit diagonal)")


def _het_factors(p: QuadraticProblem, idx: NDArray) -> tuple[NDArray, NDArray]:
    """sqrt(n) (L_i[S_i, S_i])^{-1/2} (weights for q = 1, else blocks) and L_i[S_i, S_i]."""
    _require_positive_diagonal(p)
    local = _sub_blocks(p, idx)
    if idx.shape[1] == 1:
        return np.sqrt(p.n / local[..., 0]), local
    return math.sqrt(p.n) * linalg.spd_inv_sqrt(local), local


def fixed_point_het(p: QuadraticProblem) -> NDArray:
    """x_inf = (1/(n sqrt(n))) sum_i D_i^{-1/2} b_i: the mean linear term of
    the q = 1 scaled_perm_het sketch, defined on any (n, d)."""
    if np.any(p.diag <= 0.0):
        raise SingularMatrix("fixed point needs every [L_i]_jj > 0")
    return (p.b / np.sqrt(p.diag)).mean(axis=0) / math.sqrt(p.n)


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


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


#: Sketch parameters: the rule a value must meet, and its check (NaN fails
#: the comparisons, and inf the upper bound).
_PARAMS = {
    "q": ("an integer q >= 1",
          lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1),
    "p": ("a real 0 < p <= 1",
          lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v <= 1.0),
}


class _Family:
    """Everything istlab knows about one sketch family.

    A family gives ``count(kind, n, d)``, the number of joint outcomes;
    ``draw(kind, p, rng)``, one sample; and ``outcomes(kind, p)``, which
    yields (probability, sample) over every outcome.  ``params`` maps each
    parameter the family takes to whether it is required.  ``fixed_point``
    and ``sigma2`` are None for a family without those quantities; where
    defined, they raise :class:`WrongKind` on problems they do not cover.
    """

    fixed_point = None
    sigma2 = None
    whole_model = False  # True where every C_i = I

    def __init__(self, name: str, params: dict[str, bool] | None = None):
        self.name, self.params = name, params or {}

    def check(self, kind: SketchKind) -> None:
        """Reject a parameter the family does not take or of the wrong type."""
        for name, (rule, ok) in _PARAMS.items():
            value = getattr(kind, name)
            if value is None:
                if self.params.get(name):
                    raise IncompatibleShape(f"{self.name} requires {rule}")
            elif name not in self.params:
                raise IncompatibleShape(f"{self.name} takes no {name} parameter")
            elif not ok(value):
                raise IncompatibleShape(f"{self.name} requires {rule}, got {value!r}")

    def block_size(self, kind: SketchKind, n: int, d: int) -> int:
        """Coordinates per client; raises IncompatibleShape on a bad shape."""
        return d

    def moments(self, kind: SketchKind, p: QuadraticProblem) -> SketchMoments:
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

    def draw(self, kind, p, rng):
        n, d = p.n, p.d
        idx = np.broadcast_to(np.arange(d), (n, d))
        return SketchSample(kind, n, d, idx, np.broadcast_to(1.0, (n, d)))

    def outcomes(self, kind, p):
        yield 1.0, self.draw(kind, p, None)

    def moments(self, kind, p):
        L_bar = p.L_bar
        return SketchMoments(L_bar.copy(), L_bar @ L_bar @ L_bar, p.b_bar.copy(), "closed_form")

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
    s = sqrt(d^2 / (w2 q^2)).  E[B L_bar B] has a closed form only for
    q = 1 on a homogeneous problem, where B is the same on every
    realization, so it is E[B] L_bar E[B].
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

    def draw(self, kind, p, rng):
        n, d = p.n, p.d
        self.block_size(kind, n, d)
        # an int draws the permutation of [d] without building [d] first
        perm = rng.permutation(d if n <= d else np.repeat(np.arange(d), n // d))
        idx = perm.reshape(n, -1)
        return SketchSample(kind, n, d, idx, *self._factors(p, idx), permutation=perm)

    def outcomes(self, kind, p):
        # Permuting the multiset yields each arrangement a uniform number
        # of times, so equal weights remain exact.
        n, d = p.n, p.d
        prob = 1.0 / self.count(kind, n, d)
        for perm in itertools.permutations(np.repeat(np.arange(d), max(n // d, 1)).tolist()):
            perm = np.array(perm)
            idx = perm.reshape(n, -1)
            yield prob, SketchSample(kind, n, d, idx, *self._factors(p, idx), permutation=perm)

    def _factors(self, p, idx):
        return np.full(idx.shape, math.sqrt(self.w2(p.n, p.d))), None

    def _scale(self, n, d, q):
        return math.sqrt(d * d / (self.w2(n, d) * q * q))

    def moments(self, kind, p):
        n, d = p.n, p.d
        q = self.block_size(kind, n, d)
        w2 = self.w2(n, d)
        L_bar = p.L_bar
        diag = np.diag(np.diag(L_bar))
        curv = (w2 * q / d) * diag
        if q > 1:
            curv = curv + (w2 * q * (q - 1) / (d * (d - 1))) * (L_bar - diag)
        second = curv @ L_bar @ curv if q == 1 and p.homogeneous else None
        return SketchMoments(curv, second, p.b_bar / self._scale(n, d, q), "closed_form")

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
    every realization, so E[B L_bar B] = L_bar and the noise is the
    linear term's fluctuation alone.  The mean linear term is closed-form
    for q = 1 (or zero linear terms).
    """

    _factors = staticmethod(_het_factors)

    def moments(self, kind, p):
        q = self.block_size(kind, p.n, p.d)
        _require_positive_diagonal(p)
        if q == 1:
            linear = fixed_point_het(p)
        elif p.interpolation:
            linear = np.zeros(p.d)
        else:
            linear = None  # block factors have no closed-form linear mean
        return SketchMoments(np.eye(p.d), p.L_bar.copy(), linear, "closed_form")

    def client_means(self, kind, p):
        if self.block_size(kind, p.n, p.d) > 1:
            return None
        return [np.diag(1.0 / np.sqrt(p.diag[i])) / np.sqrt(p.n) for i in range(p.n)]

    def fixed_point(self, kind, p):
        if self.block_size(kind, p.n, p.d) > 1 and not p.interpolation:
            raise WrongKind("closed-form fixed point needs one coordinate per client")
        return fixed_point_het(p)

    def sigma2(self, kind, p, n_samples=None, rng=None):
        self.block_size(kind, p.n, p.d)
        if p.interpolation:
            return 0.0
        if n_samples is None:
            terms = [(prob, s.linear_term(p)) for prob, s in enumerate_outcomes(kind, p)]
            mean = sum(prob * v for prob, v in terms)
            return float(sum(prob * ((v - mean) @ (p.L_bar @ (v - mean))) for prob, v in terms))
        if rng is None:
            raise ValueError("Monte Carlo fallback requires an rng")
        draws = np.array([sample(kind, p, rng).linear_term(p) for _ in range(n_samples)])
        centered = draws - draws.mean(axis=0)
        return float(np.mean(np.einsum("td,dc,tc->t", centered, p.L_bar, centered)))


class _RandQ(_Family):
    """rand_q: each client independently keeps a uniform q-subset with
    weight d / q."""

    def block_size(self, kind, n, d):
        if kind.q > d:
            raise IncompatibleShape(f"rand_q with q={kind.q} exceeds d={d}")
        return kind.q

    def count(self, kind, n, d):
        return math.comb(d, kind.q) ** n

    def draw(self, kind, p, rng):
        n, d = p.n, p.d
        self.block_size(kind, n, d)
        idx = np.sort([rng.choice(d, size=kind.q, replace=False) for _ in range(n)], axis=1)
        return SketchSample(kind, n, d, idx, np.full(idx.shape, d / kind.q))

    def outcomes(self, kind, p):
        n, d = p.n, p.d
        weights = np.broadcast_to(d / kind.q, (n, kind.q))  # read-only, shared by every outcome
        prob = 1.0 / self.count(kind, n, d)
        subsets = list(itertools.combinations(range(d), kind.q))
        for joint in itertools.product(subsets, repeat=n):
            yield prob, SketchSample(kind, n, d, np.array(joint), weights)


class _Bernoulli(_Family):
    """bernoulli: each client independently keeps each coordinate with
    probability p and weight 1 / p."""

    def count(self, kind, n, d):
        return 2 ** (d * n)

    def draw(self, kind, p, rng):
        # one (n, d) draw is the stream of n draws of length d
        return _from_mask(kind, rng.random((p.n, p.d)) < kind.p)

    def outcomes(self, kind, p):
        # outcomes are NOT equiprobable; weight each mask by its
        # probability p^{kept} (1-p)^{dropped}.
        d = p.d
        masks = list(itertools.product((0, 1), repeat=d))
        mask_prob = {
            m: (kind.p ** sum(m)) * ((1.0 - kind.p) ** (d - sum(m))) for m in masks
        }
        for joint in itertools.product(masks, repeat=p.n):
            prob = math.prod(mask_prob[m] for m in joint)
            if prob != 0.0:
                yield prob, _from_mask(kind, np.array(joint, dtype=bool))


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


def sample(kind: SketchKind, p: QuadraticProblem, rng: np.random.Generator) -> SketchSample:
    """Draw one joint realization of ``kind`` for problem ``p``.

    Permutations are drawn with ``rng.permutation`` (Fisher-Yates), so every
    permutation-family realization is uniform.
    """
    # the dict, not the ``family`` property: this runs once per simulated round
    return FAMILIES[kind.kind].draw(kind, p, rng)


def enumerate_outcomes(kind: SketchKind, p: QuadraticProblem):
    """Yield (probability, SketchSample) over the entire joint outcome space.

    Probabilities sum to one exactly for the uniform families and up to
    float round-off for Bernoulli masks.

    Raises
    ------
    TooLarge
        If the outcome count exceeds :data:`ENUMERATION_BUDGET`.
    """
    family, n, d = kind.family, p.n, p.d
    family.block_size(kind, n, d)
    if family.count(kind, n, d) > ENUMERATION_BUDGET:
        # the count itself is left out: n! can exceed Python's limit on the
        # digits an int may format
        raise TooLarge(
            f"{kind.kind} at n={n}, d={d} has more joint outcomes than the budget "
            f"{ENUMERATION_BUDGET}"
        )
    yield from family.outcomes(kind, p)


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


def closed_moments(kind: SketchKind, p: QuadraticProblem) -> SketchMoments:
    """Closed-form expectations where the sketch family admits them.

    Each family's class documents its forms.  Raises :class:`NoClosedForm`
    for rand_q / bernoulli.
    """
    return kind.family.moments(kind, p)


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
