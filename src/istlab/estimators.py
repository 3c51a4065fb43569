"""Gradient estimators for the sketched distributed step.

Three estimators are provided:

ist
    Each client computes its local gradient at the sketched submodel and
    sketches the result with the same matrix:
    g = (1/n) sum_i C_i (L_i C_i x - b_i).
dgd
    Exact distributed gradient descent, g = L_bar x - b_bar.
cgd
    Compressed gradient descent: the local gradient is taken at the full
    model and only the message is sketched, g = (1/n) sum_i C_i (L_i x - b_i).

Workers are exact (no minibatch noise) and take a single step per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import sketches
from .errors import (
    IncompatibleShape,
    NoClosedForm,
    TooLarge,
    WrongKind,
)
from .quadratics import QuadraticProblem
from .sketches import SketchKind, SketchSample

ESTIMATORS = ("ist", "dgd", "cgd")


@dataclass(frozen=True)
class EstimatorKind:
    kind: str
    sketch: SketchKind | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATORS:
            raise IncompatibleShape(f"unknown estimator kind {self.kind!r}")
        if self.kind == "dgd":
            if self.sketch is not None:
                raise IncompatibleShape("dgd takes no sketch")
        elif self.sketch is None:
            raise IncompatibleShape(f"{self.kind} requires a sketch kind")

    @classmethod
    def ist(cls, sketch: SketchKind) -> "EstimatorKind":
        return cls("ist", sketch)

    @classmethod
    def dgd(cls) -> "EstimatorKind":
        return cls("dgd")

    @classmethod
    def cgd(cls, sketch: SketchKind) -> "EstimatorKind":
        return cls("cgd", sketch)

    @classmethod
    def from_config(cls, name: str, sketch_doc: dict | None) -> "EstimatorKind":
        sk = SketchKind.from_config(sketch_doc) if sketch_doc is not None else None
        return cls(name, sk)


def _ist_gradient(p: QuadraticProblem, s: SketchSample, x: NDArray) -> NDArray:
    wx = sketches._times(s.factors, x[s.idx][..., None])
    t = sketches._sub_blocks(p, s.idx) @ wx - sketches._rows(p.b, s.idx)[..., None]
    return sketches._accumulate(s.idx, sketches._times(s.factors, t), p.d) / p.n


def _cgd_gradient(p: QuadraticProblem, s: SketchSample, x: NDArray) -> NDArray:
    local = sketches._rows(p.L, s.idx) @ x - sketches._rows(p.b, s.idx)
    return sketches._accumulate(s.idx, sketches._times(s.factors, local[..., None]), p.d) / p.n


def estimate(
    est: EstimatorKind,
    p: QuadraticProblem,
    x: NDArray,
    rng: np.random.Generator | None,
    sample: SketchSample | None = None,
) -> tuple[NDArray, SketchSample | None]:
    """One gradient estimate; returns the joint sketch sample used (if any).

    A given ``sample`` is used instead of a fresh draw from ``rng``, so
    several iterates can be estimated with one round's draw.  The identity
    sketch consumes no randomness and collapses to the exact mean gradient,
    so ``ist`` with an identity sketch reproduces ``dgd`` bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if est.kind == "dgd":
        return p.grad(x), None
    if sample is None:
        sample = sketches.sample(est.sketch, p, rng)
    if est.sketch.kind == "identity":
        return p.grad(x), sample
    if est.kind == "ist":
        return _ist_gradient(p, sample, x), sample
    return _cgd_gradient(p, sample, x), sample


def _mean_client_sketches(est: EstimatorKind, p: QuadraticProblem) -> list[NDArray] | None:
    """E[C_i] per client where known in closed form, else None."""
    k = est.sketch
    q = sketches.resolve_block_size(k, p.n, p.d)
    if k.kind in ("identity", "perm_q", "rand_q", "bernoulli"):
        return [np.eye(p.d)] * p.n  # unbiased compressors
    if k.kind == "scaled_perm_homog":
        return [np.eye(p.d) / np.sqrt(p.n)] * p.n
    if k.kind == "perm_multiset":
        return [np.eye(p.d) / np.sqrt(p.d)] * p.n
    if k.kind == "scaled_perm_het" and q == 1:
        return [np.diag(1.0 / np.sqrt(p.diag[i])) / np.sqrt(p.n) for i in range(p.n)]
    return None


def expected_estimate(est: EstimatorKind, p: QuadraticProblem, x: NDArray) -> NDArray:
    """Exact E[g] at a fixed point ``x``.

    Closed forms are used where the sketch family admits them; otherwise the
    joint outcome space is enumerated.  Raises :class:`NoClosedForm` when
    neither route is feasible.
    """
    x = np.asarray(x, dtype=np.float64)
    if est.kind == "dgd":
        return p.grad(x)
    if est.kind == "cgd":
        means = _mean_client_sketches(est, p)
        if means is not None:
            acc = np.zeros(p.d)
            for i in range(p.n):
                acc += means[i] @ (p.L[i] @ x - p.b[i])
            return acc / p.n
        return _enumerated_mean(est, p, x)
    # ist
    try:
        m = sketches.closed_moments(est.sketch, p)
        if m.linear is not None:
            return m.curvature @ x - m.linear
    except NoClosedForm:
        pass
    return _enumerated_mean(est, p, x)


def _enumerated_mean(est: EstimatorKind, p: QuadraticProblem, x: NDArray) -> NDArray:
    try:
        outcomes = sketches.enumerate_outcomes(est.sketch, p)
        acc = np.zeros(p.d)
        for prob, s in outcomes:
            if est.kind == "ist":
                acc += prob * _ist_gradient(p, s, x)
            else:
                acc += prob * _cgd_gradient(p, s, x)
        return acc
    except TooLarge as exc:
        raise NoClosedForm(
            f"no closed-form mean for {est.kind}/{est.sketch.kind} and enumeration infeasible"
        ) from exc


def heterogeneity_variance(
    p: QuadraticProblem,
    est: EstimatorKind,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Second moment E ||g - E g||^2_{L_bar} of the estimator noise.

    Defined for the scaled permutation estimators, whose per-round curvature
    is deterministic, so the noise g - E[g] reduces to the linear-term
    fluctuation and is independent of the query point x.

    For the scaled heterogeneous kind the value is computed exactly by
    enumeration when feasible; pass ``n_samples`` (and ``rng``) to fall back
    to a Monte Carlo estimate instead.  The scaled homogeneous families on a
    homogeneous problem are deterministic, hence 0.
    """
    if est.kind != "ist" or est.sketch is None:
        raise WrongKind("heterogeneity variance is defined for ist estimators")
    k = est.sketch
    if k.kind == "identity":
        return 0.0
    if k.kind in ("scaled_perm_homog", "perm_multiset"):
        if not p.homogeneous:
            raise WrongKind(f"{k.kind} variance formula requires a homogeneous problem")
        if k.kind == "scaled_perm_homog" and p.d != p.n:
            # with several coordinates per client the sketched curvature keeps
            # random within-block cross terms; the estimator is not
            # deterministic and its noise depends on x
            raise WrongKind("scaled_perm_homog is deterministic only for n = d")
        return 0.0
    if k.kind != "scaled_perm_het":
        raise WrongKind(f"heterogeneity variance not defined for sketch {k.kind!r}")
    if p.interpolation:
        return 0.0
    if n_samples is None:
        outcomes = sketches.enumerate_outcomes(k, p)
        terms: list[tuple[float, NDArray]] = []
        mean = np.zeros(p.d)
        for prob, s in outcomes:
            v = s.linear_term(p)
            terms.append((prob, v))
            mean += prob * v
        return float(sum(prob * ((v - mean) @ (p.L_bar @ (v - mean))) for prob, v in terms))
    if rng is None:
        raise ValueError("Monte Carlo fallback requires an rng")
    draws = np.empty((n_samples, p.d))
    for t in range(n_samples):
        draws[t] = sketches.sample(k, p, rng).linear_term(p)
    centered = draws - draws.mean(axis=0)
    return float(np.mean(np.einsum("td,dc,tc->t", centered, p.L_bar, centered)))
