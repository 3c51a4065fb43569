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

from . import linalg, sketches
from .errors import DimMismatch, IncompatibleShape, WrongKind
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


# x is (..., d), iterates on one round's draw (a sweep's lanes), or one iterate on
# a stack of outcomes; each row's products are the one-vector ones, bitwise
def _ist_gradient(p: QuadraticProblem, s: SketchSample, x: NDArray) -> NDArray:
    w = s.times(x.take(s.idx, axis=-1)[..., None])
    t = s.local_blocks(p) @ w - s.local_rhs(p)
    return sketches._accumulate(s.idx, s.times(t)[..., 0], p.d) / p.n


def _cgd_gradient(p: QuadraticProblem, s: SketchSample, x: NDArray) -> NDArray:
    t = sketches._rows(p.L, s.idx) @ x[..., None, :, None] - s.local_rhs(p)
    return sketches._accumulate(s.idx, s.times(t)[..., 0], p.d) / p.n


def estimate(
    est: EstimatorKind,
    p: QuadraticProblem,
    x: NDArray,
    rng: np.random.Generator | None,
    sample: SketchSample | None = None,
) -> tuple[NDArray, SketchSample | None]:
    """One gradient estimate; returns the joint sketch sample used (if any).

    ``x`` is one iterate (d,) or a stack (..., d) of them, all estimated with
    the same draw: a sweep steps every live step size of a round in one call.
    Each row of the result is bitwise the estimate at that row alone.  A given
    ``sample`` is used instead of a fresh draw from ``rng``.  The identity
    sketch consumes no randomness and collapses to the exact mean gradient,
    so ``ist`` with an identity sketch reproduces ``dgd`` bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (p.d,):
        raise DimMismatch(f"expected iterates of length {p.d}, got shape {x.shape}")
    if est.kind == "dgd":
        return linalg.mat_rows(p.L_bar, x) - p.b_bar, None
    if sample is None:
        sample = sketches.sample(est.sketch, p, rng)
    if est.sketch.family.whole_model:
        return linalg.mat_rows(p.L_bar, x) - p.b_bar, sample
    if est.kind == "ist":
        return _ist_gradient(p, sample, x), sample
    return _cgd_gradient(p, sample, x), sample


def expected_estimate(est: EstimatorKind, p: QuadraticProblem, x: NDArray) -> NDArray:
    """Exact E[g] at a fixed point ``x``.

    Closed forms are used where the sketch family admits them; otherwise the
    joint outcome space is enumerated.  Raises :class:`NoExpectation` (a
    :class:`NoClosedForm`) when neither route is feasible.
    """
    x = np.asarray(x, dtype=np.float64)
    if est.kind == "dgd":
        return p.grad(x)
    sketch = est.sketch

    def closed():
        if est.kind == "cgd":
            means = sketch.family.client_means(sketch, p)
            if means is None:
                return None
            acc = np.zeros(p.d)
            for i in range(p.n):
                acc += means[i] @ (p.L[i] @ x - p.b[i])
            return acc / p.n
        m = sketches.closed_moments(sketch, p, second=False)
        return None if m.linear is None else m.curvature @ x - m.linear

    return sketches._expectation(sketch, p, f"the mean of {est.kind}", closed,
                                 lambda: _enumerated_mean(est, p, x))


def _enumerated_mean(est: EstimatorKind, p: QuadraticProblem, x: NDArray) -> NDArray:
    gradient = _ist_gradient if est.kind == "ist" else _cgd_gradient
    return sketches.outcome_sums(est.sketch, p, lambda s: (gradient(p, s, x),))[0]


def heterogeneity_variance(
    p: QuadraticProblem,
    est: EstimatorKind,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Second moment E ||g - E g||^2_{L_bar} of the estimator noise.

    Defined by the sketch families whose per-round curvature is
    deterministic, so the noise g - E[g] is the linear-term fluctuation and
    does not depend on x.  It is exact (in O(n d^2) for q = 1
    scaled_perm_het, else by enumeration where needed) unless ``n_samples``
    draws from ``rng`` ask for a Monte Carlo estimate.
    """
    if est.kind != "ist" or est.sketch is None:
        raise WrongKind("heterogeneity variance is defined for ist estimators")
    family = est.sketch.family
    if family.sigma2 is None:
        raise WrongKind(f"heterogeneity variance not defined for sketch {est.sketch.kind!r}")
    return family.sigma2(est.sketch, p, n_samples, rng)
