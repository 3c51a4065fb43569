"""The exact enumeration oracle: the outcome sequence and its consumers.

``enumerate_outcomes`` is pinned outcome by outcome: a digest of every
(probability, idx, factors, permutation) it yields, in order, for each
family at a small shape.  The consumers that evaluate outcomes in stacked
chunks must equal, bit for bit, a loop over single outcomes at any chunk
size, and their memory must stay bounded by the chunk budget.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from istlab import estimators, sketches
from istlab.estimators import EstimatorKind
from istlab.quadratics import gen_heterogeneous
from istlab.sketches import SketchKind

# label: (kind, n, d, outcome count, digest of the yielded sequence)
OUTCOME_PINS = {
    "identity": (SketchKind.identity(), 2, 3, 1, "5068fcad1e3b39da"),
    "perm_q": (SketchKind.perm_q(), 3, 3, 6, "1e504395a488ac9d"),
    "perm_q2": (SketchKind.perm_q(2), 2, 4, 24, "7e731176857f6b3e"),
    "perm_multiset": (SketchKind.perm_multiset(), 4, 2, 24, "89c0b3495509f083"),
    "scaled_perm_homog": (SketchKind.scaled_perm_homog(), 2, 4, 24, "bd97711861728fe3"),
    "scaled_perm_het": (SketchKind.scaled_perm_het(), 3, 3, 6, "b181abfe86aaf380"),
    "scaled_perm_het_q2": (SketchKind.scaled_perm_het(), 2, 4, 24, "011b898a30e794d3"),
    "rand_q": (SketchKind.rand_q(2), 2, 3, 9, "29f35e6225c24fad"),
    "bernoulli": (SketchKind.bernoulli(0.5), 2, 3, 64, "2abf7bb0937361e2"),
    "bernoulli1": (SketchKind.bernoulli(1.0), 2, 2, 1, "ab2b974396835ea8"),
}


def outcome_digest(kind, p):
    """(count, digest) of every outcome enumerate_outcomes yields, in order."""
    sha = hashlib.sha256()
    count = 0
    for prob, s in sketches.enumerate_outcomes(kind, p):
        sha.update(float(prob).hex().encode())
        for a in (s.idx, s.factors, s.permutation):
            if a is None:
                sha.update(b"N")
                continue
            a = np.ascontiguousarray(a)
            sha.update(f"{a.dtype.str}{a.shape}".encode())
            sha.update(a.tobytes())
        count += 1
    return count, sha.hexdigest()[:16]


@pytest.mark.parametrize("label", OUTCOME_PINS)
def test_outcome_sequence_is_pinned(label):
    kind, n, d, count, digest = OUTCOME_PINS[label]
    p = gen_heterogeneous(n, d, seed=60 + n + d)
    assert outcome_digest(kind, p) == (count, digest)


# label: (kind, n, d); every family, with several chunks' worth of outcomes
# where the family has them
CASES = {
    "identity": (SketchKind.identity(), 2, 3),
    "perm_q": (SketchKind.perm_q(), 4, 4),
    "perm_multiset": (SketchKind.perm_multiset(), 4, 2),
    "scaled_perm_homog": (SketchKind.scaled_perm_homog(), 2, 4),
    "scaled_perm_het": (SketchKind.scaled_perm_het(), 4, 4),
    "scaled_perm_het_q2": (SketchKind.scaled_perm_het(), 2, 4),
    "rand_q": (SketchKind.rand_q(2), 2, 4),
    "bernoulli": (SketchKind.bernoulli(0.5), 2, 3),
    "bernoulli1": (SketchKind.bernoulli(1.0), 2, 2),
}


def test_cases_cover_every_family():
    assert {kind.kind for kind, _, _ in CASES.values()} == set(sketches.FAMILIES)


@pytest.fixture(params=[1, 7, None], ids=["chunk1", "chunk7", "default"])
def chunk(request, monkeypatch):
    """Outcomes per enumeration chunk: 1, 7 or the memory-budget default."""
    if request.param is not None:
        monkeypatch.setattr(sketches, "_chunk_len", lambda n, d, q: request.param)


def _problem(label):
    kind, n, d = CASES[label]
    return kind, gen_heterogeneous(n, d, seed=70 + n + d)


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def reference_moments(kind, p):
    """enumerated_moments as a loop over single outcomes."""
    curv, second, linear, total = np.zeros((p.d, p.d)), np.zeros((p.d, p.d)), np.zeros(p.d), 0.0
    for prob, s in sketches.enumerate_outcomes(kind, p):
        B = s.curvature(p)
        curv += prob * B
        second += prob * (B @ p.L_bar @ B)
        linear += prob * s.linear_term(p)
        total += prob
    return curv / total, second / total, linear / total


def _gradient(est):
    return estimators._ist_gradient if est.kind == "ist" else estimators._cgd_gradient


def reference_mean(est, p, x):
    """The enumerated E[g] as a loop over single outcomes."""
    acc = np.zeros(p.d)
    for prob, s in sketches.enumerate_outcomes(est.sketch, p):
        acc += prob * _gradient(est)(p, s, x)
    return acc


@pytest.mark.parametrize("label", CASES)
def test_enumerated_moments_bitwise_equal_outcome_loop(label, chunk):
    kind, p = _problem(label)
    want = reference_moments(kind, p)
    got = sketches.enumerated_moments(kind, p)
    assert [_bits(a) for a in (got.curvature, got.curvature_second, got.linear)] == [
        _bits(a) for a in want
    ]


@pytest.mark.parametrize("label", CASES)
@pytest.mark.parametrize("name", ["ist", "cgd"])
def test_enumerated_mean_bitwise_equal_outcome_loop(label, name, chunk):
    kind, p = _problem(label)
    est = EstimatorKind(name, kind)
    x = np.random.default_rng(3).standard_normal(p.d)
    (got,) = sketches.outcome_sums(kind, p, lambda s: (_gradient(est)(p, s, x),))
    assert _bits(got) == _bits(reference_mean(est, p, x))


def reference_sigma2(kind, p):
    """The two-pass sigma2 as a loop over single outcomes."""
    terms = [(prob, s.linear_term(p)) for prob, s in sketches.enumerate_outcomes(kind, p)]
    mean = sum(prob * v for prob, v in terms)
    return float(sum(prob * ((v - mean) @ (p.L_bar @ (v - mean))) for prob, v in terms))


@pytest.mark.parametrize("label", ["scaled_perm_het", "scaled_perm_het_q2"])
def test_heterogeneity_variance_enumerates_nothing(label, monkeypatch):
    """sigma2 is the pair-probability form at q = 1 and the subset sums at
    q > 1: no outcome is visited, and it matches the outcome loop to 1e-12
    relative."""
    kind, p = _problem(label)
    want = reference_sigma2(kind, p)

    def no_chunks(*args):
        raise AssertionError("sigma2 enumerated its outcomes")

    monkeypatch.setattr(sketches, "_chunks", no_chunks)
    got = estimators.heterogeneity_variance(p, EstimatorKind.ist(kind))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_enumerated_moments_memory_is_bounded():
    """40320 outcomes of perm_q at n = d = 8 are never held at once."""
    p = gen_heterogeneous(8, 8, seed=1)
    p.L_bar  # cached before tracing
    tracemalloc.start()
    try:
        sketches.enumerated_moments(SketchKind.perm_q(), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
