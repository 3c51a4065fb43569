"""Every registered sketch family's closed forms against the enumeration oracle.

The test walks ``sketches.FAMILIES``: a family is covered by registering it.
For each one, ``hypothesis`` (derandomized, so every run sees the same
problems) picks small problems the family can sample and whose outcome
space is small enough to enumerate; a fixed list adds the cases the
equality-pattern second moments must get right (partitions with q >= 2,
bernoulli at p = 0.3, 0.5 and 1, rand_q at q = d, raw asymmetric L_i).
Every closed form the family provides must match enumeration to 1e-12
relative: its moments, E[C_i], the fixed point and sigma2.  Past the
enumeration budget, the closed E[B], mean linear term and E[B L_bar B] are
checked against Monte Carlo.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istlab import sketches
from istlab.errors import IncompatibleShape, NoClosedForm, SingularMatrix, WrongKind
from istlab.estimators import EstimatorKind, heterogeneity_variance
from istlab.quadratics import QuadraticProblem, gen_heterogeneous, gen_homogeneous, precondition_homogeneous
from istlab.sketches import FAMILIES, SketchKind

#: Largest outcome space a case may enumerate; keeps the matrix fast.
MAX_OUTCOMES = 720
RTOL = 1e-12


def _feasible(kind, n, d):
    try:
        sketches.resolve_block_size(kind, n, d)
    except IncompatibleShape:
        return False
    return kind.family.count(kind, n, d) <= MAX_OUTCOMES


@st.composite
def cases(draw, name):
    """A sketch kind of family ``name`` and a small problem it can sample."""
    params = FAMILIES[name].params
    kind = SketchKind(
        name,
        q=draw(st.integers(1, 3)) if params.get("q") else None,
        p=draw(st.sampled_from([0.3, 0.5, 1.0])) if params.get("p") else None,
    )
    shapes = [(n, d) for n in range(1, 5) for d in range(1, 7) if _feasible(kind, n, d)]
    n, d = draw(st.sampled_from(shapes))
    mode = draw(st.sampled_from(["het", "hom", "interp"]))
    return kind, _problem(mode, n, d, draw(st.integers(0, 10_000)))


def _problem(mode, n, d, seed):
    if mode == "hom":
        return precondition_homogeneous(gen_homogeneous(n, d, seed))[0]
    p = gen_heterogeneous(n, d, seed)
    if mode == "asym":  # the raw constructor symmetrizes an L_i that is off by 0.5 in one entry
        L = np.array(p.L)
        L[0, 0, 1] += 0.5
        return QuadraticProblem(L=L, b=p.b)
    return p.as_interpolation() if mode == "interp" else p


def assert_close(got, want, scale=None):
    """``got`` matches ``want`` to RTOL relative to ``scale``, by default
    their largest entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if scale is None:
        scale = max(np.abs(want).max(initial=0.0), np.abs(got).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= RTOL * scale


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=12)
@given(data=st.data())
def test_closed_forms_match_enumeration(name, data):
    check_against_enumeration(*data.draw(cases(name)))


# (kind, mode, n, d): second moments of partitions with q >= 2, bernoulli at
# each p the strategy draws, rand_q keeping every coordinate, and raw
# asymmetric input, whose second moment assumed symmetric L_i before the
# constructor symmetrized it
FIXED_CASES = [
    (SketchKind.perm_q(), "het", 2, 4), (SketchKind.perm_q(), "het", 2, 6),
    (SketchKind.perm_q(3), "hom", 2, 6), (SketchKind.perm_q(), "het", 3, 6),
    (SketchKind.scaled_perm_homog(), "het", 2, 4), (SketchKind.scaled_perm_homog(), "hom", 2, 4),
    (SketchKind.scaled_perm_homog(), "het", 1, 3),
    (SketchKind.bernoulli(0.3), "het", 2, 3), (SketchKind.bernoulli(0.5), "het", 3, 2),
    (SketchKind.bernoulli(1.0), "het", 2, 3), (SketchKind.bernoulli(0.3), "hom", 2, 2),
    (SketchKind.rand_q(3), "het", 2, 3), (SketchKind.rand_q(2), "het", 3, 2),
    (SketchKind.rand_q(1), "het", 4, 1), (SketchKind.rand_q(2), "hom", 2, 4),
    (SketchKind.rand_q(2), "asym", 2, 3), (SketchKind.bernoulli(0.5), "asym", 2, 3),
]


@pytest.mark.parametrize("kind, mode, n, d", FIXED_CASES,
                         ids=[f"{k.to_config()}-{m}-{n}x{d}" for k, m, n, d in FIXED_CASES])
def test_closed_forms_match_enumeration_at_fixed_cases(kind, mode, n, d):
    p = _problem(mode, n, d, seed=60 + n + d)
    assert sketches.closed_moments(kind, p).curvature_second is not None
    check_against_enumeration(kind, p)


def check_against_enumeration(kind, p):
    family = kind.family
    outcomes = list(sketches.enumerate_outcomes(kind, p))
    enum = sketches.enumerated_moments(kind, p)

    try:
        closed = sketches.closed_moments(kind, p)
    except NoClosedForm:
        closed = None
    if closed is not None:
        assert_close(closed.curvature, enum.curvature)
        for field in ("curvature_second", "linear"):
            if getattr(closed, field) is not None:
                assert_close(getattr(closed, field), getattr(enum, field))

    means = family.client_means(kind, p)
    if means is not None:
        for i in range(p.n):
            assert_close(means[i], sum(prob * s.client_matrix(i) for prob, s in outcomes))

    if family.fixed_point is not None:
        try:
            x_inf = family.fixed_point(kind, p)
        except (WrongKind, SingularMatrix):
            pass
        else:
            # E[x^{k+1}] = (1 - gamma) E[x^k] + gamma x_inf needs E[B] = I
            assert_close(enum.curvature, np.eye(p.d))
            assert_close(x_inf, enum.linear)

    if family.sigma2 is not None:
        try:
            sigma2 = family.sigma2(kind, p)
        except WrongKind:
            pass
        else:
            terms = [(prob, s.linear_term(p)) for prob, s in outcomes]
            second = sum(prob * (v @ p.L_bar @ v) for prob, v in terms)
            variance = sum(prob * ((v - enum.linear) @ p.L_bar @ (v - enum.linear))
                           for prob, v in terms)
            # a deterministic family's zero is matched relative to E||v||^2
            assert_close(sigma2, variance, scale=max(second, abs(sigma2)))


# The Monte Carlo half: every family with closed moments, at a shape whose
# joint outcomes exceed the enumeration budget (10! > 10^6; identity has one).
MC_CASES = {
    "identity": (SketchKind.identity(), 10, 10),
    "rand_q": (SketchKind.rand_q(3), 10, 10),
    "bernoulli": (SketchKind.bernoulli(0.3), 10, 10),
    "perm_q": (SketchKind.perm_q(), 10, 10),
    "perm_multiset": (SketchKind.perm_multiset(), 10, 10),
    "scaled_perm_homog": (SketchKind.scaled_perm_homog(), 10, 10),
    "scaled_perm_het": (SketchKind.scaled_perm_het(), 10, 10),
    "scaled_perm_het_q2": (SketchKind.scaled_perm_het(), 5, 10),
}
MC_DRAWS = 2000


def test_mc_cases_cover_every_family_with_closed_moments():
    p = gen_heterogeneous(2, 2, seed=0)
    with_moments = set()
    for name in FAMILIES:
        kind = SketchKind(name, q=1 if FAMILIES[name].params.get("q") else None,
                          p=0.5 if FAMILIES[name].params.get("p") else None)
        try:
            sketches.closed_moments(kind, p)
        except NoClosedForm:
            continue
        with_moments.add(name)
    assert {kind.kind for kind, _, _ in MC_CASES.values()} == with_moments


@pytest.mark.parametrize("label", MC_CASES)
def test_closed_forms_match_monte_carlo(label):
    """Closed E[B] and mean linear term within 5 Monte Carlo standard errors,
    entry by entry, plus a round-off allowance (B = I only up to round-off
    on scaled_perm_het draws)."""
    kind, n, d = MC_CASES[label]
    p = gen_heterogeneous(n, d, seed=80 + n)
    if kind.kind != "identity":
        assert kind.family.count(kind, n, d) > sketches.ENUMERATION_BUDGET
    closed = sketches.closed_moments(kind, p)
    mc = sketches.monte_carlo_moments(kind, p, MC_DRAWS, np.random.default_rng(11))
    assert np.all(np.abs(mc.curvature - closed.curvature) <= 5.0 * mc.curvature_stderr + 1e-9)
    if closed.linear is not None:
        assert np.all(np.abs(mc.linear - closed.linear) <= 5.0 * mc.linear_stderr + 1e-9)


def test_q1_scaled_het_sigma2_matches_monte_carlo():
    """q = 1 scaled_perm_het sigma2 past the enumeration budget within 5 Monte
    Carlo standard errors; the standard error is that of the mean of the
    per-draw terms (v - vbar)' L_bar (v - vbar) over the same draws."""
    kind = SketchKind.scaled_perm_het()
    p = gen_heterogeneous(10, 10, seed=90)
    assert kind.family.count(kind, 10, 10) > sketches.ENUMERATION_BUDGET
    est = EstimatorKind.ist(kind)
    exact = heterogeneity_variance(p, est)
    mc = heterogeneity_variance(p, est, MC_DRAWS, np.random.default_rng(12))
    draws = sketches.sample(kind, p, np.random.default_rng(12), MC_DRAWS)
    v = np.array([s.linear_term(p) for s in draws])
    c = v - v.mean(axis=0)
    terms = np.sum(c * (c @ p.L_bar), axis=1)
    assert mc == pytest.approx(terms.mean(), rel=1e-9)  # the same draws
    assert abs(mc - exact) <= 5.0 * terms.std(ddof=1) / np.sqrt(MC_DRAWS)


# E[B L_bar B] of each family whose second moment comes from the equality
# patterns, at the README's n = 10, d = 100
MC_SECOND = {
    "rand_q": SketchKind.rand_q(10),
    "bernoulli": SketchKind.bernoulli(0.3),
    "perm_q": SketchKind.perm_q(),
    "scaled_perm_homog": SketchKind.scaled_perm_homog(),
}


@pytest.mark.parametrize("label", MC_SECOND)
def test_closed_second_moment_matches_monte_carlo(label):
    """Closed E[B L_bar B] within 5 Monte Carlo standard errors in eight
    random directions u: u' E[B L_bar B] u against the mean of the per-draw
    (B u)' L_bar (B u).  A single entry of B L_bar B is nonzero on few draws
    (four coordinates kept at once), so its sample spread says little; a
    direction mixes every entry.  Sums are shifted by the first draw's
    value, as in ``sketches._sample_stats``."""
    kind = MC_SECOND[label]
    p = gen_heterogeneous(10, 100, seed=85)
    U = np.random.default_rng(14).standard_normal((p.d, 8))
    closed = sketches.closed_moments(kind, p).curvature_second
    want = np.sum(U * (closed @ U), axis=0)
    first = s1 = s2 = None
    for _, [(_, s)] in sketches._draws(kind, p, np.random.default_rng(13), MC_DRAWS):
        BU = s.curvature(p) @ U
        v = np.sum(BU * (p.L_bar @ BU), axis=-2)  # (draws, 8)
        if first is None:
            first, s1, s2 = v[0].copy(), 0.0, 0.0
        v -= first
        s1, s2 = s1 + v.sum(axis=0), s2 + np.square(v).sum(axis=0)
    mean = s1 / MC_DRAWS
    se = np.sqrt(np.maximum(s2 / MC_DRAWS - np.square(mean), 0.0) / MC_DRAWS)
    assert np.all(se > 0.0)
    assert np.all(np.abs(first + mean - want) <= 5.0 * se)
