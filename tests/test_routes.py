"""The expectation route policy and the Monte Carlo draw source.

Every sketch family has closed E[B] and E[B L_bar B], so every certificate
answers past the enumeration budget.  The mean estimate and sigma2 go
through one route function: closed form, then exact enumeration, then
Monte Carlo where a draw count and an rng were given.  Where no route
applies, ``expected_estimate`` raises :class:`NoExpectation`.  Monte Carlo
reads its draws from one source, which must be the stream of the same
number of ``sample`` calls.
"""

import json

import numpy as np
import pytest

from istlab import cli, linalg, sketches
from istlab.certificates import certificate, descent_matrix, interpolation_rates, step_constant
from istlab.errors import NoClosedForm, NoExpectation, TooLarge
from istlab.estimators import EstimatorKind, expected_estimate, heterogeneity_variance
from istlab.quadratics import gen_heterogeneous, gen_homogeneous
from istlab.sketches import FAMILIES, SketchKind, monte_carlo_moments, sample

# perm_multiset at n = d = 10 has 10! > ENUMERATION_BUDGET outcomes; only its
# closed moments answer
MULTISET = (SketchKind.perm_multiset(), gen_heterogeneous(10, 10, seed=1))
# q = 2 scaled_perm_het with linear terms has no closed mean linear term, and
# 10! outcomes
NO_MEAN = (SketchKind.scaled_perm_het(), gen_heterogeneous(5, 10, seed=1))
CALLS = {
    "descent_matrix": lambda kind, p: descent_matrix(p, kind),
    "step_constant": lambda kind, p: step_constant(p, kind),
    "certificate": lambda kind, p: certificate(p, kind),
    "interpolation_rates": lambda kind, p: interpolation_rates(p, kind, 1e-6),
    "expected_estimate": lambda kind, p: expected_estimate(EstimatorKind.ist(kind), p,
                                                           np.zeros(p.d)),
}
NO_ROUTE = {"expected_estimate": NO_MEAN}
# rand_q(2) at n = 4, d = 10 has 45^4 > ENUMERATION_BUDGET outcomes, and closed moments
RAND_Q = (SketchKind.rand_q(2), gen_heterogeneous(4, 10, seed=1))


class TestNoExpectation:
    @pytest.mark.parametrize("name", NO_ROUTE)
    def test_every_caller_raises_no_expectation(self, name):
        with pytest.raises(NoExpectation, match="no exact route"):
            CALLS[name](*NO_ROUTE[name])

    def test_descent_matrix_is_the_closed_form(self):
        kind, p = MULTISET
        eb = sketches.closed_moments(kind, p).curvature
        np.testing.assert_array_equal(descent_matrix(p, kind),
                                      0.5 * linalg.symmetrize(p.L_bar @ eb + eb @ p.L_bar))

    @pytest.mark.parametrize("name", ["step_constant", "certificate", "interpolation_rates"])
    def test_perm_multiset_answers_past_the_budget(self, name):
        """The certificate callers answer for perm_multiset at 10 x 10, which
        had no route before its closed second moment."""
        got = CALLS[name](*MULTISET)
        values = (got.theta, got.rho) if name == "certificate" else got  # theta, or (2/gamma, rho)
        assert np.isfinite(np.array(values, dtype=float)).all()

    @pytest.mark.parametrize("name", CALLS)
    def test_random_sparsifiers_answer_past_the_budget(self, name):
        """Every caller answers for rand_q(2) at 4 x 10, which had no route
        before its closed second moment."""
        assert CALLS[name](*RAND_Q) is not None

    def test_is_caught_as_either_older_class(self):
        assert issubclass(NoExpectation, NoClosedForm)
        assert issubclass(NoExpectation, TooLarge)

    def test_cli_theory_answers_for_perm_multiset(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        MULTISET[1].save(path)
        code = cli.main(["theory", "--problem", str(path), "--sketch", "perm_multiset"])
        assert code == 0
        theta = json.loads(capsys.readouterr().out)["theta"]
        assert isinstance(theta, float) and np.isfinite(theta)


class TestCertificateSigma2:
    """certificate() takes sigma2 from heterogeneity_variance: exact where a
    route exists, whatever sample budget is given, else from the draws."""

    HET = EstimatorKind.ist(SketchKind.scaled_perm_het())

    def test_exact_sigma2_ignores_the_sample_budget(self):
        p = gen_heterogeneous(4, 4, seed=21)
        cert = certificate(p, SketchKind.scaled_perm_het(), sigma2_samples=50, rng=None)
        assert cert.sigma2 == heterogeneity_variance(p, self.HET)
        assert not any("sigma2" in note for note in cert.notes)

    def test_monte_carlo_where_enumeration_is_infeasible(self):
        p = gen_heterogeneous(5, 10, seed=21)  # q = 2, 10! outcomes
        kind = SketchKind.scaled_perm_het()
        cert = certificate(p, kind, sigma2_samples=200, rng=np.random.default_rng(6))
        assert cert.sigma2 == heterogeneity_variance(p, self.HET, 200, np.random.default_rng(6))
        assert "sigma2 via monte carlo (200 draws)" in cert.notes
        cert = certificate(p, kind)
        assert cert.sigma2 is None
        assert "sigma2 omitted: enumeration infeasible, no sample budget given" in cert.notes

    @pytest.mark.parametrize("budget", [None, 200])
    def test_q1_sigma2_is_exact_past_the_enumeration_budget(self, budget):
        p = gen_heterogeneous(10, 10, seed=21)  # q = 1, 10! outcomes
        rng = None if budget is None else np.random.default_rng(6)
        cert = certificate(p, SketchKind.scaled_perm_het(), sigma2_samples=budget, rng=rng)
        assert cert.sigma2 == heterogeneity_variance(p, self.HET)
        assert cert.sigma2 > 0.0
        assert not any("sigma2" in note for note in cert.notes)


def _mc_moments(p, n_samples, rng):
    return monte_carlo_moments(SketchKind.perm_q(), p, n_samples, rng)


def _mc_sigma2(p, n_samples, rng):
    return heterogeneity_variance(p, EstimatorKind.ist(SketchKind.scaled_perm_het()),
                                  n_samples, rng)


MC_ENTRIES = {"monte_carlo_moments": _mc_moments, "heterogeneity_variance": _mc_sigma2}


class TestMonteCarloInput:
    @pytest.mark.parametrize("entry", MC_ENTRIES)
    @pytest.mark.parametrize("n_samples", [2.5, True, False, 0, -1, np.float64(3.0), "3"],
                             ids=repr)
    def test_bad_sample_count_rejected(self, entry, n_samples):
        p = gen_heterogeneous(3, 3, seed=27)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            MC_ENTRIES[entry](p, n_samples, np.random.default_rng(0))

    @pytest.mark.parametrize("entry", MC_ENTRIES)
    def test_missing_rng_rejected(self, entry):
        with pytest.raises(ValueError, match="rng"):
            MC_ENTRIES[entry](gen_heterogeneous(3, 3, seed=27), 5, None)

    @pytest.mark.parametrize("entry", MC_ENTRIES)
    def test_numpy_integer_count_is_the_int_count(self, entry):
        p = gen_heterogeneous(3, 3, seed=27)
        got = MC_ENTRIES[entry](p, np.int64(7), np.random.default_rng(4))
        want = MC_ENTRIES[entry](p, 7, np.random.default_rng(4))
        if entry == "monte_carlo_moments":
            np.testing.assert_array_equal(got.curvature, want.curvature)
            got, want = got.linear, want.linear
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind, p", [
    (SketchKind.identity(), gen_heterogeneous(2, 3, seed=22)),
    (SketchKind.bernoulli(1.0), gen_heterogeneous(2, 3, seed=23)),
    (SketchKind.perm_q(), gen_homogeneous(4, 4, seed=24)),
], ids=["identity", "bernoulli1", "perm_q-homogeneous"])
def test_deterministic_kinds_have_exact_zero_standard_errors(kind, p):
    """Every draw gives the same B and linear term, so the mean is exactly
    the first draw's and every standard error exactly zero."""
    m = monte_carlo_moments(kind, p, 50, np.random.default_rng(3))
    first = sample(kind, p, np.random.default_rng(3))
    np.testing.assert_array_equal(m.curvature, first.curvature(p))
    np.testing.assert_array_equal(m.linear, first.linear_term(p))
    assert not m.curvature_stderr.any() and not m.linear_stderr.any()


# (kind, n, d): every family, Bernoulli with draws of several widths (at
# p = 0.1, width 0 among them) and scaled_perm_het with dense q = 3 blocks
STREAM_CASES = [
    (SketchKind.identity(), 2, 3),
    (SketchKind.perm_q(), 3, 3),
    (SketchKind.perm_q(2), 2, 4),
    (SketchKind.perm_multiset(), 4, 2),
    (SketchKind.scaled_perm_homog(), 2, 4),
    (SketchKind.scaled_perm_het(), 3, 3),
    (SketchKind.scaled_perm_het(), 2, 6),
    (SketchKind.rand_q(2), 3, 5),
    (SketchKind.bernoulli(0.5), 3, 6),
    (SketchKind.bernoulli(0.1), 2, 3),
]


def test_stream_cases_cover_every_family():
    assert {kind.kind for kind, _, _ in STREAM_CASES} == set(FAMILIES)


@pytest.mark.parametrize("kind, n, d", STREAM_CASES,
                         ids=[f"{k.kind}-{n}x{d}" for k, n, d in STREAM_CASES])
def test_draws_are_the_sample_stream(kind, n, d, monkeypatch):
    """The stacked draws are those of n_samples ``sample`` calls, in order,
    and leave the rng where those calls do."""
    monkeypatch.setattr(sketches, "CHUNK_BYTES", 3 * 8 * d * d)  # three draws per chunk
    p = gen_heterogeneous(n, d, seed=40 + n + d)
    n_samples = 10
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    chunks = list(sketches._draws(kind, p, rng, n_samples))
    want = [sample(kind, p, ref) for _ in range(n_samples)]
    assert rng.random() == ref.random()

    assert [len(prob) for prob, _ in chunks] == [3, 3, 3, 1]
    got = []
    for prob, parts in chunks:
        assert (prob == 1.0 / n_samples).all()
        ((pos, s),) = parts
        got.extend((s.idx[j], s.factors[j]) for j in range(len(prob)))
    for (idx, factors), w in zip(got, want, strict=True):
        q = w.idx.shape[1]
        np.testing.assert_array_equal(idx[:, :q], w.idx)
        np.testing.assert_array_equal(factors[..., :q], w.factors)
        assert not factors[..., q:].any()  # padding carries weight zero
    if kind.kind == "bernoulli":
        assert len({w.idx.shape[1] for w in want}) > 1
