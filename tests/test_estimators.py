import warnings

import numpy as np
import pytest

from istlab import sketches
from istlab.errors import DimMismatch, IncompatibleShape, NoClosedForm, WrongKind
from istlab.estimators import (
    EstimatorKind,
    estimate,
    expected_estimate,
    heterogeneity_variance,
)
from istlab.quadratics import (
    QuadraticProblem,
    gen_heterogeneous,
    gen_homogeneous,
    precondition_homogeneous,
)
from istlab.sketches import SketchKind


class TestEstimatorKind:
    def test_dgd_refuses_sketch(self):
        with pytest.raises(IncompatibleShape):
            EstimatorKind("dgd", SketchKind.identity())

    def test_ist_requires_sketch(self):
        with pytest.raises(IncompatibleShape):
            EstimatorKind("ist", None)


class TestEstimate:
    def test_dgd_vanishes_at_solution(self):
        p = gen_heterogeneous(4, 6, seed=1)
        g, s = estimate(EstimatorKind.dgd(), p, p.solution(), None)
        assert s is None
        assert np.linalg.norm(g) <= 1e-8 * np.linalg.norm(p.b_bar)

    def test_ist_identity_equals_dgd_bitwise(self):
        p = gen_heterogeneous(3, 5, seed=2)
        x = np.random.default_rng(0).standard_normal(5)
        g_dgd, _ = estimate(EstimatorKind.dgd(), p, x, None)
        g_ist, s = estimate(
            EstimatorKind.ist(SketchKind.identity()), p, x, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(g_dgd, g_ist)
        assert s.kind.kind == "identity"

    def test_ist_matches_dense_computation(self):
        # g must equal B x - (1/n) sum C_i b_i computed from dense matrices
        rng = np.random.default_rng(3)
        for kind in (
            SketchKind.perm_q(),
            SketchKind.scaled_perm_het(),
            SketchKind.scaled_perm_homog(),
            SketchKind.rand_q(2),
            SketchKind.bernoulli(0.5),
        ):
            p = gen_heterogeneous(3, 6, seed=4)
            x = rng.standard_normal(6)
            g, s = estimate(EstimatorKind.ist(kind), p, x, rng)
            dense = s.curvature(p) @ x - s.linear_term(p)
            np.testing.assert_allclose(g, dense, atol=1e-12)

    def test_scaled_het_is_x_minus_linear_term(self):
        p = gen_heterogeneous(5, 5, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5)
        g, s = estimate(EstimatorKind.ist(SketchKind.scaled_perm_het()), p, x, rng)
        np.testing.assert_allclose(g, x - s.linear_term(p), atol=1e-12)

    def test_ist_update_stays_in_sampled_span(self):
        p = gen_heterogeneous(2, 8, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8)
        k = SketchKind.rand_q(3)
        s = sketches.sample(k, p, rng)
        from istlab.estimators import _ist_gradient

        g = _ist_gradient(p, s, x)
        covered = np.zeros(8, dtype=bool)
        for idx in s.coords:
            covered[idx] = True
        assert not np.any(g[~covered])

    def test_cgd_sketches_full_gradient(self):
        p = gen_heterogeneous(2, 4, seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(4)
        g, s = estimate(EstimatorKind.cgd(SketchKind.perm_q()), p, x, rng)
        manual = np.zeros(4)
        for i in range(2):
            manual += s.apply(i, p.L[i] @ x - p.b[i])  # client i's gradient
        np.testing.assert_allclose(g, manual / 2.0, atol=1e-12)


class TestExpectedEstimate:
    def test_scaled_het_interpolation_mean_is_x(self):
        p = gen_heterogeneous(4, 4, seed=11).as_interpolation()
        x = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_allclose(
            expected_estimate(EstimatorKind.ist(SketchKind.scaled_perm_het()), p, x),
            x,
            atol=1e-12,
        )

    def test_scaled_het_closed_form_matches_enumeration(self):
        p = gen_heterogeneous(3, 3, seed=12)
        x = np.random.default_rng(1).standard_normal(3)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        closed = expected_estimate(est, p, x)
        from istlab.estimators import _enumerated_mean

        np.testing.assert_allclose(closed, _enumerated_mean(est, p, x), atol=1e-12)

    def test_scaled_het_decomposes_into_preconditioned_grad_plus_bias(self):
        from istlab.certificates import estimator_bias
        from istlab.linalg import psd_pinv

        p = gen_heterogeneous(4, 4, seed=13)
        x = np.random.default_rng(2).standard_normal(4)
        mean = expected_estimate(EstimatorKind.ist(SketchKind.scaled_perm_het()), p, x)
        decomposed = psd_pinv(p.L_bar) @ p.grad(x) + estimator_bias(p)
        np.testing.assert_allclose(mean, decomposed, atol=1e-10)

    def test_homogeneous_scaled_estimator_is_deterministic(self):
        p, _ = precondition_homogeneous(gen_homogeneous(6, 6, seed=14))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        est = EstimatorKind.ist(SketchKind.scaled_perm_homog())
        g1, _ = estimate(est, p, x, np.random.default_rng(100))
        g2, _ = estimate(est, p, x, np.random.default_rng(200))
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_allclose(
            g1, x - p.b_bar / np.sqrt(6.0), atol=1e-12
        )

    def test_cgd_unbiased_kinds_match_gradient(self):
        p = gen_heterogeneous(2, 4, seed=15)
        x = np.random.default_rng(4).standard_normal(4)
        for kind in (
            SketchKind.identity(),
            SketchKind.perm_q(),
            SketchKind.rand_q(2),
        ):
            mean = expected_estimate(EstimatorKind.cgd(kind), p, x)
            np.testing.assert_allclose(mean, p.grad(x), atol=1e-12)

    def test_cgd_enumerated_mean_equals_gradient(self):
        p = gen_heterogeneous(2, 3, seed=16)
        x = np.random.default_rng(5).standard_normal(3)
        from istlab.estimators import _enumerated_mean

        for kind in (SketchKind.rand_q(1), SketchKind.bernoulli(0.5)):
            mean = _enumerated_mean(EstimatorKind.cgd(kind), p, x)
            np.testing.assert_allclose(mean, p.grad(x), atol=1e-12)

    def test_ist_bias_is_nonzero_off_interpolation(self):
        p = gen_heterogeneous(3, 3, seed=17)
        x = p.solution()
        mean = expected_estimate(EstimatorKind.ist(SketchKind.scaled_perm_het()), p, x)
        assert np.linalg.norm(mean - p.grad(x)) > 1e-3

    def test_no_closed_form_when_enumeration_infeasible(self):
        # q = 2 scaled_perm_het with linear terms: no closed mean linear term,
        # and 10! outcomes
        p = gen_heterogeneous(5, 10, seed=18)
        with pytest.raises(NoClosedForm):
            expected_estimate(EstimatorKind.ist(SketchKind.scaled_perm_het()), p, np.zeros(10))

    def test_random_sparsifier_ist_mean_is_closed_past_the_budget(self):
        """rand_q(3) at n = d = 12 has C(12, 3)^12 outcomes; its ist mean is
        E[B] x - b_bar in closed form."""
        p = gen_heterogeneous(12, 12, seed=18)
        x = np.random.default_rng(3).standard_normal(12)
        kind = SketchKind.rand_q(3)
        m = sketches.closed_moments(kind, p)
        np.testing.assert_array_equal(expected_estimate(EstimatorKind.ist(kind), p, x),
                                      m.curvature @ x - p.b_bar)


class TestHeterogeneityVariance:
    def test_interpolation_gives_zero(self):
        p = gen_heterogeneous(3, 3, seed=19).as_interpolation()
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        assert heterogeneity_variance(p, est) == 0.0

    def test_homogeneous_scaled_gives_zero(self):
        p, _ = precondition_homogeneous(gen_homogeneous(4, 4, seed=20))
        est = EstimatorKind.ist(SketchKind.scaled_perm_homog())
        assert heterogeneity_variance(p, est) == 0.0

    def test_hand_enumerated_two_client_case(self):
        p = QuadraticProblem.from_arrays(
            [np.eye(2), np.eye(2)],
            [[1.0, 0.0], [0.0, 1.0]],
        )
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        # two permutations: linear terms (sqrt2/2)(e1+e2) and 0; variance 1/4
        assert heterogeneity_variance(p, est) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 12])
    def test_q1_scaled_het_on_a_homogeneous_problem_is_exactly_zero(self, n):
        p = gen_homogeneous(n, n, seed=30 + n)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        assert heterogeneity_variance(p, est) == 0.0

    def test_single_client_gives_zero_without_a_division_warning(self):
        p = gen_heterogeneous(1, 1, seed=31)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert heterogeneity_variance(p, est) == 0.0

    def test_enumeration_matches_monte_carlo(self):
        p = gen_heterogeneous(4, 4, seed=21)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        exact = heterogeneity_variance(p, est)
        rng = np.random.default_rng(0)
        chunks = np.array([
            heterogeneity_variance(p, est, n_samples=10_000, rng=rng) for _ in range(10)
        ])
        se = chunks.std(ddof=1) / np.sqrt(chunks.size)
        assert abs(chunks.mean() - exact) <= 5.0 * se

    def test_wrong_kind_rejected(self):
        p = gen_heterogeneous(3, 3, seed=22)
        with pytest.raises(WrongKind):
            heterogeneity_variance(p, EstimatorKind.dgd())
        with pytest.raises(WrongKind):
            heterogeneity_variance(p, EstimatorKind.ist(SketchKind.rand_q(1)))

    def test_shape_the_sketch_cannot_sample_is_rejected(self):
        # the block size is resolved before any family rule is applied
        with pytest.raises(IncompatibleShape):
            heterogeneity_variance(gen_homogeneous(2, 6, seed=25),
                                   EstimatorKind.ist(SketchKind.perm_multiset()))
        with pytest.raises(IncompatibleShape):
            heterogeneity_variance(gen_homogeneous(8, 4, seed=26),
                                   EstimatorKind.ist(SketchKind.scaled_perm_homog()))

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_sample_count_below_one_rejected(self, n_samples):
        p = gen_heterogeneous(3, 3, seed=27)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            heterogeneity_variance(p, est, n_samples, np.random.default_rng(0))

    def test_scaled_homog_multi_coordinate_blocks_are_not_deterministic(self):
        # with q > 1 the within-block cross terms stay random, so the
        # zero-variance shortcut must refuse
        p, _ = precondition_homogeneous(gen_homogeneous(2, 6, seed=23))
        est = EstimatorKind.ist(SketchKind.scaled_perm_homog())
        x = np.random.default_rng(1).standard_normal(6)
        draws = set()
        rng = np.random.default_rng(2)
        for _ in range(20):
            g, _ = estimate(est, p, x, rng)
            draws.add(tuple(g))
        assert len(draws) > 1
        with pytest.raises(WrongKind):
            heterogeneity_variance(p, est)

    def test_multiset_is_deterministic_for_any_replication(self):
        p, _ = precondition_homogeneous(gen_homogeneous(8, 4, seed=24))
        est = EstimatorKind.ist(SketchKind.perm_multiset())
        x = np.random.default_rng(3).standard_normal(4)
        g1, _ = estimate(est, p, x, np.random.default_rng(10))
        g2, _ = estimate(est, p, x, np.random.default_rng(20))
        np.testing.assert_allclose(g1, g2, atol=1e-12)
        assert heterogeneity_variance(p, est) == 0.0


class TestStackedAgainstClientLoop:
    """The stacked gradients against the per-client formulas on dense C_i."""

    KINDS = [
        SketchKind.perm_q(),
        SketchKind.scaled_perm_homog(),
        SketchKind.scaled_perm_het(),
        SketchKind.rand_q(2),
        SketchKind.bernoulli(0.5),
    ]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("name", ["ist", "cgd"])
    def test_gradient_matches_client_loop(self, kind, name):
        p = gen_heterogeneous(3, 6, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal(6)
            g, s = estimate(EstimatorKind(name, kind), p, x, rng)
            ref = np.zeros(6)
            for i in range(3):
                C = s.client_matrix(i)
                y = C @ x if name == "ist" else x
                ref += C @ (p.L[i] @ y - p.b[i])
            np.testing.assert_allclose(g, ref / 3, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("kind", KINDS + [SketchKind.identity(), None], ids=lambda k: getattr(k, "kind", "dgd"))
    @pytest.mark.parametrize("name", ["ist", "cgd"])
    def test_stacked_iterates_are_bitwise_their_own_calls(self, kind, name):
        # a sweep's lanes: one call on (lanes, d) iterates and one draw
        p = gen_heterogeneous(3, 6, seed=16)
        rng = np.random.default_rng(17)
        est = EstimatorKind.dgd() if kind is None else EstimatorKind(name, kind)
        X = rng.standard_normal((4, 6))
        s = None if kind is None else sketches.sample(kind, p, rng)
        g = estimate(est, p, X, None, s)[0]
        assert g.shape == X.shape
        for j in range(4):
            assert g[j].tobytes() == estimate(est, p, X[j], None, s)[0].tobytes()
        with pytest.raises(DimMismatch):
            estimate(est, p, X[:, :5], None, s)

    def test_bernoulli_padding_has_zero_weight(self):
        p = gen_heterogeneous(4, 8, seed=14)
        rng = np.random.default_rng(15)
        s = sketches.sample(SketchKind.bernoulli(0.5), p, rng)
        while len({len(c) for c in s.coords}) == 1:
            s = sketches.sample(SketchKind.bernoulli(0.5), p, rng)
        kept = max(len(c) for c in s.coords)
        assert s.idx.shape == s.factors.shape == (4, kept)
        for i in range(4):
            np.testing.assert_array_equal(s.idx[i][: len(s.coords[i])], s.coords[i])
            assert not s.factors[i][len(s.coords[i]):].any()
            np.testing.assert_array_equal(np.diag(s.client_matrix(i))[s.coords[i]], s.weights[i])
