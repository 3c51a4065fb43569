import gc
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from istlab import certificates, estimators, sketches
from istlab.errors import IncompatibleShape, NonPositiveDiagonal, TooLarge
from istlab.estimators import EstimatorKind
from istlab.quadratics import QuadraticProblem, gen_heterogeneous, gen_homogeneous
from istlab.sketches import (
    SketchKind,
    closed_moments,
    enumerate_outcomes,
    enumerated_moments,
    monte_carlo_moments,
    sample,
)


def het_problem(n, d, seed=0):
    return gen_heterogeneous(n, d, seed=seed)


class TestSketchKind:
    def test_config_roundtrip(self):
        for doc in (
            {"kind": "identity"},
            {"kind": "perm_q", "q": 2},
            {"kind": "perm_multiset"},
            {"kind": "scaled_perm_homog"},
            {"kind": "scaled_perm_het"},
            {"kind": "rand_q", "q": 3},
            {"kind": "bernoulli", "p": 0.25},
        ):
            k = SketchKind.from_config(doc)
            assert k.to_config() == doc

    def test_invalid_parameters(self):
        with pytest.raises(IncompatibleShape):
            SketchKind.rand_q(0)
        with pytest.raises(IncompatibleShape):
            SketchKind.bernoulli(0.0)
        with pytest.raises(IncompatibleShape):
            SketchKind.bernoulli(1.5)
        with pytest.raises(IncompatibleShape):
            SketchKind("scaled_perm_het", q=2)
        with pytest.raises(IncompatibleShape):
            SketchKind("nope")
        for kind, q, p in [
            ("bernoulli", 2, 0.5), ("rand_q", 2, 0.5), ("perm_q", None, 0.5),  # not taken
            ("rand_q", 2.5, None), ("rand_q", True, None), ("perm_q", "3", None),
            ("bernoulli", None, "0.5"), ("bernoulli", None, True),
            ("bernoulli", None, float("nan")), ("bernoulli", None, float("inf")),
        ]:
            with pytest.raises(IncompatibleShape):
                SketchKind(kind, q=q, p=p)
        with pytest.raises(IncompatibleShape):
            SketchKind.from_config(5)
        assert SketchKind.rand_q(np.int64(2)).q == 2

    def test_shape_requirements(self):
        with pytest.raises(IncompatibleShape):
            sketches.resolve_block_size(SketchKind.perm_q(), n=3, d=7)
        with pytest.raises(IncompatibleShape):
            sketches.resolve_block_size(SketchKind.perm_multiset(), n=7, d=3)
        with pytest.raises(IncompatibleShape):
            sketches.resolve_block_size(SketchKind.rand_q(5), n=2, d=3)
        with pytest.raises(IncompatibleShape):
            sketches.resolve_block_size(SketchKind.perm_q(3), n=2, d=4)


class TestSampling:
    def test_perm_q_partitions_coordinates(self):
        p = het_problem(2, 4)
        s = sample(SketchKind.perm_q(), p, np.random.default_rng(0))
        all_coords = np.sort(np.concatenate(s.coords))
        np.testing.assert_array_equal(all_coords, np.arange(4))
        for w in s.weights:
            np.testing.assert_array_equal(w, np.full(2, 2.0))

    def test_identity_sample(self):
        p = het_problem(3, 4)
        s = sample(SketchKind.identity(), p, np.random.default_rng(0))
        for i in range(3):
            np.testing.assert_array_equal(s.client_matrix(i), np.eye(4))

    def test_scaled_het_weights_hand_case(self):
        p = QuadraticProblem.from_arrays(
            [np.diag([4.0, 1.0]), np.diag([1.0, 9.0])],
            [[0.0, 0.0], [0.0, 0.0]],
        )
        # find a draw with permutation (0, 1)
        rng = np.random.default_rng(1)
        while True:
            s = sample(SketchKind.scaled_perm_het(), p, rng)
            if s.permutation[0] == 0:
                break
        assert s.coords[0][0] == 0 and s.coords[1][0] == 1
        assert s.weights[0][0] == pytest.approx(np.sqrt(2.0 / 4.0), abs=1e-15)
        assert s.weights[1][0] == pytest.approx(np.sqrt(2.0 / 9.0), abs=1e-15)

    def test_scaled_het_rejects_zero_diagonal(self):
        L = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = QuadraticProblem.from_arrays([L, L], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NonPositiveDiagonal):
            sample(SketchKind.scaled_perm_het(), p, np.random.default_rng(0))

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 4)], ids=["q1", "q2"])
    def test_scaled_het_rejects_zero_diagonal_on_every_route(self, n, d):
        """Each scaled_perm_het quantity, exact, enumerated or sampled, raises
        NonPositiveDiagonal on a problem with a zero [L_i]_jj, with no warning."""
        L = np.eye(d)
        L[0, 0] = 0.0
        p = QuadraticProblem.from_arrays([L] * n, np.ones((n, d)))
        kind = SketchKind.scaled_perm_het()
        x = np.ones(d)
        routes = {
            "closed_moments": lambda: closed_moments(kind, p),
            "enumerated_moments": lambda: enumerated_moments(kind, p),
            "enumerate_outcomes": lambda: next(enumerate_outcomes(kind, p)),
            "monte_carlo_moments": lambda: monte_carlo_moments(kind, p, 3, np.random.default_rng(0)),
            "sample": lambda: sample(kind, p, np.random.default_rng(0)),
            "client_means": lambda: kind.family.client_means(kind, p),
            "fixed_point": lambda: certificates.fixed_point(p, kind),
            "sigma2": lambda: estimators.heterogeneity_variance(p, EstimatorKind.ist(kind)),
            "sigma2_mc": lambda: estimators.heterogeneity_variance(
                p, EstimatorKind.ist(kind), 3, np.random.default_rng(0)),
            "expected_ist": lambda: estimators.expected_estimate(EstimatorKind.ist(kind), p, x),
            "expected_cgd": lambda: estimators.expected_estimate(EstimatorKind.cgd(kind), p, x),
            "certificate": lambda: certificates.certificate(p, kind),
        }
        for name, route in routes.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPositiveDiagonal):
                    route()

    def test_multiset_multiplicity(self):
        p = het_problem(6, 2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = sample(SketchKind.perm_multiset(), p, rng)
            counts = np.bincount(np.concatenate(s.coords), minlength=2)
            np.testing.assert_array_equal(counts, [3, 3])
            for w in s.weights:
                np.testing.assert_array_equal(w, [np.sqrt(2.0)])

    def test_bernoulli_weights(self):
        p = het_problem(2, 5)
        s = sample(SketchKind.bernoulli(0.5), p, np.random.default_rng(4))
        for idx, w in zip(s.coords, s.weights):
            np.testing.assert_array_equal(w, np.full(idx.size, 2.0))


# name -> (kind, n, d): multiset with n > d, scaled_perm_het at q = 1 and q = 2,
# Bernoulli with rows padded to each round's widest client, and sparse Bernoulli
# whose tapes hold rounds that keep no coordinate beside wider ones
STREAM_CASES = {
    "identity": (SketchKind.identity(), 3, 4),
    "perm_q": (SketchKind.perm_q(), 3, 6),
    "perm_multiset": (SketchKind.perm_multiset(), 6, 3),
    "scaled_perm_homog": (SketchKind.scaled_perm_homog(), 2, 4),
    "scaled_perm_het_q1": (SketchKind.scaled_perm_het(), 4, 4),
    "scaled_perm_het_q2": (SketchKind.scaled_perm_het(), 3, 6),
    "rand_q": (SketchKind.rand_q(2), 3, 5),
    "bernoulli": (SketchKind.bernoulli(0.3), 4, 6),
    "bernoulli_sparse": (SketchKind.bernoulli(0.1), 2, 3),
}


def assert_same_sample(a, b):
    for field in ("idx", "factors", "local", "permutation"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None) == (y is None), field
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), field


class TestTapes:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_draw_many_is_the_per_round_stream(self, case):
        # k successive draws, as one tape or round by round, bit for bit, and the
        # rng left where the rounds leave it
        kind, n, d = STREAM_CASES[case]
        p = het_problem(n, d, seed=n + d)
        k = 9
        tape_rng, round_rng = np.random.default_rng(11), np.random.default_rng(11)
        assert sample(kind, p, tape_rng, 0) == []  # and draws nothing
        tape = sample(kind, p, tape_rng, k)
        rounds = [sample(kind, p, round_rng) for _ in range(k)]
        assert len(tape) == k
        for a, b in zip(tape, rounds):
            assert_same_sample(a, b)
        assert_same_sample(sample(kind, p, tape_rng), sample(kind, p, round_rng))
        if case == "bernoulli":
            assert any(not s.factors.all() for s in rounds)
            assert len({s.idx.shape[1] for s in rounds}) > 1

    @pytest.mark.parametrize("case", ["perm_q", "perm_multiset", "scaled_perm_het_q2", "bernoulli",
                                      "bernoulli_sparse"])
    def test_tape_rounds_replay_one_generator_call_each(self, case):
        # round t of a tape is one rng.permutation of [d] (or of the multiset),
        # or one (n, d) uniform draw thresholded at p
        kind, n, d = STREAM_CASES[case]
        p = het_problem(n, d, seed=n + d)
        tape = sample(kind, p, np.random.default_rng(5), 6)
        rng = np.random.default_rng(5)
        for s in tape:
            if kind.kind == "bernoulli":
                mask = rng.random((n, d)) < kind.p
                for i, coords in enumerate(s.coords):
                    np.testing.assert_array_equal(coords, np.flatnonzero(mask[i]))
            else:
                perm = rng.permutation(d if n <= d else np.repeat(np.arange(d), n // d))
                np.testing.assert_array_equal(s.permutation, perm)
                np.testing.assert_array_equal(s.idx, perm.reshape(n, -1))


class TestStackedDraws:
    def test_cases_cover_every_family(self):
        assert {kind.kind for kind, _, _ in STREAM_CASES.values()} == set(sketches.FAMILIES)

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_draw_many_is_one_stack_whose_rounds_are_views(self, case):
        kind, n, d = STREAM_CASES[case]
        p = het_problem(n, d, seed=n + d)
        k = 7
        stack = kind.family.draw_many(kind, p, np.random.default_rng(2), k)
        assert isinstance(stack, sketches.SketchSample)
        assert stack.idx.shape[:2] == (k, n) and stack.factors.shape[:2] == (k, n)
        rounds = stack.rounds()
        assert len(rounds) == k
        for s in rounds:
            assert s.idx.ndim == 2
            if s.idx.size:  # a round that keeps no coordinate holds no memory to share
                assert np.shares_memory(s.idx, stack.idx)
                assert np.shares_memory(s.factors, stack.factors)

    @pytest.mark.parametrize("case", ["rand_q", "bernoulli", "bernoulli_sparse"])
    def test_parts_read_the_stacks_gathered_rhs(self, case, monkeypatch):
        # a part of a stack whose b_i[S_i] are gathered reads them cut to its
        # width, as the stack's rounds do, and gathers nothing again
        kind, n, d = STREAM_CASES[case]
        p = het_problem(n, d, seed=n + d)
        stack = sample(kind, p, np.random.default_rng(4), 9, stacked=True)
        stack.local_rhs(p)
        rows = sketches._rows
        monkeypatch.setattr(sketches, "_rows", lambda a, idx: pytest.fail("gathered again"))
        for at, part in stack.parts():
            assert part.local_rhs(p) is part.rhs
            expected = rows(p.b, part.idx)[..., None]
            assert part.rhs.shape == expected.shape and part.rhs.tobytes() == expected.tobytes()

    def test_sparse_bernoulli_rounds_keep_their_own_width(self):
        # each round of one stacked tape is cut back to its own widest client,
        # so rounds that keep no coordinate have width 0 beside wider rounds
        kind, n, d = STREAM_CASES["bernoulli_sparse"]
        p = het_problem(n, d, seed=n + d)
        stack = kind.family.draw_many(kind, p, np.random.default_rng(11), 9)
        widths = [s.idx.shape[1] for s in stack.rounds()]
        assert 0 in widths and max(widths) > 0
        assert stack.idx.shape == (9, n, max(widths))
        for s in stack.rounds():
            assert s.idx.shape[1] == max(len(c) for c in s.coords)
            assert s.factors.shape == s.idx.shape


class TestApply:
    def test_identity_is_noop(self):
        p = het_problem(2, 4)
        s = sample(SketchKind.identity(), p, np.random.default_rng(0))
        x = np.arange(4.0)
        np.testing.assert_array_equal(s.apply(0, x), x)

    def test_rand_q_full_keeps_everything(self):
        p = het_problem(2, 4)
        s = sample(SketchKind.rand_q(4), p, np.random.default_rng(0))
        x = np.arange(4.0) + 1.0
        np.testing.assert_array_equal(s.apply(0, x), x)

    def test_perm1_hand_case(self):
        # permutation (2, 1): client 1 holds coordinate 2 with weight n = 2
        p = het_problem(2, 2)
        rng = np.random.default_rng(0)
        while True:
            s = sample(SketchKind.perm_q(), p, rng)
            if s.permutation[0] == 1:
                break
        np.testing.assert_array_equal(s.apply(0, np.array([3.0, 5.0])), [0.0, 10.0])

    def test_apply_matches_dense_matrix(self):
        p = het_problem(3, 6, seed=5)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        for kind in (
            SketchKind.perm_q(),
            SketchKind.scaled_perm_homog(),
            SketchKind.scaled_perm_het(),
            SketchKind.rand_q(2),
            SketchKind.bernoulli(0.6),
        ):
            s = sample(kind, p, rng)
            for i in range(3):
                np.testing.assert_allclose(
                    s.apply(i, x), s.client_matrix(i) @ x, atol=1e-12
                )

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize("kind", [SketchKind.scaled_perm_het(), SketchKind.rand_q(3),
                                      SketchKind.bernoulli(0.5)], ids=lambda k: k.kind)
    def test_times_takes_a_leading_lane_axis(self, kind, lanes):
        # n = q = 3 (blocks) also at 3 lanes, where (n, q, q) blocks broadcast
        # against (lanes, n, q, 1) as weights would, silently
        p = het_problem(3, 9, seed=4)
        s = sample(kind, p, np.random.default_rng(5))
        assert s.diagonal == (kind.kind != "scaled_perm_het")
        m = np.random.default_rng(6).standard_normal((lanes,) + s.idx.shape + (1,))
        got = s.times(m)
        assert got.shape == m.shape
        for j in range(lanes):
            assert got[j].tobytes() == s.times(m[j]).tobytes()
            for i in range(3):
                dense = s.client_matrix(i)[np.ix_(s.idx[i], s.idx[i])]
                np.testing.assert_allclose(got[j, i], dense @ m[j, i], rtol=0, atol=1e-12)


class TestPerRealizationIdentities:
    def test_perm_q_perfect_reconstruction_exact(self):
        for (n, d) in [(2, 4), (5, 5), (4, 12)]:
            p = het_problem(n, d, seed=n)
            rng = np.random.default_rng(n)
            for _ in range(10):
                s = sample(SketchKind.perm_q(), p, rng)
                np.testing.assert_array_equal(s.mean_sketch(), np.eye(d))

    def test_scaled_het_curvature_is_identity_single_coord(self):
        p = het_problem(6, 6, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = sample(SketchKind.scaled_perm_het(), p, rng)
            B = s.curvature(p)
            assert np.abs(B - np.eye(6)).max() <= 1e-12

    def test_scaled_het_curvature_is_identity_blocks(self):
        p = het_problem(3, 12, seed=4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = sample(SketchKind.scaled_perm_het(), p, rng)
            assert s.blocks is not None
            B = s.curvature(p)
            assert np.abs(B - np.eye(12)).max() <= 1e-12

    def test_multiset_curvature_deterministic_on_homogeneous(self):
        p = gen_homogeneous(8, 4, seed=6)
        rng = np.random.default_rng(6)
        D = np.diag(np.diag(p.L[0]))
        for _ in range(5):
            s = sample(SketchKind.perm_multiset(), p, rng)
            np.testing.assert_allclose(s.curvature(p), D, atol=1e-12)

    def test_perm1_homogeneous_curvature_deterministic(self):
        p = gen_homogeneous(5, 5, seed=8)
        rng = np.random.default_rng(8)
        D = np.diag(np.diag(p.L[0]))
        for _ in range(5):
            s = sample(SketchKind.perm_q(), p, rng)
            np.testing.assert_allclose(s.curvature(p), 5.0 * D, atol=1e-9)


class TestUnbiasedness:
    UNBIASED = [
        SketchKind.perm_q(),
        SketchKind.rand_q(2),
        SketchKind.bernoulli(0.4),
        SketchKind.identity(),
    ]

    @pytest.mark.parametrize("kind", UNBIASED, ids=lambda k: k.kind)
    def test_enumerated_mean_is_identity_map(self, kind):
        n, d = (2, 4) if kind.kind != "bernoulli" else (2, 3)
        p = het_problem(n, d, seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(d)
        for i in range(n):
            mean = np.zeros(d)
            for prob, s in enumerate_outcomes(kind, p):
                mean += prob * s.apply(i, x)
            np.testing.assert_allclose(mean, x, atol=1e-12)

    def test_scaled_kinds_are_biased(self):
        p = het_problem(3, 3, seed=2)
        x = np.ones(3)
        mean = np.zeros(3)
        for prob, s in enumerate_outcomes(SketchKind.scaled_perm_het(), p):
            mean += prob * s.apply(0, x)
        assert np.linalg.norm(mean - x) > 0.1


class TestVarianceFormulas:
    def test_rand_q_variance_equality(self):
        p = het_problem(1, 5, seed=3)
        rng = np.random.default_rng(5)
        for q in (1, 2, 4, 5):
            kind = SketchKind.rand_q(q)
            for _ in range(5):
                x = rng.standard_normal(5)
                second = 0.0
                for prob, s in enumerate_outcomes(kind, p):
                    second += prob * float(np.sum((s.apply(0, x) - x) ** 2))
                expect = (5.0 / q - 1.0) * float(x @ x)
                assert second == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_bernoulli_variance_equality(self):
        p = het_problem(1, 4, seed=4)
        rng = np.random.default_rng(6)
        for prob_keep in (0.25, 0.5, 0.9, 1.0):
            kind = SketchKind.bernoulli(prob_keep)
            x = rng.standard_normal(4)
            second = 0.0
            for prob, s in enumerate_outcomes(kind, p):
                second += prob * float(np.sum((s.apply(0, x) - x) ** 2))
            expect = (1.0 / prob_keep - 1.0) * float(x @ x)
            assert second == pytest.approx(expect, rel=1e-11, abs=1e-12)


class TestClosedForms:
    def test_identity_moments(self):
        p = het_problem(3, 4, seed=7)
        m = closed_moments(SketchKind.identity(), p)
        np.testing.assert_allclose(m.curvature, p.L_bar)
        np.testing.assert_allclose(m.curvature_second, p.L_bar @ p.L_bar @ p.L_bar)
        np.testing.assert_allclose(m.linear, p.b_bar)

    def test_perm1_homogeneous_hand_case(self):
        L = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = QuadraticProblem.from_arrays([L, L], [[0.0, 1.0], [0.0, 1.0]])
        m = closed_moments(SketchKind.perm_q(), p)
        np.testing.assert_allclose(m.curvature, np.diag([4.0, 6.0]), atol=1e-14)

    def test_scaled_het_moments(self):
        p = het_problem(4, 4, seed=8)
        m = closed_moments(SketchKind.scaled_perm_het(), p)
        np.testing.assert_array_equal(m.curvature, np.eye(4))
        np.testing.assert_allclose(m.curvature_second, p.L_bar)
        expect = (p.b / np.sqrt(p.diag)).mean(axis=0) / 2.0
        np.testing.assert_allclose(m.linear, expect, atol=1e-14)

    def test_closed_form_for_random_sparsifiers(self):
        """rand_q and bernoulli have closed E[B], E[B L_bar B] and mean linear
        term; E[B] is the documented diagonal/off-diagonal scaling of L_bar."""
        p = het_problem(2, 4, seed=9)
        D = np.diag(np.diag(p.L_bar))
        for kind, eb in ((SketchKind.rand_q(2), 2.0 * D + (2.0 / 3.0) * (p.L_bar - D)),
                         (SketchKind.bernoulli(0.5), 2.0 * D + (p.L_bar - D))):
            m = closed_moments(kind, p)
            assert m.method == "closed_form"
            np.testing.assert_allclose(m.curvature, eb, rtol=1e-14, atol=1e-14)
            np.testing.assert_array_equal(m.linear, p.b_bar)
            np.testing.assert_allclose(m.curvature_second,
                                       enumerated_moments(kind, p).curvature_second,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_enumeration_matches_closed_forms_square(self, n):
        p = het_problem(n, n, seed=n + 10)
        for kind in (
            SketchKind.perm_q(),
            SketchKind.scaled_perm_homog(),
            SketchKind.scaled_perm_het(),
        ):
            closed = closed_moments(kind, p)
            enum = enumerated_moments(kind, p)
            np.testing.assert_allclose(enum.curvature, closed.curvature, atol=1e-12)
            if closed.linear is not None:
                np.testing.assert_allclose(enum.linear, closed.linear, atol=1e-12)
            if closed.curvature_second is not None:
                np.testing.assert_allclose(
                    enum.curvature_second, closed.curvature_second, atol=1e-12
                )

    def test_enumeration_matches_closed_form_perm_q_blocks(self):
        p = het_problem(2, 6, seed=15)  # q = 3
        closed = closed_moments(SketchKind.perm_q(), p)
        enum = enumerated_moments(SketchKind.perm_q(), p)
        np.testing.assert_allclose(enum.curvature, closed.curvature, atol=1e-11)
        np.testing.assert_allclose(enum.linear, closed.linear, atol=1e-12)

    def test_enumeration_matches_closed_form_scaled_blocks(self):
        p = gen_homogeneous(2, 6, seed=16)
        closed = closed_moments(SketchKind.scaled_perm_homog(), p)
        enum = enumerated_moments(SketchKind.scaled_perm_homog(), p)
        np.testing.assert_allclose(enum.curvature, closed.curvature, atol=1e-12)
        np.testing.assert_allclose(enum.linear, closed.linear, atol=1e-12)

    def test_enumeration_matches_closed_form_scaled_blocks_heterogeneous(self):
        p = het_problem(2, 6, seed=26)
        closed = closed_moments(SketchKind.scaled_perm_homog(), p)
        enum = enumerated_moments(SketchKind.scaled_perm_homog(), p)
        np.testing.assert_allclose(enum.curvature, closed.curvature, atol=1e-12)
        np.testing.assert_allclose(enum.linear, closed.linear, atol=1e-12)

    def test_enumeration_matches_closed_form_multiset(self):
        p = gen_homogeneous(6, 3, seed=17)
        closed = closed_moments(SketchKind.perm_multiset(), p)
        enum = enumerated_moments(SketchKind.perm_multiset(), p)
        np.testing.assert_allclose(enum.curvature, closed.curvature, atol=1e-12)
        np.testing.assert_allclose(enum.curvature_second, closed.curvature_second, atol=1e-12)
        np.testing.assert_allclose(enum.linear, closed.linear, atol=1e-12)

    def test_scaled_het_blocks_identity_expectation(self):
        p = het_problem(2, 6, seed=18)  # q = 3 blocks
        enum = enumerated_moments(SketchKind.scaled_perm_het(), p)
        np.testing.assert_allclose(enum.curvature, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(enum.curvature_second, p.L_bar, atol=1e-12)


def random_symmetric(rng, *shape):
    a = rng.standard_normal(shape)
    return a + np.swapaxes(a, -1, -2)


def direct_pattern_sum(pattern, L, M):
    """The restricted sum of ``pattern`` by brute force: every term of
    sum_z L[z,a,c] M[c,e] L[z,e,b] over all (a, c, e, b), kept where the
    tuple meets the pattern's equalities."""
    d = M.shape[0]
    terms = np.einsum("zac,ce,zeb->aceb", L, M, L)
    pairs = [(x, y) for x in range(4) for y in range(x) if pattern[x] == pattern[y]]
    out = np.zeros((d, d))
    for t in itertools.product(range(d), repeat=4):
        if all(t[x] == t[y] for x, y in pairs):
            out[t[0], t[3]] += terms[t]
    return out


class TestPatternSums:
    @pytest.mark.parametrize("z", [1, 3])
    @pytest.mark.parametrize("pattern", sketches._PATTERNS)
    def test_each_pattern_matches_a_direct_loop(self, pattern, z):
        # every pattern, also those today's families weight zero
        rng = np.random.default_rng(sum(pattern) + 10 * z)
        L, M = random_symmetric(rng, z, 5, 5), random_symmetric(rng, 5, 5)
        got = sketches._pattern_sums(L, M, {pattern: 1.0})
        np.testing.assert_allclose(got, direct_pattern_sum(pattern, L, M), rtol=1e-12, atol=1e-12)

    def test_chunked_clients_match_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, d = 7, 4
        L, M = random_symmetric(rng, n, d, d), random_symmetric(rng, d, d)
        weights = dict(zip(sketches._PATTERNS, rng.standard_normal(len(sketches._PATTERNS))))
        whole = sketches._pattern_sums(L, M, weights)
        monkeypatch.setattr(sketches, "CHUNK_BYTES", 2 * 8 * d * d)  # chunks of 2, 2, 2, 1
        np.testing.assert_allclose(sketches._pattern_sums(L, M, weights), whole,
                                   rtol=1e-13, atol=1e-13)

    def test_working_set_does_not_grow_with_clients(self):
        # d = 300 takes two clients per chunk, so the peak beyond the inputs is
        # a few (d, d) stacks whatever n is
        peaks = []
        for n in (4, 16):
            p = het_problem(n, 300, seed=n)
            p.L_bar
            tracemalloc.start()
            try:
                closed_moments(SketchKind.rand_q(30), p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_working_arrays_are_freed_on_return(self):
        # no reference cycle keeps a chunk's products alive until a collection
        p = het_problem(3, 6, seed=1)
        closed_moments(SketchKind.rand_q(2), p)
        gc.collect()
        gc.disable()
        try:
            closed_moments(SketchKind.rand_q(2), p)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumerationOracle:
    def test_rand_q_tiny_case_by_hand(self):
        L = np.array([[2.0, 0.5], [0.5, 3.0]])
        p = QuadraticProblem.from_arrays([L], [np.zeros(2)])
        enum = enumerated_moments(SketchKind.rand_q(1), p)
        # outcomes: 4 L11 e1 e1^T and 4 L22 e2 e2^T, each prob 1/2
        np.testing.assert_allclose(enum.curvature, np.diag([4.0, 6.0]), atol=1e-14)

    def test_perm1_enumeration_three_clients(self):
        p = gen_homogeneous(3, 3, seed=19)
        enum = enumerated_moments(SketchKind.perm_q(), p)
        np.testing.assert_allclose(
            enum.curvature, 3.0 * np.diag(np.diag(p.L[0])), atol=1e-12
        )

    def test_budget_guard(self):
        p = het_problem(10, 10, seed=20)
        with pytest.raises(TooLarge):
            enumerated_moments(SketchKind.perm_q(), p)
        with pytest.raises(TooLarge):
            enumerated_moments(SketchKind.bernoulli(0.5), p)

    def test_probabilities_sum_to_one(self):
        p = het_problem(2, 3, seed=21)
        for kind in (
            SketchKind.perm_q(3),
            SketchKind.rand_q(2),
            SketchKind.bernoulli(0.3),
        ):
            if kind.kind == "perm_q":
                continue  # shape-incompatible here; covered elsewhere
            total = sum(prob for prob, _ in enumerate_outcomes(kind, p))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestMonteCarlo:
    def test_identity_exact_zero_variance(self):
        p = het_problem(2, 3, seed=22)
        m = monte_carlo_moments(SketchKind.identity(), p, 7, np.random.default_rng(0))
        np.testing.assert_allclose(m.curvature, p.L_bar, atol=1e-15)
        assert np.all(m.curvature_stderr <= 1e-15)

    def test_bernoulli_p1_exact(self):
        p = het_problem(2, 3, seed=23)
        m = monte_carlo_moments(SketchKind.bernoulli(1.0), p, 5, np.random.default_rng(0))
        np.testing.assert_allclose(m.curvature, p.L_bar, atol=1e-12)
        assert np.all(m.curvature_stderr <= 1e-12)

    def test_perm1_homogeneous_within_standard_errors(self):
        p = gen_homogeneous(4, 4, seed=24)
        m = monte_carlo_moments(SketchKind.perm_q(), p, 100_000, np.random.default_rng(1))
        target = 4.0 * np.diag(np.diag(p.L[0]))
        tol = 5.0 * m.curvature_stderr + 1e-9
        assert np.all(np.abs(m.curvature - target) <= tol)


class TestBudgetMessage:
    def test_huge_outcome_count_raises_too_large(self):
        # 2000! has more digits than Python will format into a message
        p = QuadraticProblem.from_arrays(np.ones((2000, 1, 1)), np.ones((2000, 1)))
        with pytest.raises(TooLarge):
            next(enumerate_outcomes(SketchKind.perm_multiset(), p))
