import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istlab import linalg
from istlab.certificates import (
    certificate,
    contraction_factor,
    descent_matrix,
    estimator_bias,
    expected_iterate,
    fixed_point,
    function_gap_bound,
    interpolation_rates,
    minimize_psi,
    neighborhood_psi,
    stationarity_bound,
    step_cap,
    step_constant,
)
from istlab.errors import (
    BetaOutOfRange,
    DenominatorNonpositive,
    IstLabError,
    SingularMatrix,
    StepSizeOutOfRange,
    StepTooLarge,
    ThetaInadmissible,
    WrongKind,
)
from istlab.estimators import EstimatorKind, estimate, heterogeneity_variance
from istlab.quadratics import (
    QuadraticProblem,
    ensure_nondegenerate,
    gen_heterogeneous,
    gen_homogeneous,
    precondition_homogeneous,
)
from istlab.runner import RunConfig, StepSchedule, run
from istlab.sketches import FAMILIES, SketchKind, SketchMoments, closed_moments


def indefinite_descent_problem():
    L = np.array([[1.0, 1.5], [1.5, 1.0]])
    return QuadraticProblem.from_arrays([L, L], [[0.0, 0.0], [0.0, 0.0]])


def equicorrelation_zero_bias(n):
    # unit-diagonal matrix whose all-ones eigenvector has eigenvalue sqrt(n),
    # paired with an all-ones linear term: the estimator bias vanishes.
    alpha = (np.sqrt(n) - 1.0) / (n - 1.0)
    L = (1.0 - alpha) * np.eye(n) + alpha * np.ones((n, n))
    ones = np.ones(n)
    return QuadraticProblem.from_arrays([L] * n, [ones] * n)


class TestDescentMatrix:
    def test_identity_sketch_gives_square(self):
        p = gen_heterogeneous(3, 4, seed=1)
        W = descent_matrix(p, SketchKind.identity())
        np.testing.assert_allclose(W, p.L_bar @ p.L_bar, atol=1e-12)

    def test_scaled_het_gives_mean_matrix(self):
        p = gen_heterogeneous(4, 4, seed=2)
        W = descent_matrix(p, SketchKind.scaled_perm_het())
        np.testing.assert_allclose(W, p.L_bar, atol=1e-12)

    def test_correlated_counterexample_is_indefinite(self):
        p = indefinite_descent_problem()
        W = descent_matrix(p, SketchKind.perm_q())
        # n/2 (L D + D L) with D = I: proportional to L itself
        np.testing.assert_allclose(W, 2.0 * p.L_bar, atol=1e-14)
        assert np.linalg.det(W) < 0
        assert not linalg.psd_check(W)


class TestStepConstant:
    def test_identity_sketch_gives_largest_eigenvalue(self):
        p = gen_heterogeneous(3, 5, seed=3)
        theta = step_constant(p, SketchKind.identity())
        lam_max = float(np.linalg.eigvalsh(p.L_bar).max())
        assert theta == pytest.approx(lam_max, rel=1e-9)

    def test_scaled_het_gives_one(self):
        p = gen_heterogeneous(4, 4, seed=4)
        assert step_constant(p, SketchKind.scaled_perm_het()) == pytest.approx(1.0, abs=1e-9)

    def test_correlated_counterexample_inadmissible(self):
        assert step_constant(indefinite_descent_problem(), SketchKind.perm_q()) is None

    def test_perm1_preconditioned_homogeneous_gives_n(self):
        p, _ = precondition_homogeneous(gen_homogeneous(6, 6, seed=5))
        assert step_constant(p, SketchKind.perm_q()) == pytest.approx(6.0, rel=1e-9)

    def test_diagonal_homogeneous_hand_value(self):
        L = np.diag([2.0, 5.0])
        p = QuadraticProblem.from_arrays([L, L], [[0.0, 0.0], [0.0, 0.0]])
        # diagonal case: theta = n * max diag entry
        assert step_constant(p, SketchKind.perm_q()) == pytest.approx(10.0, rel=1e-12)

    def test_admissibility_inequality_holds(self):
        for seed in range(5):
            p = gen_heterogeneous(4, 4, seed=seed)
            for kind in (SketchKind.identity(), SketchKind.scaled_perm_het()):
                m = closed_moments(kind, p)
                theta = step_constant(p, kind, m)
                W = descent_matrix(p, kind, m)
                gap = theta * W - m.curvature_second
                lam = np.linalg.eigvalsh(linalg.symmetrize(gap)).min()
                scale = np.abs(np.linalg.eigvalsh(m.curvature_second)).max()
                assert lam >= -1e-9 * scale


# Householder reflection I - (2/3) 11^T: an orthogonal basis that does not
# line up with the coordinate axes.
_Q3 = np.eye(3) - (2.0 / 3.0) * np.ones((3, 3))


def rank_deficient_theta(curvature, second):
    """step_constant on L_bar = I, so W = E[B], with hand-made moments."""
    p = QuadraticProblem.from_arrays([np.eye(3), np.eye(3)], np.zeros((2, 3)))
    m = SketchMoments(
        curvature=_Q3 @ curvature @ _Q3.T,
        curvature_second=_Q3 @ second @ _Q3.T,
        linear=None,
        method="closed_form",
    )
    return step_constant(p, SketchKind.identity(), m)


class TestStepConstantRankDeficient:
    def test_second_moment_inside_range_gives_pencil_value(self):
        # on range(W) = span(q1, q2): W^{-1/2} S W^{-1/2} = [[2, 1/sqrt2], [1/sqrt2, 3]]
        second = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        theta = rank_deficient_theta(np.diag([2.0, 1.0, 0.0]), second)
        assert theta == pytest.approx((5.0 + np.sqrt(3.0)) / 2.0, rel=1e-12)

    def test_second_moment_leaking_into_null_space_is_inadmissible(self):
        second = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.5]])
        assert rank_deficient_theta(np.diag([2.0, 1.0, 0.0]), second) is None

    def test_zero_descent_and_zero_second_moment_give_one(self):
        assert rank_deficient_theta(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0

    def test_zero_descent_with_nonzero_second_moment_is_inadmissible(self):
        assert rank_deficient_theta(np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0])) is None

    def test_second_moment_equal_to_descent_gives_exactly_one(self):
        # curvature_second == W bit for bit: the pencil is the identity on range(W)
        W = np.diag([2.0, 1.0, 0.0])
        assert rank_deficient_theta(W, W) == 1.0


class TestInterpolationRates:
    def test_scaled_het_one_step(self):
        p = gen_heterogeneous(5, 5, seed=6).as_interpolation()
        coeff, rho = interpolation_rates(p, SketchKind.scaled_perm_het(), gamma=1.0)
        assert coeff == pytest.approx(2.0)
        assert rho == pytest.approx(0.0, abs=1e-9)

    def test_identity_recovers_condition_number_rate(self):
        p = gen_heterogeneous(3, 6, seed=7).as_interpolation()
        vals = np.linalg.eigvalsh(p.L_bar)
        gamma = 1.0 / vals[-1]
        _, rho = interpolation_rates(p, SketchKind.identity(), gamma)
        assert rho == pytest.approx(1.0 - vals[0] / vals[-1], rel=1e-8)

    def test_small_gamma_gives_no_progress_limit(self):
        p = gen_heterogeneous(3, 4, seed=8).as_interpolation()
        _, rho = interpolation_rates(p, SketchKind.identity(), 1e-12)
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_step_too_large_rejected(self):
        p = gen_heterogeneous(3, 4, seed=9).as_interpolation()
        theta = step_constant(p, SketchKind.identity())
        with pytest.raises(StepTooLarge):
            interpolation_rates(p, SketchKind.identity(), 2.0 / theta)

    def test_inadmissible_pair_raises(self):
        with pytest.raises(ThetaInadmissible):
            interpolation_rates(indefinite_descent_problem(), SketchKind.perm_q(), 0.1)


class TestBiasAndFixedPoint:
    def test_hand_case_identity_matrices(self):
        b = np.array([1.0, -2.0, 3.0, 0.5])
        p = QuadraticProblem.from_arrays([np.eye(4)] * 4, [b] * 4)
        np.testing.assert_allclose(estimator_bias(p), b / 2.0, atol=1e-12)
        np.testing.assert_allclose(fixed_point(p, SketchKind.scaled_perm_het()), b / 2.0, atol=1e-12)

    def test_homogeneous_fixed_point_scaling(self):
        L = np.eye(4)
        c = np.full(4, 2.0)
        p = QuadraticProblem.from_arrays([L] * 4, [c] * 4)
        np.testing.assert_allclose(
            fixed_point(p, SketchKind.scaled_perm_homog()), np.ones(4), atol=1e-14
        )

    def test_bias_identity_on_random_ensembles(self):
        for seed in range(20):
            n = 2 + seed % 6
            p = gen_heterogeneous(n, n, seed=seed)
            h = estimator_bias(p)
            gap = p.solution() - fixed_point(p, SketchKind.scaled_perm_het())
            np.testing.assert_allclose(h, gap, atol=1e-10)

    def test_zero_bias_equicorrelation(self):
        p = equicorrelation_zero_bias(16)
        h = estimator_bias(p)
        assert np.linalg.norm(h) <= 1e-10

    def test_wrong_kind_rejected(self):
        p = gen_heterogeneous(3, 3, seed=10)
        with pytest.raises(WrongKind):
            fixed_point(p, SketchKind.rand_q(1))

    def test_homogeneous_kinds_require_unit_diagonal(self):
        p = gen_homogeneous(4, 4, seed=11)  # not preconditioned
        with pytest.raises(WrongKind):
            fixed_point(p, SketchKind.scaled_perm_homog())


class TestExpectedIterate:
    def test_k_zero_returns_start(self):
        p = gen_heterogeneous(4, 4, seed=12)
        x0 = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_array_equal(
            expected_iterate(p, SketchKind.scaled_perm_het(), x0, 0.5, 0), x0
        )

    def test_large_k_converges_to_fixed_point(self):
        p = gen_heterogeneous(4, 4, seed=13)
        x0 = np.random.default_rng(1).standard_normal(4)
        x_inf = fixed_point(p, SketchKind.scaled_perm_het())
        for k in (10, 40):
            x_k = expected_iterate(p, SketchKind.scaled_perm_het(), x0, 0.5, k)
            assert np.linalg.norm(x_k - x_inf) <= 0.5**k * np.linalg.norm(x0 - x_inf) + 1e-12

    def test_gamma_one_jumps_immediately(self):
        p = gen_heterogeneous(3, 3, seed=14)
        x0 = np.ones(3)
        x1 = expected_iterate(p, SketchKind.scaled_perm_het(), x0, 1.0, 1)
        np.testing.assert_allclose(x1, fixed_point(p, SketchKind.scaled_perm_het()), atol=1e-14)

    def test_matches_monte_carlo_mean(self):
        p = gen_heterogeneous(4, 4, seed=15)
        est = EstimatorKind.ist(SketchKind.scaled_perm_het())
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(4)
        R, k_target = 2000, 10
        acc = np.zeros((R, 4))
        for r in range(R):
            x = x0.copy()
            for _ in range(k_target):
                g, _ = estimate(est, p, x, rng)
                x = x - 0.5 * g
            acc[r] = x
        exact = expected_iterate(p, SketchKind.scaled_perm_het(), x0, 0.5, k_target)
        se = acc.std(axis=0) / np.sqrt(R)
        assert np.all(np.abs(acc.mean(axis=0) - exact) <= 5.0 * se + 1e-12)


class TestStationarityBound:
    def test_gamma_one_rejected_for_default_c(self):
        p = gen_heterogeneous(3, 3, seed=16)
        with pytest.raises(StepSizeOutOfRange):
            stationarity_bound(p, gamma=1.0, beta=0.1, K=10, f0=1.0)

    def test_step_cap_arithmetic(self):
        assert step_cap(0.25, 0.5) == pytest.approx(1.0 / 3.0)

    def test_beta_must_leave_room_for_c(self):
        with pytest.raises(BetaOutOfRange):
            step_cap(0.6, 0.5)
        with pytest.raises(BetaOutOfRange):
            step_cap(-1.0, 0.5)

    def test_interpolation_reduces_to_decay_term(self):
        p = gen_heterogeneous(3, 3, seed=17).as_interpolation()
        f0 = 5.0
        curve = stationarity_bound(p, gamma=0.5, beta=0.1, K=4, f0=f0)
        assert curve.neighborhood == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            curve.values, 2.0 * f0 / (0.5 * np.arange(1, 5)), rtol=1e-12
        )

    def test_half_c_coefficient_structure(self):
        p = gen_heterogeneous(3, 3, seed=18)
        gamma, beta = 0.5, 0.1
        curve = stationarity_bound(p, gamma=gamma, beta=beta, K=3, f0=2.0)
        h_sq = curve.bias_sqnorm
        expected_neigh = (2.0 / beta * (1.0 - gamma) + gamma) * h_sq + gamma * curve.sigma2
        assert curve.neighborhood == pytest.approx(expected_neigh, rel=1e-12)

    def test_general_c_scales_first_term(self):
        p = gen_heterogeneous(3, 3, seed=19).as_interpolation()
        c = 0.25
        curve = stationarity_bound(p, gamma=0.5, beta=0.2, K=2, f0=1.0, c=c)
        assert curve.values[0] == pytest.approx(1.0 / (c * 0.5), rel=1e-12)


class TestFunctionGapBound:
    def test_gamma_one_equals_realized_neighborhood(self):
        p, _ = precondition_homogeneous(gen_homogeneous(8, 8, seed=20))
        est = EstimatorKind.ist(SketchKind.scaled_perm_homog())
        x0 = np.random.default_rng(5).standard_normal(8)
        g, _ = estimate(est, p, x0, np.random.default_rng(0))
        x1 = x0 - g
        f_star = p.f(p.solution())
        realized_gap = p.f(x1) - f_star
        bound = function_gap_bound(p, gamma=1.0, beta=0.2, c=0.5, k=1, f0=p.f(x0))
        # gamma = 1, c = 1/2: the decay term dies and the neighborhood equals
        # the realized gap at the fixed point exactly
        assert realized_gap == pytest.approx(bound, rel=1e-9)
        assert bound >= realized_gap - 1e-12

    def test_neighborhood_only_in_the_limit(self):
        p, _ = precondition_homogeneous(gen_homogeneous(4, 4, seed=21))
        b_inf = function_gap_bound(p, gamma=0.5, beta=0.2, c=0.25, k=10_000, f0=10.0)
        h = estimator_bias(p)
        neigh = (1.0 / 0.5) * ((1.0 - 0.5) / 0.2 + 0.25) * linalg.weighted_sqnorm(h, p.L_bar)
        assert b_inf == pytest.approx(neigh, rel=1e-12)

    def test_requires_preconditioned_homogeneous(self):
        p = gen_homogeneous(4, 4, seed=22)
        with pytest.raises(WrongKind):
            function_gap_bound(p, gamma=0.5, beta=0.2, c=0.25, k=3, f0=1.0)

    def test_heterogeneous_problem_error_names_the_bound(self):
        p = gen_heterogeneous(3, 3, seed=1)
        with pytest.raises(WrongKind, match="function_gap_bound requires a homogeneous"):
            function_gap_bound(p, gamma=0.5, beta=0.2, c=0.25, k=3, f0=1.0)


class TestNeighborhoodPsi:
    def test_gamma_one_gives_one(self):
        for beta in (0.1, 1.0, 4.0):
            assert neighborhood_psi(beta, 1.0) == pytest.approx(1.0)

    def test_infeasible_region_raises(self):
        with pytest.raises(DenominatorNonpositive):
            neighborhood_psi(5.0, 0.1)
        with pytest.raises(BetaOutOfRange):
            neighborhood_psi(0.0, 0.5)

    def test_grid_minimum_reported(self):
        beta_star, gamma_star, psi_star = minimize_psi(beta_max=5.0, step=5e-3)
        # the multiplier is minimized on the gamma = 1 boundary where it
        # equals 1 for every beta; the grid reports that plateau
        assert gamma_star == pytest.approx(1.0, abs=5e-3)
        assert psi_star == pytest.approx(1.0, abs=1e-9)


class TestInterpolationDescentBound:
    @staticmethod
    def _avg_weighted_grad_bound(p, kind, gamma, seed, K=12):
        from istlab.runner import RunConfig, StepSchedule, run

        W = descent_matrix(p, kind)
        inv = linalg.psd_pinv(p.L_bar)
        weight = inv @ W @ inv
        cfg = RunConfig(
            problem=p,
            estimator=EstimatorKind.ist(kind),
            schedule=StepSchedule.constant(gamma),
            K=K,
            seed=seed,
            metrics=(),
            record_iterates=True,
        )
        t = run(cfg)
        grads = np.array([p.grad(x) for x in t.iterates[0, :-1]])
        lhs = np.mean([linalg.weighted_sqnorm(g, weight) for g in grads])
        rhs = 2.0 * (p.f(t.x0) - float(t.final_f[0])) / (gamma * K)
        return lhs, rhs

    def test_scaled_het_at_certified_step(self):
        for seed in range(5):
            p = gen_heterogeneous(6, 6, seed=seed).as_interpolation()
            theta = step_constant(p, SketchKind.scaled_perm_het())
            lhs, rhs = self._avg_weighted_grad_bound(
                p, SketchKind.scaled_perm_het(), 1.0 / theta, seed
            )
            assert lhs <= rhs * (1.0 + 1e-8) + 1e-12

    def test_unscaled_perm_on_preconditioned_homogeneous(self):
        for seed in range(5):
            p, _ = precondition_homogeneous(gen_homogeneous(8, 8, seed=seed))
            p = p.as_interpolation()
            theta = step_constant(p, SketchKind.perm_q())
            assert theta == pytest.approx(8.0, rel=1e-9)
            lhs, rhs = self._avg_weighted_grad_bound(
                p, SketchKind.perm_q(), 1.0 / theta, seed
            )
            assert lhs <= rhs * (1.0 + 1e-8) + 1e-12


class TestFenchelYoung:
    def test_weighted_inequality(self):
        rng = np.random.default_rng(23)
        for beta in (0.1, 1.0, 10.0):
            for _ in range(30):
                d = int(rng.integers(2, 8))
                a = rng.standard_normal((d, d))
                M = a.T @ a + np.eye(d)
                x = rng.standard_normal(d)
                y = rng.standard_normal(d)
                lhs = float(x @ y)
                rhs = beta * linalg.weighted_sqnorm(x, M) + 0.25 / beta * linalg.weighted_sqnorm(
                    y, linalg.psd_pinv(M)
                )
                assert lhs <= rhs + 1e-10


def count_eigensolves(monkeypatch) -> dict:
    """Count np.linalg.eigh and eigvalsh calls from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


class TestCertificate:
    def test_full_certificate_scaled_het(self):
        p = gen_heterogeneous(4, 4, seed=24)
        cert = certificate(p, SketchKind.scaled_perm_het())
        assert cert.admissible
        assert cert.theta == pytest.approx(1.0, abs=1e-9)
        assert cert.rho == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(cert.bias, estimator_bias(p), atol=1e-12)
        assert cert.sigma2 is not None and cert.sigma2 > 0.0

    def test_certificate_on_counterexample(self):
        cert = certificate(indefinite_descent_problem(), SketchKind.perm_q())
        assert not cert.admissible
        assert not cert.descent_psd
        assert cert.rho is None

    def test_descent_matrix_eigendecomposed_once(self, monkeypatch):
        # one eigh of W (PSD flag, theta, null space) and one of L_bar for rho;
        # eigvalsh once for the pencil and once for rho
        p = gen_heterogeneous(3, 5, seed=3)
        calls = {"eigh": 0, "eigvalsh": 0}

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        certificate(p, SketchKind.identity())
        assert calls == {"eigh": 2, "eigvalsh": 2}

    @pytest.mark.parametrize("kind, first, again", [
        # E[B] = I: W is L_bar bit for bit, so W, rho and x* share one spectrum,
        # and theta and rho are exact (no pencil, no eigvalsh)
        (SketchKind.scaled_perm_het(), (1, 0), (0, 0)),
        # W needs its own eigh on every call; L_bar's (for rho) is cached;
        # eigvalsh once for the pencil and once for rho
        (SketchKind.perm_q(), (2, 2), (1, 2)),
    ], ids=["scaled_perm_het", "perm_q"])
    def test_problem_spectrum_computed_once(self, monkeypatch, kind, first, again):
        p = gen_heterogeneous(4, 4, seed=4).as_interpolation()
        calls = count_eigensolves(monkeypatch)
        cert = certificate(p, kind)
        assert cert.rho is not None
        assert (calls["eigh"], calls["eigvalsh"]) == first
        calls.update(eigh=0, eigvalsh=0)
        certificate(p, kind)
        assert (calls["eigh"], calls["eigvalsh"]) == again

    def test_contraction_factor_monotone_in_gamma(self):
        p = gen_heterogeneous(3, 4, seed=25)
        W = descent_matrix(p, SketchKind.identity())
        rhos = [contraction_factor(p, W, g) for g in (0.001, 0.01, 0.05)]
        assert rhos[0] > rhos[1] > rhos[2]


class TestExactRoute:
    """E[B] = I (scaled_perm_het): W, theta and rho with no products, no pencil
    and no eigvalsh, chosen by bitwise tests on the matrices."""

    @pytest.mark.parametrize("n, d", [(4, 4), (10, 100)])
    def test_scaled_het_certificate_is_exact(self, n, d):
        p = gen_heterogeneous(n, d, seed=60 + d)
        kind = SketchKind.scaled_perm_het()
        cert = certificate(p, kind)
        assert cert.theta == 1.0
        assert cert.gamma_max == 1.0
        assert cert.rho == 0.0
        assert certificate(p, kind, gamma=0.3).rho == 1.0 - 0.3

    @pytest.mark.parametrize("n, d", [(4, 4), (10, 100)])
    def test_identity_mean_descent_equals_product_formula(self, n, d):
        p = gen_heterogeneous(n, d, seed=70 + d)
        eye = np.eye(d)
        want = 0.5 * linalg.symmetrize(p.L_bar @ eye + eye @ p.L_bar)
        np.testing.assert_array_equal(descent_matrix(p, SketchKind.scaled_perm_het()), want)

    def test_singular_mean_matrix_keeps_the_general_rho(self):
        # unit diagonal, so E[B] = I and W = L_bar, but L_bar = 11^T has rank one
        L = np.ones((3, 3))
        p = QuadraticProblem.from_arrays([L] * 3, np.zeros((3, 3)))
        W = descent_matrix(p, SketchKind.scaled_perm_het())
        np.testing.assert_array_equal(W, p.L_bar)
        inv_sqrt = p.spectrum.apply_function(lambda v: 1.0 / np.sqrt(v))
        lam_min = float(np.linalg.eigvalsh(linalg.symmetrize(inv_sqrt @ W @ inv_sqrt)).min())
        rho = contraction_factor(p, W, 0.5)
        assert rho == 1.0 - 0.5 * lam_min
        assert rho == pytest.approx(1.0, abs=1e-12)


def reference_rho(p, W, gamma):
    """rho by its formula, with a d x d clamped L_bar^{-1/2}, as it was computed before
    the pencil routine."""
    inv_sqrt = p.spectrum.apply_function(lambda v: 1.0 / np.sqrt(v))
    return 1.0 - gamma * float(np.linalg.eigvalsh(linalg.symmetrize(inv_sqrt @ W @ inv_sqrt)).min())


class TestPencilRho:
    # every family without B = I at 2 x 6, 3 x 30 and 10 x 100; perm_multiset,
    # which needs n = c d, at 6 x 2, 30 x 3 and 100 x 10
    @pytest.mark.parametrize("kind, n, d", [
        (kind, *shape)
        for kind in (SketchKind.identity(), SketchKind.perm_q(), SketchKind.perm_multiset(),
                     SketchKind.scaled_perm_homog(), SketchKind.rand_q(2), SketchKind.bernoulli(0.5))
        for shape in ((2, 6), (3, 30), (10, 100))
        for shape in ([shape[::-1]] if kind.kind == "perm_multiset" else [shape])
    ], ids=lambda v: v.kind if isinstance(v, SketchKind) else str(v))
    def test_rho_matches_the_inverse_square_root_formula(self, kind, n, d):
        p = gen_heterogeneous(n, d, seed=80 + d)
        cert = certificate(p, kind)
        assert not kind.family.unit_curvature and cert.rho is not None
        want = reference_rho(p, cert.descent, cert.gamma)
        assert abs(cert.rho - want) <= 1e-14 * max(1.0, abs(want))

    def test_no_d_by_d_inverse_square_root_is_formed(self, monkeypatch):
        p = gen_heterogeneous(3, 6, seed=2)
        W = descent_matrix(p, SketchKind.identity())

        def refuse(*args, **kwargs):
            raise AssertionError("apply_function called")
        monkeypatch.setattr(linalg.Spectrum, "apply_function", refuse)
        assert contraction_factor(p, W, 0.1) < 1.0


def test_indefinite_mean_makes_rho_raise_what_solution_raises():
    # the certificate's null rho and its note are checked through `istlab theory`
    p = QuadraticProblem.from_arrays([np.diag([1.0, -1.0])], [[1.0, 2.0]])
    W = descent_matrix(p, SketchKind.identity())
    for call in (p.solution, lambda: contraction_factor(p, W, 0.5),
                 lambda: interpolation_rates(p, SketchKind.identity(), 0.5)):
        with pytest.raises(SingularMatrix):
            call()


def _public_composition(p, kind):
    """Every certificate field, rebuilt from the public building blocks."""
    W = descent_matrix(p, kind)
    theta = step_constant(p, kind)
    gamma_max = None if theta is None or theta == 0.0 else 1.0 / theta
    gamma = None if theta is None else (gamma_max if gamma_max else 1.0)
    fields = {
        "descent": W,
        "descent_psd": linalg.psd_check(W),
        "theta": theta,
        "gamma_max": gamma_max,
        "gamma": gamma,
        "rho": None if theta is None else contraction_factor(p, W, gamma),
        "bias": None, "bias_norm": None, "x_inf": None, "sigma2": None,
    }
    if kind.kind == "scaled_perm_het":
        x_inf = fixed_point(p, kind)
        bias = p.solution() - x_inf
        fields.update(
            bias=bias,
            bias_norm=np.sqrt(max(linalg.weighted_sqnorm(bias, p.L_bar), 0.0)),
            x_inf=x_inf,
            sigma2=heterogeneity_variance(p, EstimatorKind.ist(kind)),
        )
    elif kind.kind == "identity":
        fields["sigma2"] = 0.0
    return fields


class TestCertificateComposition:
    @pytest.mark.parametrize("make, kind", [
        (lambda: gen_heterogeneous(3, 5, seed=3), SketchKind.identity()),
        (lambda: gen_heterogeneous(4, 4, seed=4), SketchKind.scaled_perm_het()),
        (indefinite_descent_problem, SketchKind.perm_q()),
    ], ids=["identity", "scaled_perm_het", "fixture_perm_q"])
    def test_fields_equal_public_composition_bitwise(self, make, kind):
        p = make()
        cert = certificate(p, kind)
        for name, want in _public_composition(p, kind).items():
            got = getattr(cert, name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:
                assert got == want, name
        assert cert.notes == (() if cert.admissible else (
            "no finite step constant: descent matrix fails PSD or pencil leaks",))


def test_no_production_call_checks_or_symmetrizes_problem_data_again(monkeypatch):
    """The constructor makes L and L_bar finite and symmetric; no later call passes either
    (or a view of either) to linalg.symmetrize or linalg.check_finite."""
    seen = []

    def record(name):
        real = getattr(linalg, name)

        def wrapper(a, *args, **kwargs):
            seen.append((name, a))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(linalg, name, wrapper)
    record("symmetrize")
    record("check_finite")
    het = gen_heterogeneous(3, 3, seed=4)
    pre, _ = precondition_homogeneous(gen_homogeneous(3, 3, seed=2))
    L = np.array(het.L)
    L[1, 0, 2] += 1e-3  # one client for the constructor to symmetrize
    problems = [
        QuadraticProblem.from_arrays(L, het.b),
        QuadraticProblem.from_arrays(pre.L, pre.b),
        QuadraticProblem.from_json(het.to_json()),
        gen_heterogeneous(3, 3, seed=5),
    ]
    kinds = [SketchKind(name, *{"rand_q": (2,), "bernoulli": (None, 0.5)}.get(name, ()))
             for name in FAMILIES]
    for p in problems:
        ensure_nondegenerate(p)
        for kind in kinds:
            try:
                certificate(p, kind)
            except IstLabError:
                pass  # a family that does not cover p; only its calls matter
        stationarity_bound(p, gamma=0.5, beta=0.1, K=4, f0=1.0)
        if p.homogeneous:
            function_gap_bound(p, gamma=0.5, beta=0.2, c=0.25, k=3, f0=1.0)
    cfg = RunConfig(problem=problems[0], estimator=EstimatorKind.ist(SketchKind.scaled_perm_het()),
                    schedule=StepSchedule.constant(0.5), K=3, seed=1, metrics=("grad_sq_Linv",))
    run(cfg)
    data = [a for p in problems for a in (p.L, p.L_bar)]
    again = [name for name, a in seen if any(np.shares_memory(a, m) for m in data)]
    assert again == []
    assert any(name == "symmetrize" for name, _ in seen)  # the wrappers were in place


# (kind, mode, n, d) for the relabelling test: every family on a problem it
# covers, and at 10 x 100 each family that runs there, past every enumeration
# budget (q = 10 subset sums for scaled_perm_het, 100! permutations)
RELABEL_CASES = [
    (SketchKind.identity(), "het", 3, 4), (SketchKind.identity(), "het", 10, 100),
    (SketchKind.perm_q(), "het", 2, 4), (SketchKind.perm_q(), "het", 10, 100),
    (SketchKind.perm_multiset(), "hom", 4, 2), (SketchKind.perm_multiset(), "het", 6, 3),
    (SketchKind.scaled_perm_homog(), "hom", 3, 3), (SketchKind.scaled_perm_homog(), "hom", 10, 100),
    (SketchKind.scaled_perm_het(), "het", 3, 3), (SketchKind.scaled_perm_het(), "het", 2, 4),
    (SketchKind.scaled_perm_het(), "het", 10, 100), (SketchKind.scaled_perm_het(), "interp", 3, 6),
    (SketchKind.rand_q(2), "het", 3, 4), (SketchKind.rand_q(10), "het", 10, 100),
    (SketchKind.bernoulli(0.3), "het", 3, 4), (SketchKind.bernoulli(0.1), "het", 10, 100),
]


@functools.lru_cache(maxsize=None)
def relabel_problem(mode, n, d):
    if mode == "hom":
        return precondition_homogeneous(gen_homogeneous(n, d, seed=n + d))[0]
    p = gen_heterogeneous(n, d, seed=n + d)
    return p.as_interpolation() if mode == "interp" else p


def assert_permuted(got, want, *axes):
    """``got`` equals ``want`` with each of its leading axes indexed by the matching ``axes``,
    to 1e-9 of the largest entry (of 1 for a scalar: rho may round to 0); None must meet None."""
    assert (got is None) == (want is None)
    if want is not None:
        want = np.asarray(want)[np.ix_(*axes)] if axes else np.asarray(want)
        scale = max(np.abs(want).max(initial=0.0), 1e-300 if axes else 1.0)
        assert np.abs(np.asarray(got) - want).max(initial=0.0) <= 1e-9 * scale


@pytest.mark.parametrize("kind, mode, n, d", RELABEL_CASES,
                         ids=[f"{k.kind}-{m}-{n}x{d}" for k, m, n, d in RELABEL_CASES])
@settings(max_examples=3)
@given(data=st.data())
def test_relabelling_coordinates_and_clients_permutes_every_closed_form(kind, mode, n, d, data):
    """With L'_i = P L_{s(i)} P^T and b'_i = P b_{s(i)}, every closed moment and E[C_i]
    is permuted to match, x_inf is permuted, and theta, rho, sigma2 and ||h|| do not move."""
    p = relabel_problem(mode, n, d)
    pc = np.array(data.draw(st.permutations(range(d)), label="coordinates"))
    ps = np.array(data.draw(st.permutations(range(n)), label="clients"))
    q = QuadraticProblem(L=p.L[np.ix_(ps, pc, pc)], b=p.b[np.ix_(ps, pc)])
    before, after = closed_moments(kind, p), closed_moments(kind, q)
    for field in ("curvature", "curvature_second"):
        assert_permuted(getattr(after, field), getattr(before, field), pc, pc)
    assert_permuted(after.linear, before.linear, pc)
    means_before, means_after = kind.family.client_means(kind, p), kind.family.client_means(kind, q)
    assert (means_after is None) == (means_before is None)
    for i in range(n if means_before is not None else 0):
        assert_permuted(means_after[i], means_before[ps[i]], pc, pc)
    c, c2 = certificate(p, kind), certificate(q, kind)
    assert_permuted(c2.descent, c.descent, pc, pc)
    assert_permuted(c2.x_inf, c.x_inf, pc)
    for field in ("theta", "rho", "sigma2", "bias_norm"):
        assert_permuted(getattr(c2, field), getattr(c, field))
    assert c2.notes == c.notes
