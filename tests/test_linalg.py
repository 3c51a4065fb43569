import numpy as np
import pytest

from istlab import linalg
from istlab.errors import DimMismatch, NonFinite, NonPositiveDiagonal, SingularMatrix


def random_symmetric(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def reconstruct(spec):
    """V diag(lambda) V^T of a spectrum."""
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.T


def psd_inv_sqrt(m):
    """Symmetric inverse square root of a PSD matrix (pseudo-inverse style)."""
    return linalg.eig_sym(m).apply_function(lambda v: 1.0 / np.sqrt(v), linalg.RANK_TOL_FACTOR)


def solve_psd(m, v):
    """Solve M x = v for symmetric PSD M via the clamped eigen factorization."""
    return linalg.psd_pinv(m) @ v


class TestEigSym:
    def test_diagonal_matrix(self):
        spec = linalg.eig_sym(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0])

    def test_identity(self):
        spec = linalg.eig_sym(np.eye(4))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(4))

    def test_hand_computed_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0
        spec = linalg.eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(NonFinite):
            linalg.eig_sym(m)

    @pytest.mark.parametrize("d", [2, 17, 64, 200])
    def test_roundtrip_random(self, d):
        rng = np.random.default_rng(d)
        m = random_symmetric(rng, d)
        spec = linalg.eig_sym(m)
        err = np.linalg.norm(reconstruct(spec) - m) / np.linalg.norm(m)
        assert err <= linalg.EIG_TOL
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-9
        assert (np.diff(spec.eigenvalues) >= 0).all()


class TestWeightedSqnorm:
    def test_identity_weight(self):
        assert linalg.weighted_sqnorm(np.array([1.0, 0.0]), np.eye(2)) == 1.0

    def test_hand_expanded(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert linalg.weighted_sqnorm(np.array([1.0, 1.0]), m) == pytest.approx(6.0, abs=1e-14)

    def test_zero_vector(self):
        assert linalg.weighted_sqnorm(np.zeros(3), np.eye(3)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            linalg.weighted_sqnorm(np.ones(3), np.eye(2))

    def test_symmetrization_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            x = rng.standard_normal(5)
            assert linalg.weighted_sqnorm(x, m) == linalg.weighted_sqnorm(x, linalg.symmetrize(m))


class TestPsdCheck:
    def test_identity_true(self):
        assert linalg.psd_check(np.eye(3))

    def test_indefinite_false(self):
        # det = 1 - 2.25 < 0
        assert not linalg.psd_check(np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_zero_matrix_boundary(self):
        assert linalg.psd_check(np.zeros((4, 4)))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            linalg.psd_check(np.eye(2), tol=-1.0)


class TestPrecondition:
    def test_hand_computed(self):
        L = np.array([[4.0, 2.0], [2.0, 9.0]])
        out = linalg.precondition(L, np.diag(L))
        np.testing.assert_allclose(out, [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]], atol=1e-15)

    def test_identity_unchanged(self):
        np.testing.assert_array_equal(linalg.precondition(np.eye(3), np.ones(3)), np.eye(3))

    def test_diagonal_becomes_identity(self):
        L = np.diag([3.0, 7.0])
        np.testing.assert_allclose(linalg.precondition(L, np.diag(L)), np.eye(2), atol=1e-15)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(NonPositiveDiagonal):
            linalg.precondition(np.eye(2), np.array([1.0, 0.0]))

    def test_unit_diagonal_on_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            b = rng.standard_normal((d, d))
            L = b.T @ b
            out = linalg.precondition(L, np.diag(L))
            assert np.abs(np.diag(out) - 1.0).max() <= 1e-12


class TestTraceInequality:
    def test_preconditioned_inverse_trace_at_least_dim(self):
        # harmonic-arithmetic mean relation on unit-trace-per-entry matrices
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(2, 60))
            b = rng.standard_normal((d, d))
            L = b.T @ b + 1e-6 * np.eye(d)
            Lt = linalg.precondition(L, np.diag(L))
            assert np.trace(linalg.psd_pinv(Lt)) >= d - 1e-9


class TestPinvFamily:
    def test_pinv_matches_inverse_on_spd(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 6))
        m = b.T @ b + np.eye(6)
        np.testing.assert_allclose(linalg.psd_pinv(m), np.linalg.inv(m), atol=1e-10)

    def test_pinv_on_singular_psd(self):
        # rank-1 PSD: pinv has reciprocal on the range only
        v = np.array([1.0, 2.0])
        m = np.outer(v, v)
        pinv = linalg.psd_pinv(m)
        np.testing.assert_allclose(m @ pinv @ m, m, atol=1e-12)

    def test_inv_sqrt_squares_to_pinv(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 5))
        m = b.T @ b + np.eye(5)
        s = psd_inv_sqrt(m)
        np.testing.assert_allclose(s @ s, linalg.psd_pinv(m), atol=1e-10)

    def test_spd_inv_sqrt_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            linalg.spd_inv_sqrt(np.outer(np.ones(3), np.ones(3)))

    def test_solve_psd(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((4, 4))
        m = b.T @ b + np.eye(4)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(m @ solve_psd(m, v), v, atol=1e-10)


class TestStackedInverseSqrt:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((5, 4, 4))
        stack = b @ np.swapaxes(b, 1, 2) + np.eye(4)
        out = linalg.spd_inv_sqrt(stack)
        for m, s in zip(stack, out):
            np.testing.assert_allclose(s, linalg.spd_inv_sqrt(m), atol=1e-14)

    def test_stack_with_one_singular_block_is_rejected(self):
        stack = np.stack([np.eye(3), np.outer(np.ones(3), np.ones(3)), np.eye(3)])
        with pytest.raises(SingularMatrix):
            linalg.spd_inv_sqrt(stack)
