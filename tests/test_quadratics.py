import hashlib
import json

import numpy as np
import pytest

from istlab import linalg, quadratics
from istlab.errors import (
    DegenerateEnsemble,
    DimMismatch,
    NonPositiveDiagonal,
    NotHomogeneous,
    SingularMatrix,
)
from istlab.quadratics import (
    QuadraticProblem,
    gen_heterogeneous,
    gen_homogeneous,
    precondition_homogeneous,
)


class TestGenerators:
    def test_heterogeneous_is_deterministic(self):
        a = gen_heterogeneous(3, 5, seed=123)
        b = gen_heterogeneous(3, 5, seed=123)
        np.testing.assert_array_equal(a.L, b.L)
        np.testing.assert_array_equal(a.b, b.b)

    def test_each_client_matrix_is_psd(self):
        p = gen_heterogeneous(4, 6, seed=9)
        for Li in p.L:
            assert linalg.psd_check(Li)

    def test_scalar_problem(self):
        p = gen_heterogeneous(1, 1, seed=17)
        assert p.L[0, 0, 0] >= 0.0

    def test_homogeneous_replicates_bitwise(self):
        p = gen_homogeneous(5, 4, seed=2)
        for i in range(1, 5):
            np.testing.assert_array_equal(p.L[i], p.L[0])
            np.testing.assert_array_equal(p.b[i], p.b[0])
        assert not p.interpolation

    def test_degenerate_ensemble_rejected(self):
        L = np.outer([1.0, 1.0], [1.0, 1.0])  # rank 1 mean
        p = QuadraticProblem.from_arrays([L, L], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEnsemble):
            quadratics.ensure_nondegenerate(p)

    def test_invalid_shape_rejected(self):
        with pytest.raises(DimMismatch):
            gen_heterogeneous(0, 3, seed=1)

    def test_heterogeneous_matrices_match_checksum(self):
        # The tiny-repeats benchmark input.  B^T B is a BLAS product, so the
        # digest belongs to the numpy/BLAS build the suite was pinned on; at
        # d = 4 it does not depend on the BLAS thread count.
        L = gen_heterogeneous(4, 4, seed=5).L
        digest = "03b5c1b2b2b308812bd82f8b8899535baa62698400920cbab3e0e7c6a8461b9e"
        assert hashlib.sha256(L.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, d, seed", [(4, 4, 5), (10, 100, 30)])
    def test_heterogeneous_matrices_equal_stacked_reference(self, n, d, seed):
        # Reference: symmetrize the whole (n, d, d) stack after the loop.  At
        # d = 100 the BLAS thread count changes B^T B's rounding, so this
        # compares within one process instead of against a fixed digest.
        ref = np.empty((n, d, d))
        for i in range(n):
            B = quadratics.client_rng(seed, i).standard_normal((d, d))
            ref[i] = B.T @ B
        ref = (ref + np.transpose(ref, (0, 2, 1))) / 2.0
        np.testing.assert_array_equal(gen_heterogeneous(n, d, seed=seed).L, ref)

    def test_reference_scale_heterogeneous_setup(self):
        # ten clients at dimension 1000: the largest configuration the
        # simulator is expected to handle routinely
        p = gen_heterogeneous(10, 1000, seed=1)
        assert (p.n, p.d) == (10, 1000)
        vals = np.linalg.eigvalsh(p.L_bar)
        assert vals[0] > 0.0


class TestInterpolation:
    def test_zeroes_linear_terms(self):
        p = gen_heterogeneous(3, 4, seed=4).as_interpolation()
        assert p.interpolation
        np.testing.assert_array_equal(p.b_bar, np.zeros(4))

    def test_solution_is_origin(self):
        p = gen_heterogeneous(3, 4, seed=4).as_interpolation()
        np.testing.assert_allclose(p.solution(), np.zeros(4), atol=1e-12)
        assert p.f(np.zeros(4)) == 0.0


class TestEvaluation:
    def test_grad_and_value_hand_case(self):
        p = QuadraticProblem.from_arrays([np.eye(2)], [np.array([1.0, 1.0])])
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(p.grad(x), np.zeros(2), atol=1e-15)
        assert p.f(x) == pytest.approx(-1.0)

    def test_stationarity_at_solution(self):
        p = gen_heterogeneous(4, 8, seed=21)
        x_star = p.solution()
        assert np.linalg.norm(p.grad(x_star)) <= 1e-8 * np.linalg.norm(p.b_bar)

    def test_diagonal_solve(self):
        p = QuadraticProblem.from_arrays([np.diag([2.0, 4.0])], [np.array([2.0, 4.0])])
        np.testing.assert_allclose(p.solution(), [1.0, 1.0], atol=1e-14)

    def test_solution_is_minimum(self):
        p = gen_heterogeneous(3, 20, seed=30)
        x_star = p.solution()
        f_star = p.f(x_star)
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(20)
            eps = rng.uniform(1e-4, 1.0)
            assert p.f(x_star + eps * v) >= f_star - 1e-10

    def test_f_equals_mean_of_clients(self):
        p = gen_heterogeneous(5, 7, seed=8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(7)
            mean_fi = np.mean([p.f_client(i, x) for i in range(5)])
            assert p.f(x) == pytest.approx(mean_fi, rel=1e-10)

    def test_singular_mean_rejected_by_solution(self):
        L = np.outer([1.0, 2.0], [1.0, 2.0])
        p = QuadraticProblem.from_arrays([L], [np.array([1.0, 0.0])])
        with pytest.raises(SingularMatrix):
            p.solution()

    def test_spectrum_is_cached_and_read_only(self):
        p = gen_heterogeneous(3, 4, seed=22)
        spec = p.spectrum
        assert p.spectrum is spec
        v = spec.eigenvectors
        np.testing.assert_allclose((v * spec.eigenvalues) @ v.T, p.L_bar, atol=1e-12)
        with pytest.raises(ValueError):
            spec.eigenvectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 1.0


class TestFunctionalIdentities:
    def test_gap_equals_half_weighted_grad_sqnorm(self):
        # f(x) - f(x*) = 1/2 ||grad f(x)||^2 weighted by L_bar^{-1}
        rng = np.random.default_rng(13)
        for seed in range(5):
            p = gen_heterogeneous(3, 6, seed=seed)
            x_star = p.solution()
            f_star = p.f(x_star)
            inv = linalg.psd_pinv(p.L_bar)
            for _ in range(10):
                x = rng.standard_normal(6)
                g = p.grad(x)
                lhs = p.f(x) - f_star
                rhs = 0.5 * float(g @ (inv @ g))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_quadratic_upper_model_is_tight(self):
        p = gen_heterogeneous(3, 5, seed=77)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(5)
            h = rng.standard_normal(5)
            gap = p.f(x + h) - p.f(x) - p.grad(x) @ h - 0.5 * float(h @ (p.L_bar @ h))
            assert abs(gap) <= 1e-10 * max(1.0, abs(p.f(x)))


class TestPreconditioning:
    def test_hand_computed(self):
        L = np.array([[4.0, 2.0], [2.0, 9.0]])
        p = QuadraticProblem.from_arrays([L, L], [[2.0, 3.0], [2.0, 3.0]])
        pt, record = precondition_homogeneous(p)
        np.testing.assert_allclose(pt.L[0], [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(pt.b[0], [1.0, 1.0], atol=1e-15)
        assert record.kind == "homogeneous_diag_precondition"

    def test_identity_matrix_unchanged(self):
        p = QuadraticProblem.from_arrays([np.eye(3)], [np.ones(3)])
        pt, _ = precondition_homogeneous(p)
        np.testing.assert_array_equal(pt.L[0], np.eye(3))

    def test_unit_diagonal_forced(self):
        p = gen_homogeneous(4, 9, seed=3)
        pt, _ = precondition_homogeneous(p)
        assert np.abs(pt.diag - 1.0).max() <= 1e-12

    def test_transform_roundtrip(self):
        p = gen_homogeneous(2, 6, seed=5)
        _, record = precondition_homogeneous(p)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        # the forward map is x_tilde = D^{1/2} x
        np.testing.assert_allclose(record.inverse(np.sqrt(record.diag) * x), x, atol=1e-12)

    def test_heterogeneous_rejected(self):
        p = gen_heterogeneous(3, 4, seed=6)
        with pytest.raises(NotHomogeneous):
            precondition_homogeneous(p)

    def test_zero_diagonal_rejected(self):
        L = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = QuadraticProblem.from_arrays([L, L], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NonPositiveDiagonal):
            precondition_homogeneous(p)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = gen_heterogeneous(3, 5, seed=99)
        path = tmp_path / "prob.json"
        p.save(path)
        q = QuadraticProblem.load(path)
        np.testing.assert_array_equal(p.L, q.L)
        np.testing.assert_array_equal(p.b, q.b)
        assert q.seed == 99

    def test_loader_validates_symmetry(self, tmp_path):
        doc = {
            "n": 1,
            "d": 2,
            "L": [[1.0, 0.5, 0.2, 1.0]],  # asymmetric beyond 1e-12
            "b": [[0.0, 0.0]],
            "seed": None,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimMismatch):
            QuadraticProblem.load(path)

    def test_loader_symmetrizes_roundoff(self, tmp_path):
        doc = {
            "n": 1,
            "d": 2,
            "L": [[1.0, 0.5, 0.5 + 1e-14, 1.0]],
            "b": [[0.0, 0.0]],
            "seed": None,
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        q = QuadraticProblem.load(path)
        assert q.L[0, 0, 1] == q.L[0, 1, 0]
