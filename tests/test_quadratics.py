import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from istlab import linalg, quadratics
from istlab.errors import (
    DegenerateEnsemble,
    DimMismatch,
    IstLabError,
    NonFinite,
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

    @pytest.mark.parametrize("n, d", [(4, 400), (2, 300)])
    def test_heterogeneous_peak_holds_no_client_draw_through_the_checks(self, n, d):
        # the n matrices, L_bar and the nondegeneracy check's working copy, with
        # no d x d draw B left alive beside them: (n + 3.03) 8 d^2 bytes, and
        # (n + 4.03) 8 d^2 with one
        gen_heterogeneous(n, d, seed=7)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            gen_heterogeneous(n, d, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 3.5) * 8 * d * d

    def test_reference_scale_heterogeneous_setup(self):
        # ten clients at dimension 1000: the largest configuration the
        # simulator is expected to handle routinely
        p = gen_heterogeneous(10, 1000, seed=1)
        assert (p.n, p.d) == (10, 1000)
        vals = np.linalg.eigvalsh(p.L_bar)
        assert vals[0] > 0.0


def eigvalsh_rule(p, rel_tol=quadratics.DEGENERACY_TOL):
    """The nondegeneracy test by eigenvalues alone, as ensure_nondegenerate made it before."""
    vals = np.linalg.eigvalsh(linalg.symmetrize(p.L_bar))
    if vals[-1] <= 0.0 or vals[0] <= rel_tol * vals[-1]:
        raise DegenerateEnsemble(
            f"mean matrix nearly singular: lambda_min={vals[0]:.3e}, lambda_max={vals[-1]:.3e}"
        )


def decision(check, p, rel_tol=quadratics.DEGENERACY_TOL):
    """None if ``check`` accepts ``p``, else the type and message of what it raised."""
    try:
        with np.errstate(invalid="ignore"):
            check(p, rel_tol)
    except (DegenerateEnsemble, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return None


def count_eigvalsh(monkeypatch) -> dict:
    """Count np.linalg.eigvalsh calls from here on."""
    calls = {"eigvalsh": 0}
    real = np.linalg.eigvalsh

    def wrapper(*args, **kwargs):
        calls["eigvalsh"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", wrapper)
    return calls


def mean_with_spectrum(lams, seed=0):
    """One-client problem whose L_bar is V diag(lams) V^T for a random orthogonal V."""
    d = len(lams)
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return QuadraticProblem(L=((V * np.asarray(lams, dtype=float)) @ V.T)[None], b=np.zeros((1, d)))


class TestNondegeneracyCheck:
    """The shifted Cholesky only accepts; every decision equals the eigvalsh rule's."""

    @pytest.mark.parametrize("rel_tol", [quadratics.DEGENERACY_TOL, 1e-4])
    @pytest.mark.parametrize("d", [2, 6, quadratics.CHOLESKY_MIN_D, 40])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.01, 2.0, 1e3])
    def test_threshold_decisions_match_eigvalsh(self, monkeypatch, rel_tol, d, ratio):
        p = mean_with_spectrum(np.geomspace(ratio * rel_tol, 1.0, d) * 7.5, seed=d)
        expected = decision(eigvalsh_rule, p, rel_tol)
        if ratio != 1.0:  # at the threshold itself eigvalsh's rounding decides
            assert (expected is None) == (ratio > 1.0)
        calls = count_eigvalsh(monkeypatch)
        assert decision(quadratics.ensure_nondegenerate, p, rel_tol) == expected
        if ratio == 1e3:  # far from the threshold the Cholesky decides, from CHOLESKY_MIN_D on
            assert calls["eigvalsh"] == (0 if d >= quadratics.CHOLESKY_MIN_D else 1)
        if ratio <= 1.0:
            assert calls["eigvalsh"] == 1  # a rejection always comes from eigvalsh

    @pytest.mark.parametrize("lams", [np.linspace(-1.0, 3.0, 20), -np.linspace(1.0, 3.0, 20),
                                      np.zeros(20), np.r_[0.0, np.linspace(1.0, 2.0, 19)]])
    def test_indefinite_and_zero_matrices_rejected_with_eigvalsh_message(self, lams):
        p = mean_with_spectrum(lams)
        expected = decision(eigvalsh_rule, p)
        assert expected is not None and expected[0] is DegenerateEnsemble
        assert decision(quadratics.ensure_nondegenerate, p) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_raises_before_any_factorization(self, monkeypatch, bad):
        # the raw constructor checks no finiteness
        d = quadratics.CHOLESKY_MIN_D
        L = np.eye(d)[None].copy()
        L[0, 1, 1] = bad
        p = QuadraticProblem(L=L, b=np.zeros((1, d)))
        calls = count_eigvalsh(monkeypatch)
        monkeypatch.setattr(np.linalg, "cholesky", None)  # a call would raise TypeError
        with pytest.raises(NonFinite, match="^mean matrix holds NaN or Inf$"):
            quadratics.ensure_nondegenerate(p)
        assert calls["eigvalsh"] == 0

    def test_generated_ensembles_need_no_eigvalsh(self, monkeypatch):
        calls = count_eigvalsh(monkeypatch)
        gen_heterogeneous(10, 100, seed=3)
        gen_homogeneous(4, 50, seed=3)
        assert calls["eigvalsh"] == 0


def bitwise_symmetric(L) -> bool:
    u = L.view(np.uint64)
    return bool((u == np.swapaxes(u, -1, -2)).all())


class TestSymmetricInvariant:
    """The constructor holds every L_i bitwise symmetric, and copies only what is not."""

    def test_symmetric_input_keeps_its_bytes_without_a_copy(self):
        p = gen_heterogeneous(3, 300, seed=5)  # d past one 256 x 256 tile
        L = np.array(p.L)
        before = L.tobytes()
        q = QuadraticProblem(L=L, b=p.b)
        assert q.L is L and L.tobytes() == before

    @pytest.mark.parametrize("n, d, client, at", [
        (2, 3, 1, (0, 1)),
        (2, 300, 1, (299, 17)),  # in the second of a client's tiles
        (14, 100, 13, (5, 60)),  # six clients share a tile: in the last, partial group
    ], ids=["3", "300", "groups"])
    def test_asymmetric_input_is_what_from_arrays_gives(self, n, d, client, at):
        p = gen_heterogeneous(n, d, seed=7)
        L = np.array(p.L)
        L[client][at] += 0.5
        before = L.tobytes()
        q = QuadraticProblem(L=L, b=p.b)
        assert q.L.tobytes() == QuadraticProblem.from_arrays(L, p.b).L.tobytes()
        assert bitwise_symmetric(q.L) and bitwise_symmetric(q.L_bar)
        for i in set(range(n)) - {client}:  # the symmetric clients are untouched
            assert q.L[i].tobytes() == p.L[i].tobytes()
        assert L.tobytes() == before  # the caller's array is not written

    def test_signed_zeros_count_as_asymmetric(self):
        L = np.array([[[1.0, -0.0], [0.0, 1.0]]])
        q = QuadraticProblem(L=L, b=np.zeros((1, 2)))
        assert q.L.tobytes() == QuadraticProblem.from_arrays(L, np.zeros((1, 2))).L.tobytes()
        assert bitwise_symmetric(q.L)


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

    @pytest.mark.parametrize("L, b", [
        ([[1e308, 0.0, 0.0, 1.0]], [[0.0, 0.0]]),  # L + L^T overflows on the diagonal
        ([[8e307, 0.0, 0.0, 1.0]] * 3, [[0.0, 0.0]] * 3),  # the sum for L_bar overflows
        ([[1e308, 0.0, 0.0, 1.0], [-1e308, 0.0, 0.0, 1.0]], [[0.0, 0.0]] * 2),  # inf - inf
        ([[1.0, 0.0, 0.0, 1.0]] * 2, [[1e308, 0.0]] * 2),  # the sum for b_bar overflows
    ], ids=["symmetrize", "L_bar", "inf-minus-inf", "b_bar"])
    def test_loader_rejects_overflow_without_warning(self, tmp_path, L, b):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": len(L), "d": 2, "L": L, "b": b, "seed": None}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflow the float64 range"):
                QuadraticProblem.load(path)

    def test_loader_keeps_entries_just_below_overflow(self, tmp_path):
        # 8e307 + 8e307 and the mean of two such entries stay finite, so the
        # entries load exactly as written
        doc = {"n": 2, "d": 2, "L": [[8e307, 0.0, 0.0, 1.0]] * 2, "b": [[8e307, 0.0]] * 2}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        q = QuadraticProblem.load(path)
        assert q.L[0, 0, 0] == q.L_bar[0, 0] == q.b_bar[0] == 8e307


# any JSON value, and problem documents that are valid or corrupted in one field
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**65) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=10,
)
ENTRIES = st.floats(-10.0, 10.0) | st.integers(-3, 3) | st.sampled_from([1e308, -1e308, 8e307])


@st.composite
def problem_docs(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    L = [[draw(ENTRIES) for _ in range(d * d)] for _ in range(n)]
    if draw(st.booleans()):  # mirror the upper triangle
        L = [[Li[min(j, k) * d + max(j, k)] for j in range(d) for k in range(d)] for Li in L]
    doc = {"n": n, "d": d, "L": L, "b": [[draw(ENTRIES) for _ in range(d)] for _ in range(n)],
           "seed": draw(st.none() | st.integers(0, 2**64))}
    if draw(st.booleans()):  # a boolean among numbers, which numpy reads as 0.0 or 1.0
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
        if draw(st.booleans()):
            doc["b"][i][j] = draw(st.booleans())
        else:  # on the diagonal, so a mirrored L stays symmetric
            doc["L"][i][j * (d + 1)] = draw(st.booleans())
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=120)
@given(doc=problem_docs() | JSON_VALUES)
@example(doc={"n": 1, "d": 2, "L": [[True, 0.5, 0.5, 2.0]], "b": [[0.0, 1.0]], "seed": None})
@example(doc={"n": 1, "d": 2, "L": [[1.0, 0.5, 0.5, 2.0]], "b": [[False, 1.0]], "seed": None})
def test_from_json_loads_a_symmetric_finite_problem_or_raises(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            p = QuadraticProblem.from_json(doc)
        except IstLabError:
            return
    assert bitwise_symmetric(p.L) and np.isfinite(p.L).all() and np.isfinite(p.b).all()
    assert not any(bool in map(type, row) for row in doc["L"] + doc["b"])


def json_dump_bytes(p, path) -> bytes:
    """The problem-file writer before streaming: json.dump of to_json() and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh)
        fh.write("\n")
    return path.read_bytes()


def assert_save_matches_json_dump(p, tmp_path):
    p.save(tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == json_dump_bytes(p, tmp_path / "oracle.json")


class TestStreamedSave:
    def test_scalar_problem(self, tmp_path):
        assert_save_matches_json_dump(gen_heterogeneous(1, 1, seed=17), tmp_path)

    def test_seed_none_and_interpolation(self, tmp_path):
        p = gen_heterogeneous(3, 4, seed=8)
        q = QuadraticProblem(L=p.L, b=p.b, seed=None)
        assert_save_matches_json_dump(q, tmp_path)
        assert (tmp_path / "saved.json").read_bytes().endswith(b', "seed": null}\n')
        assert_save_matches_json_dump(q.as_interpolation(), tmp_path)

    def test_signed_zero_subnormal_and_huge_entries(self, tmp_path):
        L = np.array([[[-0.0, 5e-324], [5e-324, 1e308]], [[1e308, -0.0], [-0.0, -5e-324]]])
        b = np.array([[-0.0, 1e308], [5e-324, -1e308]])
        p = QuadraticProblem(L=L, b=b, seed=2**63)
        assert_save_matches_json_dump(p, tmp_path)
        # the loader symmetrizes L as (L + L^T) / 2, which overflows at 1e308,
        # so the bitwise read-back keeps that value in b
        p = QuadraticProblem(L=np.where(L == 1e308, 1e307, L), b=b)
        assert_save_matches_json_dump(p, tmp_path)
        q = QuadraticProblem.load(tmp_path / "saved.json")
        assert q.L.tobytes() == p.L.tobytes() and q.b.tobytes() == p.b.tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_slices_join_into_the_same_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(quadratics, "SAVE_CHUNK", chunk)
        assert_save_matches_json_dump(gen_heterogeneous(3, 4, seed=5), tmp_path)

    # the derandomized examples are seeded by this test's source text, decorator
    # included, so this decorator keeps the text its examples were drawn with
    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           keep_seed=st.booleans(), interp=st.booleans())
    def test_round_trip_is_bitwise(self, tmp_path_factory, n, d, seed, keep_seed, interp):
        tmp_path = tmp_path_factory.mktemp("save")
        p = gen_heterogeneous(n, d, seed=seed)
        p = QuadraticProblem(L=p.L, b=p.b, seed=seed if keep_seed else None)
        if interp:
            p = p.as_interpolation()
        assert_save_matches_json_dump(p, tmp_path)
        q = QuadraticProblem.load(tmp_path / "saved.json")
        assert q.L.tobytes() == p.L.tobytes() and q.b.tobytes() == p.b.tobytes()
        assert q.seed == p.seed
