"""Pinned iterate checksums for the one-coordinate-per-client permutation runs.

At n = d every permutation family gives each client one coordinate, so a
step is elementwise arithmetic with no BLAS call and the iterates are
bitwise reproducible across machines.  The problem is built from literal
arrays rather than a generator, whose matrix products depend on the BLAS
build.  A change to the sampling or gradient code that alters any iterate by
one ulp changes the checksum.
"""

import hashlib

import numpy as np
import pytest

from istlab.estimators import EstimatorKind
from istlab.quadratics import QuadraticProblem, gen_heterogeneous
from istlab.runner import RunConfig, StepSchedule, run, sweep
from istlab.sketches import SketchKind

L = [
    [[2.0, 0.5, 0.0, -0.25], [0.5, 1.5, 0.25, 0.0], [0.0, 0.25, 1.0, 0.125], [-0.25, 0.0, 0.125, 3.0]],
    [[1.0, -0.5, 0.25, 0.0], [-0.5, 2.5, 0.0, 0.5], [0.25, 0.0, 1.75, -0.375], [0.0, 0.5, -0.375, 1.25]],
    [[3.5, 0.0, 0.75, 0.5], [0.0, 1.0, -0.25, 0.0], [0.75, -0.25, 2.0, 0.0], [0.5, 0.0, 0.0, 0.5]],
    [[0.75, 0.125, 0.0, 0.0], [0.125, 2.0, 0.5, -0.5], [0.0, 0.5, 1.25, 0.25], [0.0, -0.5, 0.25, 2.25]],
]
B = [
    [1.0, -2.0, 0.5, 0.0],
    [0.25, 1.5, -1.0, 2.0],
    [-0.75, 0.0, 3.0, -1.25],
    [2.5, 0.5, -0.5, 1.0],
]

GOLDEN = {
    "perm_q": (0.05, "69010c0a7de5e58094ff0f9e64a91b7c39ea835275b9931b53e058678348394f"),
    "scaled_perm_homog": (0.3, "d691dba307a1cc70ef45234a3ecf9b364ef9b86bf3082e71166c832157077c95"),
    "scaled_perm_het": (0.5, "7dbda2f91f7a72e840c8056039e23646ffbdf89591dad7adf629f6fa9f607f21"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_n_equals_d_iterates_match_checksum(kind):
    gamma, digest = GOLDEN[kind]
    cfg = RunConfig(
        problem=QuadraticProblem.from_arrays(np.array(L), np.array(B)),
        estimator=EstimatorKind.ist(SketchKind(kind)),
        schedule=StepSchedule.constant(gamma),
        K=20,
        seed=11,
        repeats=3,
        metrics=(),
        record_iterates=True,
    )
    trace = run(cfg)
    assert np.isfinite(trace.iterates).all()
    assert hashlib.sha256(trace.iterates.tobytes()).hexdigest() == digest


# Pinned run and sweep traces on small generated problems.  Each digest
# covers every metric (submodel_loss_avg included), the iterates, final_f and
# diverged_at of a two-repeat run, and of a two-lane sweep whose second step
# size diverges.  The Bernoulli cases keep clients of mixed widths, some on
# the submodel loss's gather path and some on its dense path, and run past
# one block of BLOCK_ROUNDS rounds; perm_q at n = 2, d = 8 keeps q = 4 > 0.3 d
# coordinates, so its submodel loss takes the dense path on every round.
# These runs call BLAS and LAPACK, so the digests hold for the numpy and
# OpenBLAS build they were taken with.

TRACE_METRICS = ("f_gap_rel_log", "grad_sq", "grad_sq_Linv", "dist_L_to_xstar", "submodel_loss_avg")

TRACE_CASES = {
    # estimator, n, d, step size, K, extra metrics
    "cgd-bernoulli": (EstimatorKind.cgd(SketchKind.bernoulli(0.25)), 3, 12, 0.02, 300, ()),
    "ist-bernoulli": (EstimatorKind.ist(SketchKind.bernoulli(0.25)), 3, 12, 0.002, 300, ()),
    "ist-rand_q": (EstimatorKind.ist(SketchKind.rand_q(2)), 3, 10, 0.002, 60, ()),
    "ist-scaled_perm_het-q1": (EstimatorKind.ist(SketchKind.scaled_perm_het()), 4, 4, 0.3, 60,
                               ("dist_to_xinf",)),
    "ist-scaled_perm_het-q3": (EstimatorKind.ist(SketchKind.scaled_perm_het()), 3, 9, 0.3, 60, ()),
    "ist-perm_q-dense": (EstimatorKind.ist(SketchKind.perm_q()), 2, 8, 0.005, 60, ()),
}

TRACE_GOLDEN = {
    "cgd-bernoulli/run": "ab4e4abae1179074302b983accaa73dbe1ca31f7475d589017289b4192eb86e4",
    "cgd-bernoulli/sweep": "bce5a07786d0da7c573b25b2cd045bdbce08b0a9723232c8ef1b2dabe7c4c57b",
    "ist-bernoulli/run": "9866e044d20dfb94347b1ef7cbe8fbe7ab4645b6d4c0d652f207068a8d28c0c3",
    "ist-bernoulli/sweep": "4d17cf09cb9c302232383b196b2a9f30dff3f8992afa10d805d95e69d34fd196",
    "ist-perm_q-dense/run": "7463761af86b1892c2d72389fe80d83a46d536548317813bde6fb2e9ea0ee185",
    "ist-perm_q-dense/sweep": "a0f42f90e8f118b070a3d8614cfe471ee221593ce13003ec3c04cbb1c958fa8a",
    "ist-rand_q/run": "1b44ee13b05772430e0bd65efceb7d54421be0730a1ed67adacce8a5a5b9020d",
    "ist-rand_q/sweep": "5e958c3970cf26a0798cdf8a5c07aa00a9d0353248153deaee37a0fda5e06bf5",
    "ist-scaled_perm_het-q1/run": "bdb68ec6674dff85c0b5ed83141d8a6e6677ed59b80141a7c5f7d54f834c9b70",
    "ist-scaled_perm_het-q1/sweep": "a08f06485fa2aab84c384b96ec9dd651e4f586da0d48747d05a523f8fdc6a455",
    "ist-scaled_perm_het-q3/run": "6682429f987d0a49f30127c25ba1791289b23703511a63049622bc325d058449",
    "ist-scaled_perm_het-q3/sweep": "a591e423e53e983d4d625c2691967d6b41dd0e0081636a8b36ba34cd36ecdbab",
}


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        for name in t.metric_order:
            h.update(t.metrics[name].tobytes())
        for a in (t.iterates, t.final_f, t.diverged_at):
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_traces_match_checksum(case, mode):
    est, n, d, gamma, K, extra = TRACE_CASES[case]
    cfg = RunConfig(
        problem=gen_heterogeneous(n, d, seed=n * d),
        estimator=est,
        schedule=StepSchedule.constant(gamma),
        K=K,
        seed=3,
        repeats=2,
        metrics=TRACE_METRICS + extra,
        record_iterates=True,
    )
    traces = [run(cfg)] if mode == "run" else sweep(cfg, [gamma / 2, 100 * gamma])
    assert (traces[0].diverged_at < 0).all()
    if mode == "sweep":
        assert (traces[1].diverged_at > 0).all()
    assert trace_digest(traces) == TRACE_GOLDEN[f"{case}/{mode}"]
