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
from istlab.quadratics import QuadraticProblem
from istlab.runner import RunConfig, StepSchedule, run
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
