"""Run traces on a fixed problem file do not depend on the BLAS thread count.

Exactly two child processes run the same saved 10 x 100 problem, one with one
OpenBLAS thread and one with two (the count is read when numpy loads, so it
cannot change inside this process), and print sha256 digests of every run
metric and of the iterates.
"""

import os
import pathlib
import subprocess
import sys

from istlab.quadratics import gen_heterogeneous

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHILD = """
import hashlib, sys
from istlab.estimators import EstimatorKind
from istlab.quadratics import QuadraticProblem
from istlab.runner import RunConfig, StepSchedule, run
from istlab.sketches import SketchKind

p = QuadraticProblem.load(sys.argv[1])
metrics = ("f_gap_rel_log", "grad_sq", "grad_sq_Linv", "dist_L_to_xstar", "submodel_loss_avg")
for sketch, gamma in ((SketchKind.scaled_perm_het(), 0.5), (SketchKind.perm_q(), 1e-3)):
    t = run(RunConfig(p, EstimatorKind.ist(sketch), StepSchedule.constant(gamma), K=30,
                      seed=1, repeats=2, metrics=metrics, record_iterates=True))
    assert (t.diverged_at < 0).all()
    for name, values in [(m, t.metrics[m]) for m in metrics] + [("iterates", t.iterates)]:
        print(sketch.kind, name, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_run_traces_equal_at_one_and_two_blas_threads(tmp_path):
    path = tmp_path / "problem.json"
    gen_heterogeneous(10, 100, seed=30).save(path)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", CHILD, str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.splitlines())
    assert len(digests[0]) == 2 * 6
    assert digests[0] == digests[1]
