"""The benchmark under ``bench/`` reads istlab attributes by name.

``bench/tracer.py`` wraps module and class attributes through
``owner.__dict__[attr]`` (``runner.ThreadPoolExecutor``, ``linalg.psd_pinv``,
``certificates.step_constant``, ``certificates.contraction_factor`` ...), so
deleting or renaming one of them makes ``run_bench.py --trace 1`` fail with a
KeyError; ``run_bench.provenance`` calls ``runner._thread_budget``.  Its
``after_save``, ``after_load`` and ``after_write`` hooks read the file path as
``args[1]``, so the writers keep their argument order.  These tests install
the tracer on the real package and take it off again.
"""

import inspect
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import istlab
import istlab.cli
from istlab import sketches
from istlab.estimators import EstimatorKind
from istlab.quadratics import QuadraticProblem, gen_heterogeneous
from istlab.runner import RunConfig, StepSchedule
from istlab.sketches import SketchKind

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    import tracer

    t = tracer.Tracer()
    t.install(istlab)
    saved = list(t._saved)
    t.uninstall()
    wrapped = {(owner.__name__.rsplit(".", 1)[-1], attr) for owner, attr, _ in saved}
    assert {
        ("runner", "ThreadPoolExecutor"),
        ("linalg", "psd_pinv"),
        ("certificates", "step_constant"),
        ("certificates", "contraction_factor"),
    } <= wrapped
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_provenance_thread_budget_exists():
    assert isinstance(istlab.runner._thread_budget(), int)


def test_writers_take_the_path_where_the_tracer_reads_it():
    assert list(inspect.signature(QuadraticProblem.save).parameters)[:2] == ["self", "path"]
    load = QuadraticProblem.__dict__["load"].__func__  # the tracer wraps the raw function
    assert list(inspect.signature(load).parameters)[:2] == ["cls", "path"]
    assert list(inspect.signature(istlab.cli.write_outputs).parameters) == ["trace", "output", "meta"]


def test_traced_save_load_and_write_count_their_bytes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    p = gen_heterogeneous(2, 3, seed=4)
    trace = istlab.runner.Trace(
        metrics={"grad_sq": np.ones((1, 3))}, final_f=np.zeros(1), diverged_at=np.array([-1]),
        gammas=np.ones(2), x0=np.zeros(3), metric_order=("grad_sq",))
    problem, out = tmp_path / "p.json", tmp_path / "t.csv"
    t = tracer.Tracer()
    t.install(istlab)
    try:
        p.save(problem)
        QuadraticProblem.load(problem)
        istlab.cli.write_outputs(trace, {"format": "csv", "path": str(out)}, {})
    finally:
        t.uninstall()
    _, counts = t.reset()
    assert counts["quadratics.save.bytes"] == counts["quadratics.load.bytes"] == os.path.getsize(problem)
    assert counts["cli.write_outputs.bytes"] == (os.path.getsize(out)
                                                 + os.path.getsize(f"{out}.meta.json"))
    assert counts["cli.trace_rows"] == 3


@pytest.mark.parametrize("metrics, est", [
    (metrics, est) for est in (EstimatorKind.ist(SketchKind.perm_q()),
                               EstimatorKind.cgd(SketchKind.bernoulli(0.5)))
    for metrics in (("grad_sq",), ("grad_sq", "submodel_loss_avg"))
], ids=["metrics0", "metrics1", "metrics0-cgd-bernoulli", "metrics1-cgd-bernoulli"])
def test_traced_sample_calls_count_tape_chunks(monkeypatch, metrics, est):
    """``sketches.sample.calls`` counts tape chunks: ``runner.run`` draws a
    repeat's rounds in ceil(draws / _tape_len) ``sketches.sample`` calls,
    each one stacked sample."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    n, d, K, repeats = 2, 4, 20, 3
    blocks = est.kind == "ist"
    per_round = est.sketch.family.round_bytes(est.sketch, n, d, blocks)
    monkeypatch.setattr(sketches, "CHUNK_BYTES", 6 * per_round)  # six rounds per chunk
    chunk = sketches._tape_len(est.sketch, n, d, blocks)
    assert chunk == 6
    # the submodel loss draws once more, at the final iterate
    draws = K + ("submodel_loss_avg" in metrics)
    cfg = RunConfig(gen_heterogeneous(n, d, seed=5), est,
                    StepSchedule.constant(0.1), K, seed=1, repeats=repeats, metrics=metrics)
    t = tracer.Tracer()
    t.install(istlab)
    try:
        istlab.runner.run(cfg)
    finally:
        t.uninstall()
    totals = tracer.layer_totals(*t.reset())
    assert totals["sketches.sample.calls"] == repeats * math.ceil(draws / chunk)
