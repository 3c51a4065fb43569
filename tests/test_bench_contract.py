"""The benchmark under ``bench/`` reads istlab attributes by name.

``bench/tracer.py`` wraps module and class attributes through
``owner.__dict__[attr]`` (``runner.ThreadPoolExecutor``, ``linalg.psd_pinv``,
``certificates.step_constant``, ``certificates.contraction_factor`` ...), so
deleting or renaming one of them makes ``run_bench.py --trace 1`` fail with a
KeyError; ``run_bench.provenance`` calls ``runner._thread_budget``.  These
tests install the tracer on the real package and take it off again.
"""

import sys
from pathlib import Path

import istlab
import istlab.cli

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
