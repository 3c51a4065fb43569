"""Simulator traces do not depend on how rounds are blocked or taped.

For every sketch family with ist and with cgd, and for dgd, ``hypothesis``
(derandomized, so every run sees the same configs) draws the family's
parameters, a problem with n, d <= 6, K <= 40, repeats <= 3, two step
sizes of which the second may diverge, and a subset of the run metrics
that always holds ``submodel_loss_avg``.  Every field of every lane's trace
must be bitwise equal whether metrics are computed in blocks of 1, 7 or 256
rounds (``runner.BLOCK_ROUNDS``), and whether a tape holds one round or a
whole block (``sketches.CHUNK_BYTES`` set from the family's
``round_bytes``).  And each lane of a sweep, the diverging one included, is
bitwise a ``run()`` at that lane's schedule alone (constant or staircase).

Two more properties close the loop from the simulator to its expectations
and to its files.  Wherever ``expected_estimate`` has a closed form (ist
and cgd with every family, on problems small enough to enumerate), the
probability-weighted mean of ``estimate`` over every enumerated outcome
matches it to 1e-12.  And each lane's trace, written as CSV and as JSON
with its sidecar, reads back to the in-memory ``Trace``.
"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istlab import cli, runner, sketches
from istlab.errors import IncompatibleShape, NoClosedForm
from istlab.estimators import EstimatorKind, estimate, expected_estimate
from istlab.quadratics import gen_heterogeneous
from istlab.runner import RunConfig, StepSchedule, run, sweep
from istlab.sketches import FAMILIES, SketchKind

OPTIONAL_METRICS = ("f_gap_rel_log", "grad_sq", "grad_sq_Linv", "dist_L_to_xstar")


def _feasible(kind, n, d):
    try:
        sketches.resolve_block_size(kind, n, d)
    except IncompatibleShape:
        return False
    return True


@st.composite
def configs(draw, est, name):
    params = FAMILIES[name].params
    kind = SketchKind(
        name,
        q=draw(st.integers(1, 3)) if params.get("q") else None,
        p=draw(st.sampled_from([0.3, 0.5, 1.0])) if params.get("p") else None,
    )
    # largest first: hypothesis starts from the first value of each draw
    shapes = [(n, d) for n in range(6, 0, -1) for d in range(6, 0, -1) if _feasible(kind, n, d)]
    n, d = draw(st.sampled_from(shapes))
    metrics = tuple(m for m in OPTIONAL_METRICS if not draw(st.booleans())) + ("submodel_loss_avg",)
    gamma = draw(st.sampled_from([0.005, 0.02, 0.05]))
    cfg = RunConfig(
        problem=gen_heterogeneous(n, d, seed=draw(st.integers(0, 10_000))),
        estimator=EstimatorKind.dgd() if est == "dgd" else EstimatorKind(est, kind),
        schedule=StepSchedule.constant(gamma),
        K=40 - draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 1000)),
        repeats=3 - draw(st.integers(0, 2)),
        metrics=metrics,
        record_iterates=True,
    )
    return cfg, [gamma, draw(st.sampled_from([50.0, 2.0])) * gamma]


def assert_traces_bitwise(got, want):
    for t, ref in zip(got, want, strict=True):
        for name in ref.metric_order:
            assert t.metrics[name].tobytes() == ref.metrics[name].tobytes(), name
        for attr in ("final_f", "diverged_at", "iterates", "gammas", "x0"):
            assert getattr(t, attr).tobytes() == getattr(ref, attr).tobytes(), attr


@pytest.mark.parametrize("est, name", [(est, name) for est in ("ist", "cgd") for name in sorted(FAMILIES)]
                         + [("dgd", "identity")])
@settings(max_examples=2)
@given(data=st.data())
def test_traces_do_not_depend_on_block_or_tape_length(est, name, data):
    cfg, gammas = data.draw(configs(est, name))
    ref = sweep(cfg, gammas)
    sketch, p = cfg.estimator.sketch, cfg.problem
    per_round = None
    if sketch is not None:  # a dgd run draws nothing
        blocks = cfg.estimator.kind == "ist"
        per_round = sketch.family.round_bytes(sketch, p.n, p.d, blocks)
        assert sketches._tape_len(sketch, p.n, p.d, blocks) >= runner.BLOCK_ROUNDS  # ref: whole-block tapes
    for block, tape in ((1, 1), (7, 7), (256, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "BLOCK_ROUNDS", block)
            if per_round is not None:
                mp.setattr(sketches, "CHUNK_BYTES", tape * per_round)
            assert_traces_bitwise(sweep(cfg, gammas), ref)



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("est, name", [(est, name) for est in ("ist", "cgd") for name in sorted(FAMILIES)]
                         + [("dgd", "identity")])
@settings(max_examples=2)
@given(data=st.data())
def test_every_sweep_lane_is_its_own_run(est, name, data):
    cfg, gammas = data.draw(configs(est, name))
    if data.draw(st.booleans()):
        cfg = replace(cfg, schedule=StepSchedule.staircase(gammas[0], 2.0, data.draw(st.integers(1, 20))))
    gammas.append(1e20 * gammas[0])  # diverges within a few rounds, while the other lanes go on
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 7 drop the diverged lane while the others step on
        mp.setattr(runner, "BLOCK_ROUNDS", data.draw(st.sampled_from([7, 256])))
        traces = sweep(cfg, gammas)
        for gamma, t in zip(gammas, traces, strict=True):
            assert_traces_bitwise([t], [run(replace(cfg, schedule=cfg.schedule.with_gamma(gamma)))])
    assert cfg.K < 5 or (traces[-1].diverged_at >= 0).all()


# at most this many joint outcomes per enumerated mean
MAX_OUTCOMES = 720


def _has_closed_mean(est, p):
    """True where ``expected_estimate`` takes its closed form rather than enumeration."""
    sketch = est.sketch
    if est.kind == "cgd":
        return sketch.family.client_means(sketch, p) is not None
    try:
        return sketches.closed_moments(sketch, p, second=False).linear is not None
    except NoClosedForm:
        return False


@pytest.mark.parametrize("est, name", [(est, name) for est in ("ist", "cgd") for name in sorted(FAMILIES)])
@settings(max_examples=5)
@given(data=st.data())
def test_mean_estimate_over_outcomes_matches_closed_form(est, name, data):
    params = FAMILIES[name].params
    kind = SketchKind(
        name,
        q=data.draw(st.integers(1, 3)) if params.get("q") else None,
        p=data.draw(st.sampled_from([0.3, 0.5, 1.0])) if params.get("p") else None,
    )
    shapes = [(n, d) for n in range(4, 0, -1) for d in range(6, 0, -1)  # largest first, as in configs
              if _feasible(kind, n, d) and kind.family.count(kind, n, d) <= MAX_OUTCOMES]
    n, d = data.draw(st.sampled_from(shapes))
    p = gen_heterogeneous(n, d, seed=data.draw(st.integers(0, 10_000)))
    if data.draw(st.booleans()):
        p = p.as_interpolation()  # scaled_perm_het's q > 1 linear mean is closed only here
    est = EstimatorKind(est, kind)
    if not _has_closed_mean(est, p):
        return
    x = np.random.default_rng(data.draw(st.integers(0, 1000))).standard_normal(d)
    total, scale = np.zeros(d), np.zeros(d)
    for prob, s in sketches.enumerate_outcomes(kind, p):
        g = estimate(est, p, x, None, s)[0]
        total += prob * g
        scale += prob * np.abs(g)
    want = expected_estimate(est, p, x)
    # rounding scales with the summed terms, which may cancel to a small mean
    assert np.abs(total - want).max() <= 1e-12 * max(scale.max(), np.abs(want).max())


def _same_floats(got, want):
    """Bitwise equal where ``want`` is finite; NaN in ``got`` wherever it is not."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    assert got.shape == want.shape
    assert got[finite].tobytes() == want[finite].tobytes()
    assert np.isnan(got[~finite]).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("est, name", [(est, name) for est in ("ist", "cgd") for name in sorted(FAMILIES)]
                         + [("dgd", "identity")])
@settings(max_examples=2)
@given(data=st.data())
def test_csv_and_json_traces_read_back(est, name, data, tmp_path_factory):
    cfg, gammas = data.draw(configs(est, name))
    tmp = tmp_path_factory.mktemp("traces")
    for j, t in enumerate(sweep(cfg, gammas)):
        K = len(t.gammas)
        for fmt in ("csv", "json"):
            path = tmp / f"lane{j}.{fmt}"
            cli.write_outputs(t, {"format": fmt, "path": str(path)}, {})
            meta = json.loads(path.with_name(path.name + ".meta.json").read_text())
            assert meta["diverged_at"] == t.diverged_at.tolist()
            if fmt == "csv":
                got = {m: np.full((t.repeats, K + 1), np.nan) for m in t.metric_order}
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["repeat", "k", "metric_name", "value"]
                for r, k, m, v in rows[1:]:
                    got[m][int(r), int(k)] = float(v)
            else:
                doc = json.loads(path.read_text())
                as_float = np.vectorize(lambda v: np.nan if v is None else v, otypes=[float])
                got = {m: as_float(np.array(doc["metrics"][m], dtype=object).reshape(t.repeats, K + 1))
                       for m in doc["metrics"]}
                _same_floats(as_float(np.array(doc["final_f"], dtype=object)), t.final_f)
                assert doc["diverged_at"] == t.diverged_at.tolist()
                assert np.array(doc["gammas"]).reshape(K).tobytes() == t.gammas.tobytes()
                assert np.array(doc["x0"]).tobytes() == t.x0.tobytes()
            assert list(got) == list(t.metric_order)
            for m in t.metric_order:
                _same_floats(got[m], t.metrics[m])
