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
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istlab import runner, sketches
from istlab.errors import IncompatibleShape
from istlab.estimators import EstimatorKind
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
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
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
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
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
