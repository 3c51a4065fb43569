import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from istlab import estimators, linalg, runner, sketches
from istlab.certificates import estimator_bias, expected_iterate, fixed_point
from istlab.errors import ConfigInvalid
from istlab.estimators import EstimatorKind
from istlab.quadratics import (
    QuadraticProblem,
    gen_heterogeneous,
    gen_homogeneous,
    precondition_homogeneous,
)
from istlab.runner import RunConfig, StepSchedule, run, sweep
from istlab.sketches import SketchKind


def scaled_het_cfg(p, gamma=0.5, K=10, seed=3, repeats=2, **kw):
    return RunConfig(
        problem=p,
        estimator=EstimatorKind.ist(SketchKind.scaled_perm_het()),
        schedule=StepSchedule.constant(gamma),
        K=K,
        seed=seed,
        repeats=repeats,
        **kw,
    )


class TestStepSchedule:
    def test_constant(self):
        s = StepSchedule.constant(0.3)
        assert s.gamma_at(0) == s.gamma_at(999) == 0.3

    def test_staircase_divides_periodically(self):
        s = StepSchedule.staircase(1.0, divide_by=10.0, period=100)
        assert s.gamma_at(0) == 1.0
        assert s.gamma_at(99) == 1.0
        assert s.gamma_at(100) == pytest.approx(0.1)
        assert s.gamma_at(250) == pytest.approx(0.01)

    @pytest.mark.parametrize("divide_by, period, first_zero", [(10.0, 1, 309), (10, 1, 309), (1e200, 1, 2),
                                                                (1e200, 3, 6)])
    def test_staircase_past_the_float_range_steps_zero(self, divide_by, period, first_zero):
        s = StepSchedule.staircase(0.1, divide_by=divide_by, period=period)
        assert s.gamma_at(first_zero - period) > 0.0
        assert s.gamma_at(first_zero) == s.gamma_at(first_zero + 10 * period) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            StepSchedule.constant(0.0)
        with pytest.raises(ConfigInvalid):
            StepSchedule.staircase(0.5, divide_by=1.0)
        with pytest.raises(ConfigInvalid):
            StepSchedule.staircase(0.5, period=0)

    @pytest.mark.parametrize("gamma", ["x", "0.5", True, None, float("nan"), float("inf"), -0.1, 0])
    def test_gamma_must_be_finite_positive_real(self, gamma):
        with pytest.raises(ConfigInvalid):
            StepSchedule.constant(gamma)
        with pytest.raises(ConfigInvalid):
            StepSchedule.staircase(0.5).with_gamma(gamma)

    def test_config_roundtrip(self):
        for s in (StepSchedule.constant(0.2), StepSchedule.staircase(0.9, 5.0, 50)):
            assert StepSchedule.from_config(s.to_config()) == s


class TestDeterminism:
    def test_same_config_bitwise_identical(self):
        p = gen_heterogeneous(4, 4, seed=1)
        cfg = scaled_het_cfg(p, metrics=("f_gap_rel_log", "grad_sq"))
        t1, t2 = run(cfg), run(cfg)
        for name in cfg.metrics:
            np.testing.assert_array_equal(t1.metrics[name], t2.metrics[name])
        np.testing.assert_array_equal(t1.final_f, t2.final_f)

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_repeats_run_on_calling_thread(self, monkeypatch, threads):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("repeat thread pool entered")

        if threads is None:
            monkeypatch.delenv("IST_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("IST_LAB_THREADS", threads)
        monkeypatch.setattr(runner, "ThreadPoolExecutor", NoPool)
        p = gen_heterogeneous(3, 9, seed=4)
        cfg = scaled_het_cfg(p, repeats=4, metrics=("grad_sq",))
        run(cfg)
        sweep(cfg, [0.2, 0.5])

    def test_dgd_equals_ist_identity_bitwise(self):
        p = gen_heterogeneous(3, 5, seed=3)
        base = dict(schedule=StepSchedule.constant(0.01), K=20, seed=7, repeats=2,
                    metrics=("grad_sq", "dist_L_to_xstar", "submodel_loss_avg"))
        t_dgd = run(RunConfig(problem=p, estimator=EstimatorKind.dgd(), **base))
        t_ist = run(RunConfig(problem=p, estimator=EstimatorKind.ist(SketchKind.identity()), **base))
        for name in base["metrics"]:
            np.testing.assert_array_equal(t_dgd.metrics[name], t_ist.metrics[name])


class TestHomogeneousZeroVariance:
    def test_repeats_bitwise_identical_and_geometric(self):
        p, _ = precondition_homogeneous(gen_homogeneous(12, 12, seed=4))
        cfg = RunConfig(
            problem=p,
            estimator=EstimatorKind.ist(SketchKind.scaled_perm_homog()),
            schedule=StepSchedule.constant(0.3),
            K=12,
            seed=5,
            repeats=4,
            metrics=("dist_to_xinf",),
        )
        t = run(cfg)
        d = t.metrics["dist_to_xinf"]
        for r in range(1, 4):
            np.testing.assert_array_equal(d[r], d[0])
        ratios = d[0, 1:] / d[0, :-1]
        np.testing.assert_allclose(ratios, 0.7, rtol=1e-10)


class TestMultisetZeroVariance:
    def test_more_clients_than_coordinates_decays_deterministically(self):
        p, _ = precondition_homogeneous(gen_homogeneous(8, 4, seed=22))
        cfg = RunConfig(
            problem=p,
            estimator=EstimatorKind.ist(SketchKind.perm_multiset()),
            schedule=StepSchedule.constant(0.4),
            K=10,
            seed=23,
            repeats=3,
            metrics=("dist_to_xinf",),
        )
        t = run(cfg)
        d = t.metrics["dist_to_xinf"]
        for r in range(1, 3):
            np.testing.assert_array_equal(d[r], d[0])
        np.testing.assert_allclose(d[0, 1:] / d[0, :-1], 0.6, rtol=1e-9)


class TestHeterogeneousMeanRecursion:
    def test_mean_trajectory_matches_exact_recursion(self):
        p = gen_heterogeneous(4, 4, seed=6)
        cfg = scaled_het_cfg(p, gamma=0.5, K=12, seed=8, repeats=3000,
                             metrics=(), record_iterates=True)
        t = run(cfg)
        kind = SketchKind.scaled_perm_het()
        emp = t.iterates.mean(axis=0)
        se = t.iterates.std(axis=0) / np.sqrt(cfg.repeats)
        for k in (1, 4, 12):
            exact = expected_iterate(p, kind, t.x0, 0.5, k)
            assert np.all(np.abs(emp[k] - exact) <= 5.0 * se[k] + 1e-12)


class TestMetricsAndDivergence:
    def test_dgd_contracts_per_step(self):
        p = gen_heterogeneous(3, 8, seed=9).as_interpolation()
        vals = np.linalg.eigvalsh(p.L_bar)
        rho = 1.0 - vals[0] / vals[-1]
        cfg = RunConfig(
            problem=p,
            estimator=EstimatorKind.dgd(),
            schedule=StepSchedule.constant(1.0 / vals[-1]),
            K=40,
            seed=10,
            metrics=("dist_L_to_xstar",),
        )
        t = run(cfg)
        d = t.metrics["dist_L_to_xstar"][0]
        assert np.all(d[1:] <= rho * d[:-1] * (1.0 + 1e-8) + 1e-300)

    def test_divergence_marker_and_truncated_rows(self):
        p = gen_heterogeneous(3, 4, seed=11)
        lam_max = float(np.linalg.eigvalsh(p.L_bar).max())
        cfg = RunConfig(
            problem=p,
            estimator=EstimatorKind.dgd(),
            schedule=StepSchedule.constant(100.0 / lam_max),
            K=400,
            seed=12,
            metrics=("grad_sq",),
        )
        t = run(cfg)
        stop = int(t.diverged_at[0])
        assert stop > 0
        g = t.metrics["grad_sq"][0]
        assert np.isfinite(g[:stop]).all()
        assert np.isnan(g[stop:]).all()
        rows = list(t.rows())
        assert len(rows) == stop

    def test_k_zero_records_initial_metrics_only(self):
        p = gen_heterogeneous(2, 3, seed=13)
        cfg = scaled_het_cfg(p.as_interpolation(), K=0, repeats=2, metrics=("grad_sq",))
        t = run(cfg)
        assert t.metrics["grad_sq"].shape == (2, 1)
        assert len(list(t.rows())) == 2

    def test_submodel_loss_metric_finite_everywhere(self):
        p = gen_heterogeneous(2, 4, seed=14)
        cfg = scaled_het_cfg(p, K=5, repeats=2, metrics=("submodel_loss_avg",))
        t = run(cfg)
        assert np.isfinite(t.metrics["submodel_loss_avg"]).all()

    def test_f_gap_log_starts_at_zero(self):
        p = gen_heterogeneous(5, 5, seed=15)
        cfg = scaled_het_cfg(p, K=3, repeats=1, metrics=("f_gap_rel_log",))
        t = run(cfg)
        assert t.metrics["f_gap_rel_log"][0, 0] == 0.0

    def test_unknown_metric_rejected(self):
        p = gen_heterogeneous(2, 2, seed=16)
        with pytest.raises(ConfigInvalid):
            scaled_het_cfg(p, metrics=("nope",))

    @pytest.mark.parametrize("field, value", [
        ("K", 2.5), ("K", True), ("K", "3"), ("K", -1),
        ("repeats", 2.0), ("repeats", True), ("repeats", 0),
    ])
    def test_K_and_repeats_must_be_integers_in_range(self, field, value):
        # the experiment file's integer rules, for library callers too
        p = gen_heterogeneous(2, 2, seed=16)
        with pytest.raises(ConfigInvalid, match=f"{field} must be an integer"):
            scaled_het_cfg(p, **{field: value})

    def test_setup_eigendecomposes_L_bar_once(self, monkeypatch):
        # x* (for f_gap_rel_log) and the L_bar^{-1} weight read one cached spectrum
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        p = gen_heterogeneous(3, 5, seed=23)
        run(RunConfig(problem=p, estimator=EstimatorKind.dgd(), schedule=StepSchedule.constant(0.01),
                      K=3, seed=1, metrics=("f_gap_rel_log", "grad_sq_Linv")))
        assert len(calls) == 1

    def test_grad_sq_Linv_matches_pseudo_inverse(self):
        p = gen_heterogeneous(3, 6, seed=24)
        t = run(RunConfig(problem=p, estimator=EstimatorKind.dgd(),
                          schedule=StepSchedule.constant(0.01), K=5, seed=2,
                          metrics=("grad_sq_Linv",), record_iterates=True))
        inv = linalg.psd_pinv(p.L_bar)
        ref = [float(p.grad(x) @ (inv @ p.grad(x))) for x in t.iterates[0]]
        np.testing.assert_allclose(t.metrics["grad_sq_Linv"][0], ref, rtol=1e-12, atol=0)

    def test_x0_policies(self):
        p = gen_heterogeneous(3, 3, seed=17)
        z = run(scaled_het_cfg(p.as_interpolation(), K=1, repeats=1,
                               x0_policy="zeros", metrics=("grad_sq",)))
        np.testing.assert_array_equal(z.x0, np.zeros(3))
        given = np.array([1.0, 2.0, 3.0])
        g = run(scaled_het_cfg(p, K=1, repeats=1, x0_policy=given, metrics=("grad_sq",)))
        np.testing.assert_array_equal(g.x0, given)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


LANE_METRICS = ("f_gap_rel_log", "grad_sq", "grad_sq_Linv", "dist_L_to_xstar", "submodel_loss_avg")

# name -> (estimator, n, d, schedule, extra metrics)
LANE_CASES = {
    "perm_q": (EstimatorKind.ist(SketchKind.perm_q()), 3, 9, StepSchedule.constant(0.1), ()),
    "scaled_perm_het_q1": (EstimatorKind.ist(SketchKind.scaled_perm_het()), 5, 5,
                           StepSchedule.constant(0.5), ("dist_to_xinf",)),
    "scaled_perm_het_q3_staircase": (EstimatorKind.ist(SketchKind.scaled_perm_het()), 3, 9,
                                     StepSchedule.staircase(0.5, divide_by=2.0, period=25), ()),
    "rand_q": (EstimatorKind.ist(SketchKind.rand_q(3)), 3, 7, StepSchedule.constant(0.05), ()),
    "bernoulli": (EstimatorKind.ist(SketchKind.bernoulli(0.4)), 3, 7,
                  StepSchedule.constant(0.02), ()),
    "identity": (EstimatorKind.ist(SketchKind.identity()), 3, 7, StepSchedule.constant(0.05), ()),
    "dgd": (EstimatorKind.dgd(), 3, 7, StepSchedule.constant(0.05), ()),
    "cgd_bernoulli": (EstimatorKind.cgd(SketchKind.bernoulli(0.5)), 4, 11,
                      StepSchedule.constant(0.03), ()),
}


class TestSweep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(LANE_CASES))
    def test_every_lane_bitwise_equals_its_run(self, case):
        # the last step size diverges while the others finish; its lane must
        # still match a run of its own, and the other lanes keep drawing
        est, n, d, schedule, extra = LANE_CASES[case]
        cfg = RunConfig(
            problem=gen_heterogeneous(n, d, seed=n + d),
            estimator=est,
            schedule=schedule,
            K=40,
            seed=5,
            repeats=3,
            metrics=LANE_METRICS + extra,
            record_iterates=True,
        )
        gammas = [schedule.gamma / 2, schedule.gamma, 100 * schedule.gamma]
        traces = sweep(cfg, gammas)
        assert len(traces) == 3
        for gamma, t in zip(gammas, traces):
            ref = run(replace(cfg, schedule=schedule.with_gamma(gamma)))
            for name in cfg.metrics:
                assert_bitwise(t.metrics[name], ref.metrics[name])
            for attr in ("final_f", "diverged_at", "iterates", "gammas", "x0"):
                assert_bitwise(getattr(t, attr), getattr(ref, attr))
        assert (traces[0].diverged_at < 0).all() and (traces[1].diverged_at < 0).all()
        assert (traces[2].diverged_at > 0).all()

    def test_each_round_gathers_local_blocks_once(self, monkeypatch):
        # the draw's L_i[S_i, S_i] stack serves every lane's gradient and
        # gather-path submodel loss: one (draw, client) block per client and
        # round for K + 1 = 11 rounds, however the rounds are stacked in a tape
        monkeypatch.setattr(sketches, "GATHER_MAX_FRACTION", 1.0)
        blocks = []
        sub_blocks = sketches._sub_blocks
        monkeypatch.setattr(sketches, "_sub_blocks",
                            lambda p, idx: blocks.append(idx[..., 0].size) or sub_blocks(p, idx))
        p = gen_heterogeneous(3, 9, seed=12)
        cfg = scaled_het_cfg(p, K=10, repeats=1, metrics=("submodel_loss_avg",))
        traces = sweep(cfg, [0.1, 0.2, 0.3])
        assert all((t.diverged_at < 0).all() for t in traces)
        assert sum(blocks) == 11 * 3

    @pytest.mark.parametrize("est, gathers", [
        (EstimatorKind.ist(SketchKind.perm_q()), 10),
        (EstimatorKind.ist(SketchKind.rand_q(3)), 10),
        (EstimatorKind.cgd(SketchKind.rand_q(3)), 0),
    ], ids=["ist-perm_q", "ist-rand_q", "cgd-rand_q"])
    def test_each_draws_blocks_are_gathered_once_for_every_lane(self, monkeypatch, est, gathers):
        # a draw whose factors need no L_i[S_i, S_i] has it gathered with its tape's,
        # once for every lane's ist gradient: one (draw, client) block per client
        # and round for K = 10 rounds; cgd never reads it
        blocks = []
        sub_blocks = sketches._sub_blocks
        monkeypatch.setattr(sketches, "_sub_blocks",
                            lambda p, idx: blocks.append(idx[..., 0].size) or sub_blocks(p, idx))
        p = gen_heterogeneous(3, 9, seed=12)
        cfg = RunConfig(problem=p, estimator=est, schedule=StepSchedule.constant(0.001),
                        K=10, seed=3, repeats=1, metrics=("grad_sq",))
        traces = sweep(cfg, [0.001, 0.002, 0.003])
        assert all((t.diverged_at < 0).all() for t in traces)
        assert sum(blocks) == gathers * 3

    def test_cgd_gathers_each_draws_rows_once_for_every_lane(self, monkeypatch):
        # L_i[S_i, :] is gathered once per round, for all three lanes' gradients
        gathers = []
        rows = sketches._rows
        monkeypatch.setattr(sketches, "_rows", lambda a, idx: gathers.append(a is p.L) or rows(a, idx))
        p = gen_heterogeneous(3, 9, seed=12)
        cfg = RunConfig(problem=p, estimator=EstimatorKind.cgd(SketchKind.rand_q(3)),
                        schedule=StepSchedule.constant(0.001), K=10, seed=3, repeats=1,
                        metrics=("grad_sq",))
        traces = sweep(cfg, [0.001, 0.002, 0.003])
        assert all((t.diverged_at < 0).all() for t in traces)
        assert sum(gathers) == cfg.K

    @pytest.mark.parametrize("est", [
        EstimatorKind.ist(SketchKind.rand_q(3)),
        EstimatorKind.ist(SketchKind.bernoulli(0.3)),
        EstimatorKind.cgd(SketchKind.bernoulli(0.3)),
    ], ids=["ist-rand_q", "ist-bernoulli", "cgd-bernoulli"])
    def test_submodel_loss_shares_each_draws_gather(self, monkeypatch, est):
        # on the loss's gather path, each (draw, client) block L_i[S_i, S_i] is
        # gathered once for every lane's gradient and loss: (K + 1) n of them
        monkeypatch.setattr(sketches, "GATHER_MAX_FRACTION", 1.0)
        blocks = []
        sub_blocks = sketches._sub_blocks
        monkeypatch.setattr(sketches, "_sub_blocks",
                            lambda p, idx: blocks.append(idx[..., 0].size) or sub_blocks(p, idx))
        p = gen_heterogeneous(3, 9, seed=12)
        cfg = RunConfig(problem=p, estimator=est, schedule=StepSchedule.constant(0.001),
                        K=10, seed=3, repeats=1, metrics=("submodel_loss_avg",))
        traces = sweep(cfg, [0.001, 0.002, 0.003])
        assert all((t.diverged_at < 0).all() for t in traces)
        assert sum(blocks) == 11 * 3

    def test_invalid_gamma_rejected_before_running(self):
        p = gen_heterogeneous(3, 3, seed=18)
        with pytest.raises(ConfigInvalid):
            sweep(scaled_het_cfg(p), [0.4, float("nan")])

    def test_singleton_sweep_equals_run(self):
        p = gen_heterogeneous(3, 3, seed=18)
        cfg = scaled_het_cfg(p, gamma=0.4, K=8, repeats=2, metrics=("f_gap_rel_log",))
        t_single = run(cfg)
        (t_sweep,) = sweep(cfg, [0.4])
        np.testing.assert_array_equal(
            t_single.metrics["f_gap_rel_log"], t_sweep.metrics["f_gap_rel_log"]
        )

    def test_traces_share_initial_point(self):
        p = gen_heterogeneous(3, 3, seed=19)
        cfg = scaled_het_cfg(p, K=4, repeats=1, metrics=("grad_sq",))
        traces = sweep(cfg, [0.2, 0.5, 0.9])
        for t in traces[1:]:
            np.testing.assert_array_equal(t.x0, traces[0].x0)

    def test_plateau_not_below_bias_floor(self):
        # the mean iterate converges to x_inf regardless of the schedule, so
        # the realized plateau cannot undercut the bias-induced gap at x_inf
        p = gen_heterogeneous(6, 6, seed=20)
        h = estimator_bias(p)
        floor = 0.5 * linalg.weighted_sqnorm(h, p.L_bar)
        x_star = p.solution()
        f_star = p.f(x_star)
        for schedule in (
            StepSchedule.staircase(0.5, divide_by=10.0, period=300),
            StepSchedule.constant(0.005),
        ):
            cfg = RunConfig(
                problem=p,
                estimator=EstimatorKind.ist(SketchKind.scaled_perm_het()),
                schedule=schedule,
                K=1200,
                seed=21,
                repeats=3,
                metrics=("f_gap_rel_log",),
            )
            t = run(cfg)
            gap0 = p.f(t.x0) - f_star
            tail = t.metrics["f_gap_rel_log"][:, -120:]
            plateau_gap = np.mean(10.0**tail) * gap0
            assert plateau_gap >= 0.8 * floor


def per_iterate_metrics(cfg, x0, x, sample):
    """Every metric of ``cfg`` at one iterate, by its formula for a single vector."""
    p, sketch = cfg.problem, cfg.estimator.sketch
    Lx = p.L_bar @ x
    f, g = 0.5 * float(x @ Lx) - float(x @ p.b_bar), Lx - p.b_bar
    vals = {}
    for name in cfg.metrics:
        if name == "f_gap_rel_log":
            f_star = p.f(p.solution())
            gap0 = max(p.f(x0) - f_star, 1e-300)
            vals[name] = np.log10(max(max(f - f_star, 1e-300) / gap0, 1e-300))
        elif name == "grad_sq":
            vals[name] = float(g @ g)
        elif name == "grad_sq_Linv":
            z = p.spectrum.eigenvectors.T @ g
            vals[name] = float((z * z * p.spectrum.function_values(lambda v: 1.0 / v)).sum())
        elif name == "dist_L_to_xstar":
            dx = x - p.solution()
            vals[name] = float(dx @ (p.L_bar @ dx))
        elif name == "dist_to_xinf":
            vals[name] = float(np.linalg.norm(x - fixed_point(p, sketch)))
        else:  # submodel_loss_avg
            whole_model = sketch is None or sketch.family.whole_model
            vals[name] = f if whole_model else sample.submodel_loss(p, x)
    return vals


BLOCK_CASES = dict(LANE_CASES, cgd_bernoulli_d200=(
    EstimatorKind.cgd(SketchKind.bernoulli(0.1)), 10, 200, StepSchedule.constant(2e-4), ()))


class TestBlockMetrics:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_rows_bitwise_equal_per_iterate_formulas(self, case):
        # the d = 200 case runs past the first block of BLOCK_ROUNDS rounds;
        # the second lane diverges, so only its rows before diverged_at count
        est, n, d, schedule, extra = BLOCK_CASES[case]
        K = 300 if d == 200 else 40
        cfg = RunConfig(problem=gen_heterogeneous(n, d, seed=n + d), estimator=est,
                        schedule=schedule, K=K, seed=5, repeats=1 if d == 200 else 2,
                        metrics=LANE_METRICS + extra, record_iterates=True)
        traces = sweep(cfg, [schedule.gamma, 100 * schedule.gamma])
        assert (traces[0].diverged_at < 0).all() and (traces[1].diverged_at > 0).all()
        for r in range(cfg.repeats):
            # replay the repeat's draws: one per round, the last for the submodel loss
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
            for k in range(K + 1):
                sample = None if est.sketch is None else sketches.sample(est.sketch, cfg.problem, rng)
                for t in traces:
                    if 0 <= t.diverged_at[r] <= k:
                        assert all(np.isnan(t.metrics[name][r, k]) for name in cfg.metrics)
                        continue
                    ref = per_iterate_metrics(cfg, t.x0, t.iterates[r, k], sample)
                    for name in cfg.metrics:
                        assert_bitwise(t.metrics[name][r, k], np.float64(ref[name]))

    @pytest.mark.parametrize("block", [1, 7])
    def test_traces_do_not_depend_on_block_length(self, monkeypatch, block):
        # lane 1 diverges at k = 29, inside a 7-round block; lane 2 at k = 35,
        # the first row of a block, so its last valid iterate is in the block before
        cfg = RunConfig(problem=gen_heterogeneous(3, 7, seed=10),
                        estimator=EstimatorKind.ist(SketchKind.rand_q(3)),
                        schedule=StepSchedule.constant(0.05), K=40, seed=5, repeats=2,
                        metrics=LANE_METRICS, record_iterates=True)
        gammas = [0.05, 2.242, 1.2]
        ref = sweep(cfg, gammas)
        assert [t.diverged_at.tolist() for t in ref] == [[-1, -1], [29, 29], [35, 35]]
        monkeypatch.setattr(runner, "BLOCK_ROUNDS", block)
        for t, t_ref in zip(sweep(cfg, gammas), ref):
            for name in cfg.metrics:
                assert_bitwise(t.metrics[name], t_ref.metrics[name])
            for attr in ("final_f", "diverged_at", "iterates"):
                assert_bitwise(getattr(t, attr), getattr(t_ref, attr))

    @pytest.mark.parametrize("chunk", [1, 7, "block"])
    @pytest.mark.parametrize("case", ["scaled_perm_het_q3_staircase", "bernoulli", "cgd_bernoulli"])
    def test_traces_do_not_depend_on_tape_length(self, monkeypatch, case, chunk):
        # K + 1 = 301 draws (the last for the submodel loss) in blocks of 256 and
        # 45 rounds, none a multiple of 7; the second lane diverges.  An ist
        # Bernoulli round holds its blocks, a cgd one only its draw
        est, n, d, schedule, extra = LANE_CASES[case]
        cfg = RunConfig(problem=gen_heterogeneous(n, d, seed=n + d), estimator=est,
                        schedule=schedule, K=300, seed=5, repeats=2,
                        metrics=LANE_METRICS + extra, record_iterates=True)
        gammas = [schedule.gamma, 100 * schedule.gamma]
        ref = sweep(cfg, gammas)
        assert (ref[0].diverged_at < 0).all() and (ref[1].diverged_at > 0).all()
        blocks = est.kind == "ist"
        per_round = est.sketch.family.round_bytes(est.sketch, n, d, blocks)
        rounds = runner.BLOCK_ROUNDS if chunk == "block" else chunk
        monkeypatch.setattr(sketches, "CHUNK_BYTES", rounds * per_round)
        assert sketches._tape_len(est.sketch, n, d, blocks) == rounds
        for t, t_ref in zip(sweep(cfg, gammas), ref):
            for name in cfg.metrics:
                assert_bitwise(t.metrics[name], t_ref.metrics[name])
            for attr in ("final_f", "diverged_at", "iterates", "gammas", "x0"):
                assert_bitwise(getattr(t, attr), getattr(t_ref, attr))


class TestStepSizes:
    @pytest.mark.parametrize("schedule", [
        StepSchedule.constant(0.3),
        StepSchedule.staircase(0.1, 10, 1),  # an int divide_by: exact integer powers
        StepSchedule.staircase(0.1, 10.0, 3),
        StepSchedule.staircase(0.7, 10**150, 2),  # past the float range at the third level
        StepSchedule.staircase(0.7, 1e150, 1),
        StepSchedule.staircase(1e-300, 7, 2),  # underflows to 0.0
    ], ids=["constant", "int", "float", "int_overflow", "float_overflow", "underflow"])
    def test_each_step_size_is_gamma_at(self, schedule):
        K = 61
        want = np.array([schedule.gamma_at(k) for k in range(K)])
        assert np.array(schedule.gammas(K)).tobytes() == want.tobytes()
        p = gen_heterogeneous(2, 3, seed=1)
        cfg = RunConfig(problem=p, estimator=EstimatorKind.dgd(), schedule=schedule, K=K, seed=1, metrics=())
        assert run(cfg).gammas.tobytes() == want.tobytes()
        assert schedule.gammas(0) == []


class TestMemory:
    def test_run_peak_stays_within_two_tape_chunks(self):
        # the c09 shape (q = 10) with the submodel loss: a run holds one tape
        # chunk of draws at a time, never a whole block's or run's
        p = gen_heterogeneous(10, 100, seed=30)
        cfg = scaled_het_cfg(p, K=600, repeats=1, metrics=("submodel_loss_avg",))
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sketches.CHUNK_BYTES

    def test_bernoulli_run_peak_stays_within_two_tape_chunks(self):
        # the cli-cgd-io run shape: a tape stacks tens of rounds, and the submodel
        # loss gathers each chunk's blocks L_i[S_i, S_i] a part of one width at a time
        p = gen_heterogeneous(10, 200, seed=30)
        cfg = RunConfig(problem=p, estimator=EstimatorKind.cgd(SketchKind.bernoulli(0.1)),
                        schedule=StepSchedule.constant(2e-4), K=600, seed=3, repeats=1,
                        metrics=("submodel_loss_avg",))
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sketches.CHUNK_BYTES


# family -> (estimator, n, d); bernoulli pads its rows, scaled_perm_het at
# d = 2n keeps 2 x 2 blocks
SUBMODEL_CASES = {
    "identity": (EstimatorKind.ist(SketchKind.identity()), 3, 5),
    "perm_q": (EstimatorKind.ist(SketchKind.perm_q()), 3, 6),
    "perm_multiset": (EstimatorKind.ist(SketchKind.perm_multiset()), 4, 2),
    "scaled_perm_homog": (EstimatorKind.ist(SketchKind.scaled_perm_homog()), 2, 4),
    "scaled_perm_het": (EstimatorKind.ist(SketchKind.scaled_perm_het()), 3, 6),
    "rand_q": (EstimatorKind.ist(SketchKind.rand_q(2)), 3, 5),
    "bernoulli": (EstimatorKind.cgd(SketchKind.bernoulli(0.5)), 3, 6),
}


class TestSubmodelLoss:
    # 1.0 always gathers L_i[S_i, S_i]; 0.0 always takes the dense product
    @pytest.mark.parametrize("gather_max", [1.0, 0.0], ids=["gather", "dense"])
    @pytest.mark.parametrize("case", sorted(sketches.FAMILIES) + ["scaled_perm_het_q1", "dgd"])
    def test_matches_dense_per_client_reference(self, case, gather_max, monkeypatch):
        monkeypatch.setattr(sketches, "GATHER_MAX_FRACTION", gather_max)
        if case == "scaled_perm_het_q1":
            est, n, d = EstimatorKind.ist(SketchKind.scaled_perm_het()), 3, 3
        elif case == "dgd":
            est, n, d = EstimatorKind.dgd(), 3, 5
        else:
            est, n, d = SUBMODEL_CASES[case]
        p = gen_heterogeneous(n, d, seed=60 + n + d)
        cfg = RunConfig(problem=p, estimator=est, schedule=StepSchedule.constant(0.05),
                        K=6, seed=8, repeats=2, metrics=("submodel_loss_avg",),
                        record_iterates=True)
        t = run(cfg)
        padded = False
        for r in range(cfg.repeats):
            # replay the repeat's draws from its documented substream
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
            for k in range(cfg.K + 1):
                x = t.iterates[r, k]
                if est.sketch is None:
                    ref = np.mean([p.f_client(i, x) for i in range(n)])
                else:
                    s = sketches.sample(est.sketch, p, rng)
                    padded |= s.factors.ndim == 2 and not s.factors.all()
                    ref = np.mean([p.f_client(i, s.client_matrix(i) @ x) for i in range(n)])
                    np.testing.assert_allclose(s.submodel_loss(p, x), ref, rtol=1e-12, atol=0)
                np.testing.assert_allclose(t.metrics["submodel_loss_avg"][r, k], ref,
                                           rtol=1e-12, atol=0)
        assert padded == (case == "bernoulli")

    def test_final_iterate_draws_without_a_gradient(self, monkeypatch):
        calls = []
        for name in ("ist_kernel", "cgd_kernel", "dgd_kernel"):  # one gradient per step
            monkeypatch.setattr(estimators, name, lambda *args, kernel=getattr(estimators, name):
                                calls.append(1) or kernel(*args))
        p = gen_heterogeneous(3, 6, seed=9)
        for est in (EstimatorKind.ist(SketchKind.rand_q(2)), EstimatorKind.dgd()):
            calls.clear()
            cfg = RunConfig(problem=p, estimator=est, schedule=StepSchedule.constant(0.05),
                            K=7, seed=1, repeats=3, metrics=("submodel_loss_avg",))
            assert np.isfinite(run(cfg).metrics["submodel_loss_avg"]).all()
            assert len(calls) == cfg.repeats * cfg.K

    def test_makes_no_per_client_loss_calls(self, monkeypatch):
        calls = []
        f_client = QuadraticProblem.f_client
        monkeypatch.setattr(QuadraticProblem, "f_client",
                            lambda self, i, x: calls.append(i) or f_client(self, i, x))
        p = gen_heterogeneous(3, 6, seed=9)
        for est in (EstimatorKind.cgd(SketchKind.bernoulli(0.3)), EstimatorKind.dgd()):
            cfg = RunConfig(problem=p, estimator=est, schedule=StepSchedule.constant(0.05),
                            K=5, seed=1, metrics=("submodel_loss_avg",))
            assert np.isfinite(run(cfg).metrics["submodel_loss_avg"]).all()
        assert calls == []
