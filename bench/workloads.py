"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed in ``setup`` and
exposes a list of operations.  An operation calls istlab's public API
through the module attribute (``istlab.runner.run``, not the ``istlab.run``
re-export) so a traced run sees it.  Its check runs after the timed call and
returns a list of failure messages, empty when the output is correct.

``host_share`` is the share of a workload's run time that moves with the
host speed the benchmark's yardstick measures (see ``run_bench``).  It was
taken from 0, 0.25, 0.5, 0.75 and 1 as the value that gave the steadiest
spread and median over three sets of runs on a 2-vCPU shared host: 1 for
the step loops, which spend their time in small numpy calls like the
yardstick does, and 0.5 for the workloads whose time goes largely to large
LAPACK calls or file I/O (the slope of log time on log yardstick time was
0.2 to 0.4 there, 0.9 to 1.7 on ist-block-sweep).

ist-tiny-repeats
    The c07 shape: per-step Python in ``runner.run`` and the n = d fast path
    of ``estimators.estimate``, plus the repeat thread pool.  No eigensolve,
    no metric cost and no I/O.
ist-block-sweep
    The c09 shape: each step spends most of its time in
    ``sketches._het_blocks``, ten small ``linalg.spd_inv_sqrt`` calls plus
    ``np.ix_`` gathers.
certify-routes
    One ``certificates.certificate`` call per expectation route: four
    enumeration routes, two closed-form routes and the d = 2000 ceiling.  A
    few large eigensolves against ``ist-block-sweep``'s many small ones.
cli-cgd-io
    In-process ``istlab.cli.main`` calls: problem-file reads, trace and
    sidecar writes, ``runner``'s metric closure and the cgd/Bernoulli path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One timed call; ``check(result)`` returns failure messages."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _relclose(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.abs(a - b).max(initial=0.0) <= tol * max(np.abs(b).max(initial=0.0), 1e-300))


# ---------------------------------------------------------------------------
# ist-tiny-repeats
# ---------------------------------------------------------------------------


class TinyRepeats:
    """c07 shape: gen_heterogeneous(4, 4, seed=5), scaled_perm_het, gamma 0.5."""

    name = "ist-tiny-repeats"
    host_share = 1.0
    repeats = 500
    K = 50
    gamma = 0.5

    def setup(self, istlab, seed: int, workdir: str):
        p = istlab.quadratics.gen_heterogeneous(4, 4, seed=5)
        kind = istlab.sketches.SketchKind.scaled_perm_het()
        cfg = istlab.runner.RunConfig(
            problem=p,
            estimator=istlab.estimators.EstimatorKind.ist(kind),
            schedule=istlab.runner.StepSchedule.constant(self.gamma),
            K=self.K,
            seed=seed,
            repeats=self.repeats,
            metrics=(),
            record_iterates=True,
        )
        return istlab, cfg

    def ops(self, state) -> list[Op]:
        istlab, cfg = state
        return [Op("run", lambda: istlab.runner.run(cfg), lambda t: self.check(istlab, cfg, t))]

    def check(self, istlab, cfg, trace) -> list[str]:
        cert = istlab.certificates
        kind = cfg.estimator.sketch
        it = trace.iterates
        mean = it.mean(axis=0)
        se = it.std(axis=0) / math.sqrt(cfg.repeats)
        errs = []
        for k in range(cfg.K + 1):
            exact = cert.expected_iterate(cfg.problem, kind, trace.x0, self.gamma, k)
            if not np.all(np.abs(mean[k] - exact) <= 5.0 * se[k] + 1e-12):
                errs.append(f"mean iterate {k} outside 5 standard errors of expected_iterate")
        x_inf = cert.fixed_point(cfg.problem, kind)
        if not np.all(np.abs(mean[cfg.K] - x_inf) <= 5.0 * se[cfg.K] + 1e-12):
            errs.append("final mean iterate outside 5 standard errors of fixed_point")
        return errs


# ---------------------------------------------------------------------------
# ist-block-sweep
# ---------------------------------------------------------------------------


class BlockSweep:
    """c09 shape: gen_heterogeneous(10, 100, seed=30), q = 10, three gammas."""

    name = "ist-block-sweep"
    host_share = 1.0
    gammas = (0.2, 0.5, 0.9)
    K = 2000
    tail = 200

    def setup(self, istlab, seed: int, workdir: str):
        p = istlab.quadratics.gen_heterogeneous(10, 100, seed=30)
        cfg = istlab.runner.RunConfig(
            problem=p,
            estimator=istlab.estimators.EstimatorKind.ist(istlab.sketches.SketchKind.scaled_perm_het()),
            schedule=istlab.runner.StepSchedule.constant(0.5),
            K=self.K,
            seed=seed,
            repeats=1,
            metrics=("f_gap_rel_log",),
        )
        return istlab, cfg

    def ops(self, state) -> list[Op]:
        istlab, cfg = state
        return [Op("sweep", lambda: istlab.runner.sweep(cfg, self.gammas), self.check)]

    def check(self, traces) -> list[str]:
        plateaus, hits = [], []
        for t in traces:
            rel = 10.0 ** t.metrics["f_gap_rel_log"][0]
            plateau = rel[-self.tail:].mean()
            plateaus.append(plateau)
            hits.append(int(np.argmax(rel <= 2.0 * plateau)))
        errs = []
        if not plateaus[0] < plateaus[1] < plateaus[2]:
            errs.append(f"plateaus not increasing in gamma: {plateaus}")
        if not hits[0] > hits[1] > hits[2]:
            errs.append(f"hit times not decreasing in gamma: {hits}")
        return errs


# ---------------------------------------------------------------------------
# certify-routes
# ---------------------------------------------------------------------------


def pair_probability_sigma2(p) -> float:
    """sigma2 of q = 1 scaled_perm_het from uniform-permutation pair probabilities.

    With a_ij = b_i[j] / sqrt(L_i[jj]) and S_j = sum_i a_ij, coordinate j of
    the linear term is a_{sigma(j) j} / sqrt(n) for a uniform permutation
    sigma, so cov_jk = (S_j S_k - sum_i a_ij a_ik) / (n(n-1)) - abar_j abar_k
    off the diagonal, var_j = mean_i a_ij^2 - abar_j^2 on it, and
    sigma2 = tr(L_bar cov) / n.
    """
    n = p.n
    a = p.b / np.sqrt(p.diag)
    S = a.sum(axis=0)
    abar = S / n
    cov = (np.outer(S, S) - a.T @ a) / (n * (n - 1)) - np.outer(abar, abar)
    np.fill_diagonal(cov, (a * a).mean(axis=0) - abar * abar)
    return float(np.trace(p.L_bar @ cov)) / n


def _descent_from(p, mean_curvature) -> np.ndarray:
    return 0.5 * (p.L_bar @ mean_curvature + mean_curvature @ p.L_bar)


def _offdiag(m):
    return m - np.diag(np.diag(m))


class CertifyRoutes:
    """One certificate per expectation route.

    The d = 2000 call raises ``ValueError`` at this revision (the
    ``TooLarge`` message formats ``math.factorial(2000)`` past Python's
    integer-string limit); it is counted as a failed operation, not skipped.
    """

    name = "certify-routes"
    host_share = 0.5

    def setup(self, istlab, seed: int, workdir: str):
        gen = istlab.quadratics.gen_heterogeneous
        SK = istlab.sketches.SketchKind
        fixture = istlab.quadratics.QuadraticProblem.load(istlab.cli.counterexample_fixture_path())
        routes = [
            ("scaled_perm_het n=d=8", gen(8, 8, seed=seed), SK.scaled_perm_het()),
            ("perm_q n=d=7", gen(7, 7, seed=seed), SK.perm_q()),
            ("rand_q(2) n=3 d=6", gen(3, 6, seed=seed), SK.rand_q(2)),
            ("bernoulli(0.5) n=2 d=6", gen(2, 6, seed=seed), SK.bernoulli(0.5)),
            ("scaled_perm_het n=10 d=100", gen(10, 100, seed=seed), SK.scaled_perm_het()),
            ("fixture perm_q", fixture, SK.perm_q()),
            ("scaled_perm_het n=10 d=2000", gen(10, 2000, seed=seed), SK.scaled_perm_het()),
        ]
        return istlab, routes

    def ops(self, state) -> list[Op]:
        istlab, routes = state
        ops = []
        for label, p, kind in routes:
            def call(p=p, kind=kind):
                return istlab.certificates.certificate(p, kind)

            def check(cert, p=p, kind=kind):
                return self.check(p, kind, cert)

            ops.append(Op(label, call, check))
        return ops

    def check(self, p, kind, cert) -> list[str]:
        errs = []
        n, d = p.n, p.d
        if kind.kind == "scaled_perm_het":
            if cert.theta is None or not _close(cert.theta, 1.0, 1e-9):
                errs.append(f"theta {cert.theta} != 1 for scaled_perm_het at n={n}, d={d}")
            if n == d:
                ref = pair_probability_sigma2(p)
                if cert.sigma2 is None or not _close(cert.sigma2, ref, 1e-9):
                    errs.append(f"sigma2 {cert.sigma2} != pair-probability value {ref}")
            return errs
        if n == 2 and d == 2 and kind.kind == "perm_q":
            if cert.theta is not None or cert.descent_psd is not False:
                errs.append("fixture should give theta None and descent_psd False")
            return errs
        L_bar = p.L_bar
        D = np.diag(np.diag(L_bar))
        if kind.kind == "perm_q":  # q = 1: E[B] = n Diag(L_bar)
            eb = n * D
        elif kind.kind == "rand_q":
            q = kind.q
            eb = (d / q) * D + (d * (q - 1) / (q * (d - 1))) * _offdiag(L_bar)
        else:  # bernoulli
            eb = D / kind.p + _offdiag(L_bar)
        if not _relclose(cert.descent, _descent_from(p, eb), 1e-9):
            errs.append(f"descent matrix of {kind.kind} disagrees with its closed form")
        if cert.theta is not None and cert.theta < 0.0:
            errs.append(f"negative theta {cert.theta}")
        return errs


# ---------------------------------------------------------------------------
# cli-cgd-io
# ---------------------------------------------------------------------------

RUN_METRICS = ["f_gap_rel_log", "grad_sq", "grad_sq_Linv", "dist_L_to_xstar", "submodel_loss_avg"]
TRACE_HEADER = ["repeat", "k", "metric_name", "value"]


def call_cli(istlab, argv: list[str]) -> tuple[int, str]:
    """Run ``istlab.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = istlab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _sidecar_errors(path: str) -> list[str]:
    try:
        with open(path + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"sidecar {path}.meta.json does not parse: {exc}"]
    if any(v != -1 for v in meta.get("diverged_at", [None])):
        return [f"sidecar {path}.meta.json reports diverged repeats {meta.get('diverged_at')}"]
    return []


class CliCgdIo:
    """gen, run, sweep and theory through ``istlab.cli.main``."""

    name = "cli-cgd-io"
    host_share = 0.5
    n, d = 10, 200
    K = 2000
    run_repeats = 4
    run_gamma = 2e-4
    sweep_gammas = "1e-4,2e-4"
    #: every repeat of the run must end below this f_gap_rel_log (about -6.2 is typical)
    final_gap_max = -5.0

    def setup(self, istlab, seed: int, workdir: str):
        problem = os.path.join(workdir, "problem.json")
        code, _ = call_cli(istlab, ["gen", "--n", str(self.n), "--d", str(self.d),
                                    "--seed", str(seed), "--mode", "het", "--out", problem])
        if code != 0:
            raise RuntimeError(f"istlab gen exited {code}")
        run_cfg = os.path.join(workdir, "run_config.json")
        sweep_cfg = os.path.join(workdir, "sweep_config.json")
        base = {"problem": problem, "estimator": "cgd", "K": self.K, "seed": seed}
        docs = {
            run_cfg: dict(base, sketch={"kind": "bernoulli", "p": 0.1},
                          schedule={"type": "constant", "gamma": self.run_gamma},
                          repeats=self.run_repeats, metrics=RUN_METRICS,
                          output={"format": "csv", "path": os.path.join(workdir, "run.csv")}),
            sweep_cfg: dict(base, sketch={"kind": "rand_q", "q": 20},
                            schedule={"type": "constant", "gamma": self.run_gamma},
                            repeats=1, metrics=["f_gap_rel_log"],
                            output={"format": "json", "path": os.path.join(workdir, "sweep.json")}),
        }
        for path, doc in docs.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return istlab, problem, docs[run_cfg], run_cfg, docs[sweep_cfg], sweep_cfg

    def ops(self, state) -> list[Op]:
        istlab, problem, run_doc, run_cfg, sweep_doc, sweep_cfg = state
        return [
            Op("run", lambda: call_cli(istlab, ["run", "--config", run_cfg]),
               lambda r: self.check_run(r, run_doc)),
            Op("sweep", lambda: call_cli(istlab, ["sweep", "--config", sweep_cfg,
                                                  "--gammas", self.sweep_gammas]),
               lambda r: self.check_sweep(r, sweep_doc)),
            Op("theory", lambda: call_cli(istlab, ["theory", "--problem", problem,
                                                   "--sketch", "scaled_perm_het"]),
               self.check_theory),
        ]

    def check_run(self, result, doc) -> list[str]:
        code, _ = result
        if code != 0:
            return [f"istlab run exited {code}"]
        path = doc["output"]["path"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        errs = []
        if rows[0] != TRACE_HEADER:
            errs.append(f"trace header {rows[0]}")
        expected = self.run_repeats * (self.K + 1) * len(RUN_METRICS)
        if len(rows) - 1 != expected:
            errs.append(f"{len(rows) - 1} trace rows, expected {expected}")
        finals = [float(r[3]) for r in rows[1:] if r[1] == str(self.K) and r[2] == "f_gap_rel_log"]
        if len(finals) != self.run_repeats or not all(v <= self.final_gap_max for v in finals):
            errs.append(f"final f_gap_rel_log per repeat {finals}, expected <= {self.final_gap_max}")
        return errs + _sidecar_errors(path)

    def check_sweep(self, result, doc) -> list[str]:
        code, _ = result
        if code != 0:
            return [f"istlab sweep exited {code}"]
        errs = []
        base, ext = os.path.splitext(doc["output"]["path"])
        for tok in self.sweep_gammas.split(","):
            path = f"{base}_gamma{float(tok):g}{ext}"
            try:
                with open(path, encoding="utf-8") as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                errs.append(f"sweep trace {path} does not parse: {exc}")
                continue
            series = trace["metrics"]["f_gap_rel_log"][0]
            if len(series) != self.K + 1 or series[-1] is None or not series[-1] < series[0]:
                errs.append(f"sweep trace {path} did not descend")
            errs += _sidecar_errors(path)
        return errs

    def check_theory(self, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"istlab theory exited {code}"]
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return [f"theory output does not parse: {exc}"]
        theta = doc.get("theta")
        if not isinstance(theta, float) or not _close(theta, 1.0, 1e-9) or doc.get("W_psd") is not True:
            return [f"theory gave theta={theta}, W_psd={doc.get('W_psd')}"]
        return []


WORKLOADS = {w.name: w for w in (TinyRepeats(), BlockSweep(), CertifyRoutes(), CliCgdIo())}
