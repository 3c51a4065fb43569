"""Execute the sketched iteration and record per-iteration metrics.

The update is x^{k+1} = x^k - gamma_k * g^k with a fresh joint sketch per
round.  A run executes ``repeats`` independent trajectories that share the
problem and the initial point; repeat ``r`` draws its sketches from the
substream ``SeedSequence(seed, spawn_key=(r,))``.  Repeats run one after
another on the calling thread, so a trace is bitwise reproducible for a fixed
config and problem.
A sweep advances its step sizes in lockstep: each round's joint sketch is
drawn once and shared by every step size, and each step size's trace is
bitwise equal to a separate run at that step size.

Metrics (recorded at every iterate x^0 .. x^K):

f_gap_rel_log
    log10((f(x^k) - f*) / (f(x^0) - f*)), clamped at 1e-300 before the log
    so exact convergence stays finite.
grad_sq, grad_sq_Linv
    ||grad f(x^k)||^2 and its L_bar^{-1}-weighted version.
dist_L_to_xstar
    ||x^k - x*||^2_{L_bar}.
dist_to_xinf
    ||x^k - x_inf|| (needs a sketch family with a closed-form fixed point).
submodel_loss_avg
    (1/n) sum_i f_i(C_i x^k) under the round's sketch, for all clients at
    once: on each client's kept coordinates when they are few, else with
    dense C_i x (equal to the per-client formula up to round-off).  It is
    f(x^k) for dgd and the identity sketch.  Other estimators draw one extra
    sketch at the final iterate solely for this metric.

A trajectory whose metric magnitude exceeds 1e100 (or whose iterate leaves
the float range) is marked diverged at that iteration; its remaining rows
are NaN and the run still returns normally.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (wrapped by bench/tracer.py)
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from . import certificates, estimators, sketches
from .errors import ConfigInvalid
from .estimators import EstimatorKind
from .quadratics import QuadraticProblem

METRICS = (
    "f_gap_rel_log",
    "grad_sq",
    "grad_sq_Linv",
    "dist_L_to_xstar",
    "dist_to_xinf",
    "submodel_loss_avg",
)

DIVERGENCE_LIMIT = 1e100


def _finite_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise ConfigInvalid(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class StepSchedule:
    """Constant step size, or a staircase divided periodically."""

    variant: str  # "constant" | "staircase"
    gamma: float
    divide_by: float | None = None
    period: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("constant", "staircase"):
            raise ConfigInvalid(f"unknown schedule variant {self.variant!r}")
        if not (_finite_real(self.gamma) and self.gamma > 0.0):
            raise ConfigInvalid(f"step size must be a finite positive number, got {self.gamma!r}")
        if self.variant == "staircase":
            if not (_finite_real(self.divide_by) and self.divide_by > 1.0):
                raise ConfigInvalid("staircase divide_by must be a finite number > 1")
            if not (_is_int(self.period) and self.period >= 1):
                raise ConfigInvalid("staircase period must be an integer >= 1")

    @classmethod
    def constant(cls, gamma: float) -> "StepSchedule":
        return cls("constant", gamma)

    @classmethod
    def staircase(cls, gamma0: float, divide_by: float = 10.0, period: int = 1000) -> "StepSchedule":
        return cls("staircase", gamma0, divide_by, period)

    def gamma_at(self, k: int) -> float:
        if self.variant == "constant":
            return self.gamma
        return self.gamma / self.divide_by ** (k // self.period)

    def with_gamma(self, gamma: float) -> "StepSchedule":
        return replace(self, gamma=gamma)

    @classmethod
    def from_config(cls, doc: dict) -> "StepSchedule":
        if not isinstance(doc, dict):
            raise ConfigInvalid("schedule must be an object with a 'type' key")
        if doc.get("type") == "constant":
            extra = set(doc) - {"type", "gamma"}
            if extra:
                raise ConfigInvalid(f"unknown schedule keys {sorted(extra)}")
            return cls.constant(doc["gamma"])
        if doc.get("type") == "staircase":
            extra = set(doc) - {"type", "gamma0", "divide_by", "period"}
            if extra:
                raise ConfigInvalid(f"unknown schedule keys {sorted(extra)}")
            return cls.staircase(doc["gamma0"], doc.get("divide_by", 10.0), doc.get("period", 1000))
        raise ConfigInvalid("schedule type must be 'constant' or 'staircase'")

    def to_config(self) -> dict:
        if self.variant == "constant":
            return {"type": "constant", "gamma": self.gamma}
        return {
            "type": "staircase",
            "gamma0": self.gamma,
            "divide_by": self.divide_by,
            "period": self.period,
        }


@dataclass(frozen=True)
class RunConfig:
    problem: QuadraticProblem
    estimator: EstimatorKind
    schedule: StepSchedule
    K: int
    seed: int
    repeats: int = 1
    x0_policy: object = "gaussian"  # "gaussian" | ("gaussian", seed) | "zeros" | vector
    metrics: tuple[str, ...] = ("f_gap_rel_log",)
    record_iterates: bool = False

    def __post_init__(self) -> None:
        if self.K < 0:
            raise ConfigInvalid("K must be >= 0")
        check_seed(self.seed)
        if self.repeats < 1:
            raise ConfigInvalid("repeats must be >= 1")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ConfigInvalid(f"unknown metrics {sorted(unknown)}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigInvalid(f"metrics must not repeat a name, got {list(self.metrics)}")


@dataclass
class Trace:
    """Per-iteration metric records with cross-repeat aggregates."""

    metrics: dict[str, NDArray]  # each (repeats, K+1), NaN after divergence
    final_f: NDArray  # (repeats,) realized f at the last recorded iterate
    diverged_at: NDArray  # (repeats,) iteration index, -1 if none
    gammas: NDArray  # (K,) realized step sizes
    x0: NDArray
    iterates: NDArray | None = None  # (repeats, K+1, d) when recorded
    metric_order: tuple[str, ...] = field(default_factory=tuple)

    @property
    def repeats(self) -> int:
        return self.final_f.shape[0]

    def mean(self, metric: str) -> NDArray:
        return np.nanmean(self.metrics[metric], axis=0)

    def std(self, metric: str) -> NDArray:
        return np.nanstd(self.metrics[metric], axis=0)

    def rows(self):
        """Yield (repeat, k, metric_name, value) in long format, stopping
        each repeat at its divergence point."""
        n_rows = self.metrics[self.metric_order[0]].shape[1] if self.metric_order else 0
        for r in range(self.repeats):
            stop = self.diverged_at[r]
            last = n_rows if stop < 0 else int(stop)
            for k in range(last):
                for name in self.metric_order:
                    yield r, k, name, float(self.metrics[name][r, k])


def _thread_budget() -> int:
    """Threads that run repeats: always 1 (recorded by bench/run_bench.py)."""
    return 1


def resolve_x0(cfg: RunConfig) -> NDArray:
    policy = cfg.x0_policy
    d = cfg.problem.d
    if isinstance(policy, str):
        if policy == "zeros":
            return np.zeros(d)
        if policy == "gaussian":
            policy = ("gaussian", cfg.seed)
    if isinstance(policy, tuple) and len(policy) == 2 and policy[0] == "gaussian":
        seed = cfg.seed if policy[1] is None else policy[1]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return rng.standard_normal(d)
    x0 = np.asarray(policy, dtype=np.float64)
    if x0.shape != (d,):
        raise ConfigInvalid(f"x0 vector must have length {d}")
    return x0


def _simulate(cfg: RunConfig, schedules: Sequence[StepSchedule]) -> list[Trace]:
    """Execute all repeats of ``cfg`` once per schedule, the schedules in lockstep.

    Each schedule is a lane with its own iterate.  A round draws one joint
    sketch from the repeat's substream and every live lane steps with that
    draw.  Draws never depend on the iterate, so the trace of lane ``j`` is
    bitwise the trace of a run at ``schedules[j]`` alone.  A lane that
    diverges stops; draws continue while any lane of the repeat is alive.
    """
    p = cfg.problem
    x0 = resolve_x0(cfg)
    K, n_lanes = cfg.K, len(schedules)
    gammas = np.array([[s.gamma_at(k) for k in range(K)] for s in schedules],
                      dtype=np.float64).reshape(n_lanes, K)

    needs_star = any(m in cfg.metrics for m in ("f_gap_rel_log", "dist_L_to_xstar"))
    x_star = p.solution() if needs_star else None
    f_star = p.f(x_star) if needs_star else None
    if "f_gap_rel_log" in cfg.metrics:
        gap0 = max(p.f(x0) - f_star, 1e-300)
    x_inf = None
    if "dist_to_xinf" in cfg.metrics:
        if cfg.estimator.sketch is None:
            raise ConfigInvalid("dist_to_xinf needs a sketch-based estimator")
        x_inf = certificates.fixed_point(p, cfg.estimator.sketch)
    # where every C_i = I (dgd, the identity sketch) the submodel loss is f(x);
    # otherwise it draws one extra sketch for the final iterate
    sketch = cfg.estimator.sketch
    whole_model = sketch is None or sketch.family.whole_model
    draws_last = "submodel_loss_avg" in cfg.metrics and not whole_model
    if "grad_sq_Linv" in cfg.metrics:
        # g' L_bar^+ g = sum_j z_j^2 / lambda_j with z = V' g: no d x d pseudo-inverse,
        # whose gemm rounding moves with the BLAS thread count, is formed
        V, inv_vals = p.spectrum.eigenvectors, p.spectrum.function_values(lambda v: 1.0 / v)

    shape = (n_lanes, cfg.repeats)
    out = {m: np.full(shape + (K + 1,), np.nan) for m in cfg.metrics}
    final_f = np.full(shape, np.nan)
    diverged = np.full(shape, -1, dtype=np.int64)
    iterates = np.full(shape + (K + 1, p.d), np.nan) if cfg.record_iterates else None

    L_bar, b_bar = p.L_bar, p.b_bar
    # f(x) and grad f(x) share one product L_bar @ x, in p.f's and p.grad's arithmetic
    needs_fg = not {"f_gap_rel_log", "grad_sq", "grad_sq_Linv"}.isdisjoint(cfg.metrics) or (
        "submodel_loss_avg" in cfg.metrics and whole_model)

    def metric_row(x, sample):
        vals = {}
        if needs_fg:
            Lx = L_bar @ x
            f, g = 0.5 * float(x @ Lx) - float(x @ b_bar), Lx - b_bar
        for name in cfg.metrics:
            if name == "f_gap_rel_log":
                rel = max(f - f_star, 1e-300) / gap0
                vals[name] = np.log10(max(rel, 1e-300))
            elif name == "grad_sq":
                vals[name] = float(g @ g)
            elif name == "grad_sq_Linv":
                z = V.T @ g
                vals[name] = float((z * z * inv_vals).sum())
            elif name == "dist_L_to_xstar":
                dx = x - x_star
                vals[name] = float(dx @ (L_bar @ dx))
            elif name == "dist_to_xinf":
                vals[name] = float(np.linalg.norm(x - x_inf))
            else:  # submodel_loss_avg
                vals[name] = f if whole_model else sample.submodel_loss(p, x)
        return vals

    def one_repeat(r: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
        xs = [x0] * n_lanes
        last_valid = [x0] * n_lanes
        live = list(range(n_lanes))
        for k in range(K + 1):
            # the round's draw, shared by every live lane
            draws = sketch is not None and (k < K or draws_last)
            sample = sketches.sample(sketch, p, rng) if draws else None
            for j in tuple(live):
                x = xs[j]
                if not np.isfinite(x).all():
                    diverged[j, r] = k
                    live.remove(j)
                    continue
                if k < K:
                    g = estimators.estimate(cfg.estimator, p, x, rng, sample)[0]
                vals = metric_row(x, sample)
                if any(not np.isfinite(v) or abs(v) > DIVERGENCE_LIMIT for v in vals.values()):
                    diverged[j, r] = k
                    live.remove(j)
                    continue
                for name, v in vals.items():
                    out[name][j, r, k] = v
                if iterates is not None:
                    iterates[j, r, k] = x
                last_valid[j] = x
                if k < K:
                    xs[j] = x - gammas[j, k] * g
            if not live:
                break
        for j in range(n_lanes):
            final_f[j, r] = p.f(last_valid[j])

    for r in range(cfg.repeats):
        one_repeat(r)

    return [
        Trace(
            metrics={m: out[m][j] for m in cfg.metrics},
            final_f=final_f[j],
            diverged_at=diverged[j],
            gammas=gammas[j],
            x0=x0,
            iterates=None if iterates is None else iterates[j],
            metric_order=cfg.metrics,
        )
        for j in range(n_lanes)
    ]


def run(cfg: RunConfig) -> Trace:
    """Execute all repeats of ``cfg`` and aggregate their metric records."""
    return _simulate(cfg, [cfg.schedule])[0]


def sweep(cfg: RunConfig, gamma_list) -> list[Trace]:
    """One trace per step size, sharing problem, seed, initial point and draws.

    The step sizes advance in lockstep on each round's single joint sketch
    draw; each trace is bitwise equal to ``run`` at that step size.
    """
    return _simulate(cfg, [cfg.schedule.with_gamma(g) for g in gamma_list])
