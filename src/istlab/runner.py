"""Execute the sketched iteration and record per-iteration metrics.

The update is x^{k+1} = x^k - gamma_k * g^k with a fresh joint sketch per
round.  A run executes ``repeats`` independent trajectories that share the
problem and the initial point; repeat ``r`` draws its sketches from the
substream ``SeedSequence(seed, spawn_key=(r,))``.  Repeats run one after
another on the calling thread, so a trace is bitwise reproducible for a fixed
config and problem.  A repeat draws its sketches as tapes: each chunk of
rounds is one ``sketches.sample`` call, one stacked sample, bit for bit one
draw per round, that gathers its b_i[S_i] rows (and, for ist, blocks
L_i[S_i, S_i]) once.  A chunk holds at most ``sketches._tape_len`` rounds: as
many as fit ``sketches.CHUNK_BYTES`` at the bytes one round holds
(``round_bytes`` of the family).  A round is a slice of the stack's arrays
(``SketchSample.slices``), stepped by one call of its estimator's array kernel.
A sweep's step sizes are lanes in lockstep: one kernel call per round steps
them all, on their stacked iterates, with the round's one draw; each step
size's trace is bitwise equal to a separate run at that step size.

Metrics (recorded at every iterate x^0 .. x^K):

f_gap_rel_log
    log10((f(x^k) - f*) / (f(x^0) - f*)), clamped at 1e-300 before the log
    so exact convergence stays finite.
grad_sq, grad_sq_Linv
    ||grad f(x^k)||^2 and its L_bar^+-weighted version (refused unless L_bar is PSD).
dist_L_to_xstar
    ||x^k - x*||^2_{L_bar}.
dist_to_xinf
    ||x^k - x_inf|| (needs a sketch family with a closed-form fixed point).
submodel_loss_avg
    (1/n) sum_i f_i(C_i x^k) under the round's sketch, for all clients at
    once: on each client's kept coordinates when they are few, else with
    dense C_i x (equal to the per-client formula up to round-off); per tape
    chunk and lane, one stacked pass per part of one width, bitwise per round.
    It is f(x^k) for dgd and the identity sketch.  Other estimators draw one
    extra sketch at the final iterate solely for this metric.

Metrics are computed per block of up to ``BLOCK_ROUNDS`` recorded iterates,
bitwise equal to the per-iterate formulas.  The first iterate that is
non-finite, or has a non-finite metric or one above 1e100 in magnitude, marks
the trajectory diverged there; its remaining rows are NaN and the run still
returns normally.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (wrapped by bench/tracer.py)
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from . import certificates, estimators, linalg, sketches
from .errors import ConfigInvalid, integer, json_object, real
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

#: rounds each lane steps through before the block's metrics are computed in one pass
BLOCK_ROUNDS = 256


def check_seed(seed) -> None:
    integer(seed, ConfigInvalid, "seed must be a non-negative integer", low=0)


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
        real(self.gamma, ConfigInvalid, "step size must be a finite positive number", above=0.0)
        if self.variant == "staircase":
            real(self.divide_by, ConfigInvalid, "staircase divide_by must be a finite number > 1", above=1.0)
            integer(self.period, ConfigInvalid, "staircase period must be an integer >= 1", low=1)

    @classmethod
    def constant(cls, gamma: float) -> "StepSchedule":
        return cls("constant", gamma)

    @classmethod
    def staircase(cls, gamma0: float, divide_by: float = 10.0, period: int = 1000) -> "StepSchedule":
        return cls("staircase", gamma0, divide_by, period)

    def gamma_at(self, k: int) -> float:
        if self.variant == "constant":
            return self.gamma
        try:
            return self.gamma / self.divide_by ** (k // self.period)
        except OverflowError:  # divide_by ** (k // period) past the float range
            return 0.0

    def gammas(self, K: int) -> list[float]:
        """``[gamma_at(k) for k in range(K)]``, each staircase level computed once and none
        past the first at 0.0: a level's quotient cannot rise with the level."""
        out, period = [], self.period or K or 1  # a constant schedule is one level
        for k in range(0, K, period):
            out += [self.gamma_at(k) if not out or out[-1] else 0.0] * min(period, K - k)
        return out

    def with_gamma(self, gamma: float) -> "StepSchedule":
        return replace(self, gamma=gamma)

    @classmethod
    def from_config(cls, doc: dict) -> "StepSchedule":
        # a non-object passes as "constant" here and json_object rejects it
        variant = doc.get("type") if isinstance(doc, dict) else "constant"
        if variant not in ("constant", "staircase"):
            raise ConfigInvalid("schedule type must be 'constant' or 'staircase'")
        keys = ("gamma",) if variant == "constant" else ("gamma0", "divide_by", "period")
        json_object(doc, ConfigInvalid, "schedule", {"type", *keys}, required=keys[:1])
        if variant == "constant":
            return cls.constant(doc["gamma"])
        return cls.staircase(doc["gamma0"], doc.get("divide_by", 10.0), doc.get("period", 1000))

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
        check_fields(self.K, self.seed, self.repeats, self.metrics)


def check_fields(K, seed, repeats, metrics) -> None:
    """The rules for a run's fields that need no problem; experiment files check them first."""
    integer(K, ConfigInvalid, "K must be an integer >= 0", low=0)
    check_seed(seed)
    integer(repeats, ConfigInvalid, "repeats must be an integer >= 1", low=1)
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ConfigInvalid(f"unknown metrics {sorted(unknown)}")
    if len(set(metrics)) != len(metrics):
        raise ConfigInvalid(f"metrics must not repeat a name, got {list(metrics)}")


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

    def columns(self, r: int) -> list[list[float]]:
        """Repeat ``r``'s values of each metric in ``metric_order``, up to its divergence point."""
        stop = int(self.diverged_at[r])
        return [self.metrics[name][r, :None if stop < 0 else stop].tolist()
                for name in self.metric_order]

    def rows(self):
        """Yield (repeat, k, metric_name, value) in long format, stopping
        each repeat at its divergence point."""
        names = self.metric_order
        for r in range(len(self.diverged_at)):
            for k, values in enumerate(zip(*self.columns(r))):
                for name, value in zip(names, values):
                    yield r, k, name, value


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


def _dots(A: NDArray, B: NDArray) -> NDArray:
    """``a @ b`` for each row a of the stack ``A`` and the matching row of ``B`` (or vector ``B``)."""
    return (A[:, None, :] @ B[..., None])[:, 0, 0]


def _metric_fns(cfg: RunConfig, x0: NDArray, whole_model: bool) -> dict[str, Callable]:
    """One vectorised function per requested metric, in ``cfg.metrics`` order: it maps
    iterates ``X`` (m, d), their f, grad f and recorded submodel losses to one value
    per iterate, bitwise equal to its formula applied to one iterate at a time."""
    p, names = cfg.problem, cfg.metrics
    if "f_gap_rel_log" in names or "dist_L_to_xstar" in names:
        x_star = p.solution()
        f_star = p.f(x_star)
        gap0 = max(p.f(x0) - f_star, 1e-300)
    if "dist_to_xinf" in names:
        if cfg.estimator.sketch is None:
            raise ConfigInvalid("dist_to_xinf needs a sketch-based estimator")
        x_inf = certificates.fixed_point(p, cfg.estimator.sketch)
    if "grad_sq_Linv" in names:
        if not linalg.psd_eigenvalues(p.spectrum.eigenvalues):
            raise ConfigInvalid("grad_sq_Linv needs a positive semi-definite L_bar")
        # g' L_bar^+ g = sum_j z_j^2 / lambda_j with z = V' g: no d x d pseudo-inverse,
        # whose gemm rounding moves with the BLAS thread count, is formed
        V, inv_vals = p.spectrum.eigenvectors, p.spectrum.function_values(lambda v: 1.0 / v)
    fns = {
        "f_gap_rel_log": lambda X, f, g, sub: np.log10(
            np.maximum(np.maximum(f - f_star, 1e-300) / gap0, 1e-300)),
        "grad_sq": lambda X, f, g, sub: _dots(g, g),
        "grad_sq_Linv": lambda X, f, g, sub: ((z := linalg.mat_rows(V.T, g)) * z * inv_vals).sum(axis=-1),
        "dist_L_to_xstar": lambda X, f, g, sub: _dots(dx := X - x_star, linalg.mat_rows(p.L_bar, dx)),
        # np.linalg.norm of a vector is the sqrt of its dot with itself
        "dist_to_xinf": lambda X, f, g, sub: np.sqrt(_dots(dx := X - x_inf, dx)),
        "submodel_loss_avg": lambda X, f, g, sub: f if whole_model else sub,
    }
    return {name: fns[name] for name in names}


def _simulate(cfg: RunConfig, schedules: Sequence[StepSchedule]) -> list[Trace]:
    """Execute all repeats of ``cfg`` once per schedule, the schedules in lockstep.

    Each schedule is a lane with its own iterate.  A round draws one joint
    sketch from the repeat's substream and every live lane steps with that
    draw, in one gradient call on their stacked iterates; the draw never
    depends on the iterate and each row of the call is bitwise a call on that
    row alone, so lane ``j``'s trace is bitwise a run at ``schedules[j]``
    alone.  Lanes step through blocks of up to ``BLOCK_ROUNDS`` rounds, then
    the block's metrics are computed at once and the diverged lanes dropped.
    """
    p = cfg.problem
    x0 = resolve_x0(cfg)
    K, n_lanes, d = cfg.K, len(schedules), p.d
    gammas = np.array([s.gammas(K) for s in schedules], dtype=np.float64).reshape(n_lanes, K)
    # where every C_i = I (dgd, the identity sketch) the submodel loss is f(x); otherwise
    # each round records it under its own draw, one extra draw serving the final iterate
    sketch = cfg.estimator.sketch
    whole_model = sketch is None or sketch.family.whole_model
    records_sub = "submodel_loss_avg" in cfg.metrics and not whole_model
    metric_fns = _metric_fns(cfg, x0, whole_model)
    gathers = cfg.estimator.kind == "ist" and not whole_model  # rounds keep blocks L_i[S_i, S_i]
    # each round's gradient: the estimator's kernel on the named arrays of the round's draw
    kernel, names = (estimators.dgd_kernel, ()) if whole_model else (
        (estimators.ist_kernel, ("idx", "operand", "local", "rhs")) if gathers else
        (estimators.cgd_kernel, ("idx", "operand", "rhs")))
    # rounds per tape chunk, resolved only where some round draws (a run without draws takes any shape)
    tape = BLOCK_ROUNDS
    if sketch is not None and (K or records_sub):
        tape = sketches._tape_len(sketch, p.n, d, gathers)
    needs_fg = not {"f_gap_rel_log", "grad_sq", "grad_sq_Linv"}.isdisjoint(cfg.metrics) or (
        "submodel_loss_avg" in cfg.metrics and whole_model)

    shape = (n_lanes, cfg.repeats)
    out = {m: np.full(shape + (K + 1,), np.nan) for m in cfg.metrics}
    final_f = np.full(shape, np.nan)
    diverged = np.full(shape, -1, dtype=np.int64)
    iterates = np.full(shape + (K + 1, d), np.nan) if cfg.record_iterates else None

    def record(r: int, j: int, k0: int, X: NDArray, sub: NDArray | None) -> int:
        """Keep lane ``j``'s block rows ``X[:-1]`` up to its first diverged one;
        return that row's index, or the block length if none diverged."""
        rows = X[:-1]
        f = g = None
        if needs_fg:  # one L_bar @ x per row, in p.f's and p.grad's arithmetic
            Lx = linalg.mat_rows(p.L_bar, rows)
            f = 0.5 * _dots(rows, Lx) - _dots(rows, p.b_bar)
            g = np.subtract(Lx, p.b_bar, out=Lx)
        vals = {name: fn(rows, f, g, sub) for name, fn in metric_fns.items()}
        ok = np.isfinite(rows).all(axis=-1)
        for v in vals.values():
            ok &= np.isfinite(v) & (np.abs(v) <= DIVERGENCE_LIMIT)
        stop = len(ok) if ok.all() else int(np.argmin(ok))
        for name, v in vals.items():
            out[name][j, r, k0:k0 + stop] = v[:stop]
        if iterates is not None:
            iterates[j, r, k0:k0 + stop] = rows[:stop]
        return stop

    def tape_chunk(rng, X, gam, sub, k0: int, i0: int, i1: int, n_draws: int) -> None:
        """Step the live lanes of ``X`` through rows ``i0``..``i1`` of the block on one tape
        chunk, then record their submodel losses; the chunk's arrays are freed on return."""
        rounds = [()] * (i1 - i0)  # a whole-model step reads no draw
        if n_draws > i0:
            stack = sketches.sample(sketch, p, rng, min(i1, n_draws) - i0, stacked=True)
            if not whole_model:  # one gather per tape, for every lane's gradient and loss
                stack.local_rhs(p)
                if gathers:
                    stack.local_blocks(p)
                rounds = stack.slices(*names)
        # Xs[i] holds every live lane's x^{k0 + i} and gs[i] its step size; a lone lane
        # steps as one vector by a float, which numpy applies faster than a (1, 1) broadcast
        Xs, gs = (X[0], gam[0].tolist()) if len(X) == 1 else (X.swapaxes(0, 1), gam.T[..., None])
        for i, arrays in zip(range(i0, min(i1, K - k0)), rounds):
            x = Xs[i]
            np.subtract(x, gs[i] * kernel(p, *arrays, x), out=Xs[i + 1])
        if records_sub:  # every round drew; per lane, one stacked pass per part of one width
            for at, part in stack.parts():
                for row in range(len(X)):
                    sub[row, i0 + at] = part.submodel_loss(p, X[row, i0 + at])

    def one_repeat(r: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
        carry = x0  # each live lane's iterate at the block's start
        last_valid = [x0] * n_lanes
        live = list(range(n_lanes))  # the lanes that have not diverged, in order
        for k0 in range(0, K + 1, BLOCK_ROUNDS):
            m = min(BLOCK_ROUNDS, K + 1 - k0)
            # X[row, i] is lane live[row]'s iterate x^{k0 + i}; row m starts the next block
            X = np.empty((len(live), m + 1, d))
            X[:, 0] = carry
            sub = np.empty((len(live), m)) if records_sub else None
            # every round before K draws; round K only for the submodel loss
            n_draws = 0 if sketch is None else m if records_sub else min(m, K - k0)
            gam = gammas[live, k0:k0 + m]
            for i0 in range(0, m, tape):
                tape_chunk(rng, X, gam, sub, k0, i0, min(i0 + tape, m), n_draws)
            kept = []
            for row, j in enumerate(live):
                stop = record(r, j, k0, X[row], None if sub is None else sub[row])
                if stop:
                    last_valid[j] = X[row, stop - 1].copy()
                if stop < m:
                    diverged[j, r] = k0 + stop
                else:
                    kept.append(row)
            # a diverged lane is dropped; copies, so no view keeps a finished block alive
            live, carry = [live[row] for row in kept], X[kept, m]
            if not live:
                break
        for j in range(n_lanes):
            final_f[j, r] = p.f(last_valid[j])

    # a diverging lane overflows until its block ends, then its steps past diverged_at are dropped
    with np.errstate(over="ignore", invalid="ignore"):
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
