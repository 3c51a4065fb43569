"""istlab benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a source checkout::

    python3 bench/run_bench.py --workload ist-tiny-repeats --seed 1 --seconds 25 --trace 0

The workload's inputs are built from ``--seed`` (``setup``, repeated and
timed), then its operations run in rounds, untimed checks after each call,
until ``--seconds`` have passed.  istlab is imported from ``src/`` of the
checkout and runs with its own defaults (``IST_LAB_THREADS`` is recorded,
not pinned).  The BLAS library runs one thread (``BLAS_THREADS``): on a
two-core share of a busy host a second BLAS thread made the c09 sweep both
slower and about twice as noisy between runs.

The CPU speed a shared host gives this process swings by up to 1.5x over
seconds to minutes, so the end-to-end times are scaled to a nominal host
speed.  The yardstick is a fixed task shaped like istlab's inner loops
(small eigh, np.ix_ gather, mat-vec) that never touches istlab.  While an
untraced round runs, a SIGALRM handler times it every ``PROBE_PERIOD_S``
seconds, and it is also timed before and after each call.  The handler's
own time is taken out of the call it interrupted, and the round's wall and
CPU time are multiplied by ``(YS_NOMINAL_S / y) ** host_share``, where
``y`` is the median yardstick time of the round and ``host_share`` the
workload's share of time that moves with it (see ``workloads``).  A change
to istlab moves these times in full; a change in host speed mostly does
not.  Raw seconds are printed on the summary lines and reported by the
traced run.

``--trace 0`` reports the end-to-end metrics: medians over rounds of the
timed calls' wall and process CPU time and the median set-up time, all at
nominal host speed, peak RSS, and the share of operations that succeeded.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``tracer.PER_LAYER`` from the traced set-up plus the
median traced round, with the raw times of the untraced rounds.

Earlier stdout lines carry provenance and a readable summary (including
``fail_frac``); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads, set before numpy is first imported.  The variables name the
#: OpenBLAS, OpenMP and MKL builds numpy may be linked against.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is timed SETUP_MIN times before the first round.  After each round,
#: up to SETUP_SHARE of that round's time goes to more timed set-ups, so a
#: cheap set-up is sampled across the whole run, not only in its first
#: second.  setup_s is the median of all of them, each scaled to nominal
#: host speed like the rounds' times.
SETUP_MIN, SETUP_SHARE = 3, 0.10

#: The yardstick: YARDSTICK_REPS timed rounds after YARDSTICK_WARM untimed
#: ones, so what the interrupted call left in the caches weighs less.  One
#: yardstick takes about YS_NOMINAL_S on a 2.1 GHz Xeon core, the nominal
#: host speed the end-to-end times are scaled to.
YARDSTICK_REPS, YARDSTICK_WARM = 50, 5
YS_NOMINAL_S = 2.0e-3
_YS_M = np.random.default_rng(0).standard_normal((10, 10))
_YS_SPD = _YS_M @ _YS_M.T + 10.0 * np.eye(10)
_YS_BIG = np.random.default_rng(1).standard_normal((40, 40))
_YS_IDX = np.arange(0, 40, 4)

#: The probe times the yardstick every PROBE_PERIOD_S seconds of wall time
#: (about 4% of it), and PROBE_AROUND times before and after each call.
PROBE_PERIOD_S, PROBE_AROUND = 0.05, 5

END_TO_END = {
    "wall_nom_s": "s",
    "cpu_nom_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def import_istlab():
    """Import istlab from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "istlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no istlab sources at {SRC / 'istlab'}")
    sys.path.insert(0, str(SRC))
    import istlab
    import istlab.cli

    if Path(istlab.__file__).resolve().parent != (SRC / "istlab").resolve():
        raise SystemExit(f"error: imported istlab from {istlab.__file__}, not {SRC}")
    return istlab


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(istlab) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    src_lines = sum(
        len(f.read_text(encoding="utf-8").splitlines()) for f in sorted((SRC / "istlab").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "IST_LAB_THREADS_env": os.environ.get("IST_LAB_THREADS"),
        "IST_LAB_THREADS_resolved": istlab.runner._thread_budget(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    """Operation outcomes: attempted, raised or exited non-zero, failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.raised: list[str] = []

    def record(self, op, result, exc) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.raised.append(f"{op.name}: {type(exc).__name__}: {str(exc)[:120]}")
            return
        errs = op.check(result)
        if errs:
            self.failed += 1
            self.check_failures.extend(f"{op.name}: {e}" for e in errs)


def yardstick() -> float:
    """Seconds taken by a fixed task: small eigh, np.ix_ gather, mat-vec."""
    v = _YS_BIG[0].copy()
    for i in range(YARDSTICK_WARM + YARDSTICK_REPS):
        if i == YARDSTICK_WARM:
            t0 = time.perf_counter()
        w, u = np.linalg.eigh(_YS_SPD)
        block = _YS_BIG[np.ix_(_YS_IDX, _YS_IDX)]
        v = _YS_BIG @ (v / (1.0 + abs(v).max()))
        v[_YS_IDX] += u @ (block @ w)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the yardstick from a SIGALRM handler while it is entered.

    The handler runs in the main thread between bytecodes.  It times the
    yardstick only while no other Python thread is alive (beside the repeat
    pool it would time GIL contention, not the host), and records the wall
    and CPU time it took so :meth:`spent` can take that out of a call.
    """

    def __init__(self) -> None:
        self.sticks: list[float] = []
        self._spent: list[tuple[float, float, float]] = []  # (start, wall, cpu)
        self._busy = False  # a yardstick is running; the handler stands aside
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        t0, c0 = time.perf_counter(), time.process_time()
        if threading.active_count() == 1:
            self.sample(1)
        self._spent.append((t0, time.perf_counter() - t0, time.process_time() - c0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, times: int) -> None:
        self._busy = True
        try:
            for _ in range(times):
                self.sticks.append(yardstick())
        finally:
            self._busy = False

    def spent(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds of the handler runs that started in [t0, t1]."""
        runs = [(w, c) for t, w, c in self._spent if t0 <= t <= t1]
        return sum(w for w, _ in runs), sum(c for _, c in runs)


def timed_round(ops, tally: Tally, tracer=None, istlab=None, probe=None) -> dict[str, float]:
    """Run every operation once.

    Returns the summed wall and CPU seconds of the calls (``wall_s``,
    ``cpu_s``); with a ``probe``, less the probe's own time, plus the
    round's median yardstick time (``yardstick_s``).
    """
    out = {"wall_s": 0.0, "cpu_s": 0.0}
    for op in ops:
        if probe is not None:
            probe.sample(PROBE_AROUND)
        if tracer is not None:
            tracer.install(istlab)
        result = exc = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.call()
        except Exception as e:  # a raising operation is a counted failure
            exc = e
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
        wall, cpu = t1 - t0, c1 - c0
        if probe is not None:
            spent_wall, spent_cpu = probe.spent(t0, t1)
            wall, cpu = wall - spent_wall, cpu - spent_cpu
        out["wall_s"] += wall
        out["cpu_s"] += cpu
        tally.record(op, result, exc)
    if probe is not None:
        probe.sample(PROBE_AROUND)
        out["yardstick_s"] = statistics.median(probe.sticks)
    return out


def run_workload(istlab, workload, seed: int, seconds: float, trace: bool, workdir: str):
    tally = Tally()
    setup_times = []
    state = None

    def timed_setups(count: int, budget: float = 0.0) -> None:
        """Build the inputs ``count`` times, then more while ``budget``
        seconds last, under a probe; times are scaled like the rounds'."""
        nonlocal state
        typical = statistics.median(setup_times) if setup_times else 0.0
        times = []
        with SpeedProbe() as probe:
            b0 = time.perf_counter()
            probe.sample(PROBE_AROUND)
            while len(times) < count or time.perf_counter() - b0 + typical < budget:
                state = None  # release the previous inputs before building new ones
                t0 = time.perf_counter()
                state = workload.setup(istlab, seed, workdir)
                t1 = time.perf_counter()
                times.append(t1 - t0 - probe.spent(t0, t1)[0])
            probe.sample(PROBE_AROUND)
        scale = (YS_NOMINAL_S / statistics.median(probe.sticks)) ** workload.host_share
        setup_times.extend(t * scale for t in times)

    if trace:
        tracer = tracing.Tracer()
        tracer.install(istlab)
        try:
            state = workload.setup(istlab, seed, workdir)
        finally:
            tracer.uninstall()
        setup_totals = tracing.layer_totals(*tracer.reset())
    else:
        timed_setups(SETUP_MIN)
    ops = workload.ops(state)

    rounds, traced_walls, traced_rounds = [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if trace:
            rounds.append(timed_round(ops, tally))
            traced_walls.append(timed_round(ops, tally, tracer, istlab)["wall_s"])
            traced_rounds.append(tracing.layer_totals(*tracer.reset()))
        else:
            with SpeedProbe() as probe:
                rounds.append(timed_round(ops, tally, probe=probe))
            budget = SETUP_SHARE * (time.perf_counter() - r0)
            if budget > statistics.median(setup_times):
                timed_setups(0, budget)
        # stop before a round that would end past the deadline
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    def nominal(key: str) -> float:
        return statistics.median(
            r[key] * (YS_NOMINAL_S / r["yardstick_s"]) ** workload.host_share for r in rounds
        )

    raw = {k: median(k) for k in ("wall_s", "cpu_s") + (() if trace else ("yardstick_s",))}
    if trace:
        overhead = statistics.median(traced_walls) / raw["wall_s"] - 1.0
        medians = tracing.median_totals(traced_rounds)
        totals = {k: setup_totals.get(k, 0.0) + medians.get(k, 0.0)
                  for k in set(setup_totals) | set(medians)}
        values = tracing.per_layer_metrics(totals, {
            "trace.overhead_frac": overhead,
            "raw.wall_s": raw["wall_s"],
            "raw.cpu_s": raw["cpu_s"],
        })
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in values.items()}
        counts_differ = [k for k in tracing.REPEATABLE_COUNTS
                         if len({r.get(k, 0.0) for r in traced_rounds}) > 1]
        if counts_differ:
            tally.check_failures.append(f"counts differ between traced rounds: {counts_differ}")
    else:
        values = {
            "wall_nom_s": nominal("wall_s"),
            "cpu_nom_s": nominal("cpu_s"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return tally, metrics, len(rounds), raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    istlab = import_istlab()
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(istlab)), flush=True)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        tally, metrics, rounds, raw = run_workload(
            istlab, workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {tally.attempted} operations, {tally.failed} failed, "
          f"fail_frac {tally.failed / tally.attempted!r} ratio")
    print("  raw medians over untraced rounds: "
          + ", ".join(f"{k} {v!r} s" for k, v in raw.items()))
    for line in tally.raised + tally.check_failures:
        print("  failure " + line)
    for name, m in metrics.items():
        print(f"  {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
