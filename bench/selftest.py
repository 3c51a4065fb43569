"""Self-tests for the benchmark.  Run from the checkout root::

    python3 bench/selftest.py

Checks, each workload in its own child process, one at a time:

* two traced runs at the same seed report identical per-layer counts;
* every workload's correctness checks pass at the held-out seed, with only
  the known failure (the d = 2000 certificate on certify-routes);
* without ``src/`` next to it the benchmark exits non-zero and prints no
  result;
* span self time is computed per thread.

Exits 0 when everything passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
#: Seed kept out of tuning; later claims must also hold on it.
HELD_OUT_SEED = 2
#: (failed, attempted) operations per round expected at this revision.
KNOWN_FAILURES = {"certify-routes": (1, 7)}
TIMEOUT_S = 180


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return proc.returncode, result


def check_counts_repeat(workload: str) -> list[str]:
    runs = [bench(workload, SEED, 1) for _ in range(2)]
    errs = []
    for code, result in runs:
        if code != 0 or result is None or not result["correct"]:
            errs.append(f"{workload}: traced run failed: exit {code}, result {result}")
    if errs:
        return errs
    a, b = (r["metrics"] for _, r in runs)
    if set(a) != set(tracing.PER_LAYER):
        errs.append(f"{workload}: per-layer metric names differ from tracer.PER_LAYER")
    for name in tracing.REPEATABLE_COUNTS:
        if a[name]["value"] != b[name]["value"]:
            errs.append(f"{workload}: {name} {a[name]['value']} != {b[name]['value']}")
    return errs


def check_held_out(workload: str) -> list[str]:
    code, result = bench(workload, HELD_OUT_SEED, 0)
    if code != 0 or result is None:
        return [f"{workload}: run at held-out seed failed: exit {code}"]
    errs = []
    if not result["correct"]:
        errs.append(f"{workload}: checks fail at held-out seed {HELD_OUT_SEED}")
    failed, per_round = KNOWN_FAILURES.get(workload, (0, 1))
    if result["failed"] * per_round != result["attempted"] * failed:
        errs.append(f"{workload}: {result['failed']} of {result['attempted']} operations failed, "
                    f"expected {failed} in {per_round}")
    return errs


def check_needs_sources() -> list[str]:
    tmp = Path(tempfile.mkdtemp(prefix=".work-selftest-", dir=HERE))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        (tmp / "bench").mkdir()
        for f in HERE.glob("*.py"):
            shutil.copy(f, tmp / "bench" / f.name)
        code, result = bench("ist-tiny-repeats", SEED, 0, cwd=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"without src/ the benchmark exited {code} with result {result}"]
    return []


def check_thread_self_time() -> list[str]:
    # span (id, parent, thread, name, start, end): a child on the parent's
    # thread is subtracted from the parent's self time, one on another is not
    spans = [
        (1, None, 1, "a", 0.0, 10.0),
        (2, 1, 1, "b", 2.0, 5.0),
        (3, 1, 2, "c", 1.0, 9.0),
    ]
    t = tracing.layer_totals(spans, {})
    want = {"a.self_s": 7.0, "b.self_s": 3.0, "c.self_s": 8.0, "a.calls": 1}
    return [f"{k} = {t.get(k)}, expected {v}" for k, v in want.items() if t.get(k) != v]


def main() -> int:
    errs = check_thread_self_time() + check_needs_sources()
    for name in WORKLOADS:
        errs += check_counts_repeat(name)
        errs += check_held_out(name)
        print(f"{name}: done", flush=True)
    for e in errs:
        print("FAIL " + e)
    print("selftest " + ("failed" if errs else "passed"))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
