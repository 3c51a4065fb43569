"""Thread-aware spans and counters around the calls into each istlab module.

The tracer never edits istlab's source: it replaces module and class
attributes (``istlab.runner.run``, ``istlab.linalg.eig_sym``,
``QuadraticProblem.solution`` ...) with wrappers while it is installed and
puts the originals back afterwards.  Callers inside istlab look these names
up through the module or the class at call time, so the wrappers see nested
calls too (``runner.sweep`` -> ``run``, ``linalg.spd_inv_sqrt`` ->
``eig_sym``).

Every span records its name, its thread, its start and end and the span that
caused it.  ``runner.run`` fans repeats out over a ``ThreadPoolExecutor``;
the tracer swaps ``istlab.runner.ThreadPoolExecutor`` for a subclass that
hands the submitting span to each task, so spans on worker threads still
name their cause.  A span's self time is its duration minus its direct
children on the same thread; children on other threads run concurrently
and are not subtracted.  Time metrics sum over threads, so with the pool a
layer's seconds can exceed the round's wall time (both workers hold spans
while they take turns on the interpreter lock).
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Per-layer metrics emitted by a traced run: name -> (unit, better).
PER_LAYER = {
    "runner.run.calls": ("count", "lower"),
    "runner.run.self_s": ("s", "lower"),
    "runner.pool.wait_s": ("s", "lower"),
    "runner.steps": ("count", "higher"),
    "runner.us_per_step": ("us", "lower"),
    "runner.diverged_repeats": ("count", "lower"),
    "estimators.estimate.calls": ("count", "lower"),
    "estimators.estimate.self_s": ("s", "lower"),
    "estimators.heterogeneity_variance.s": ("s", "lower"),
    "sketches.sample.calls": ("count", "lower"),
    "sketches.sample.self_s": ("s", "lower"),
    "sketches.enumerate_outcomes.outcomes": ("count", "lower"),
    "sketches.enumerate_outcomes.s": ("s", "lower"),
    "sketches.SketchSample.curvature.s": ("s", "lower"),
    "sketches.SketchSample.linear_term.s": ("s", "lower"),
    "sketches.closed_moments.calls": ("count", "higher"),
    "sketches.enumerated_moments.calls": ("count", "lower"),
    "linalg.eig_sym.calls": ("count", "lower"),
    "linalg.eig_sym.s": ("s", "lower"),
    "linalg.eig_sym.flops_computed": ("flop", "lower"),
    "linalg.spd_inv_sqrt.calls": ("count", "lower"),
    "linalg.spd_inv_sqrt.self_s": ("s", "lower"),
    "linalg.psd_pinv.s": ("s", "lower"),
    "certificates.certificate.calls": ("count", "higher"),
    "certificates.certificate.self_s": ("s", "lower"),
    "certificates.certificate.errors": ("count", "lower"),
    "certificates.step_constant.s": ("s", "lower"),
    "certificates.contraction_factor.s": ("s", "lower"),
    "certificates.fields_filled_frac": ("ratio", "higher"),
    "quadratics.gen_heterogeneous.s": ("s", "lower"),
    "quadratics.load.s": ("s", "lower"),
    "quadratics.load.bytes": ("B", "lower"),
    "quadratics.save.s": ("s", "lower"),
    "quadratics.save.bytes": ("B", "lower"),
    "quadratics.solution.calls": ("count", "lower"),
    "quadratics.solution.s": ("s", "lower"),
    "quadratics.f_client.calls": ("count", "lower"),
    "quadratics.f_client.s": ("s", "lower"),
    "cli.main.calls": ("count", "higher"),
    "cli.main.nonzero_exits": ("count", "lower"),
    "cli.parse_experiment.self_s": ("s", "lower"),
    "cli.write_outputs.s": ("s", "lower"),
    "cli.write_outputs.bytes": ("B", "lower"),
    "cli.trace_rows": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "raw.wall_s": ("s", "lower"),
    "raw.cpu_s": ("s", "lower"),
}

#: Per-layer counts that must repeat exactly between traced rounds and runs.
REPEATABLE_COUNTS = tuple(k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B", "flop"))

#: Certificate fields counted by ``certificates.fields_filled_frac``.
CERT_FIELDS = ("theta", "rho", "bias_norm", "x_inf", "sigma2")


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    Spans are kept in memory as ``(span_id, parent_id, thread_id, name,
    start, end)`` tuples and handed over by :meth:`reset`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # guards _thread_counts
        self._thread_counts: list[Counter] = []
        self.spans: list[tuple] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans and counters -----------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def begin(self, name: str) -> tuple:
        parent = self.current()
        sid = next(self._ids)
        self._stack().append(sid)
        return sid, parent, name, perf_counter()

    def end(self, token: tuple) -> float:
        t1 = perf_counter()
        sid, parent, name, t0 = token
        self._stack().pop()
        self.spans.append((sid, parent, threading.get_ident(), name, t0, t1))
        return t1 - t0

    def add(self, key: str, n: float = 1) -> None:
        """Add to a counter of the calling thread (no lock on the hot path)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        counts[key] += n

    def reset(self) -> tuple[list[tuple], Counter]:
        """Hand over what was recorded so far and start empty.

        Call only while no traced call is running on any thread.
        """
        spans, self.spans = self.spans, []
        merged: Counter = Counter()
        with self._lock:
            for counts in self._thread_counts:
                merged.update(counts)
            self._thread_counts.clear()
        self._local = threading.local()
        return spans, merged

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a function that records span ``name``.

        ``after(result, args, kwargs)`` runs outside the span on success.
        Raised exceptions are counted as ``name.errors``; calls are the
        number of spans.  The hot path takes no lock, so the wrapper adds
        little to calls made tens of thousands of times per round.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self
        ids, get_ident = self._ids, threading.get_ident

        def wrapper(*args, **kwargs):
            local = tracer._local
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.add(name + ".errors")
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, get_ident(), name, t0, t1))
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_generator(self, owner, attr: str, name: str, count_key: str) -> None:
        """Time each step of a generator function; count the items it yields."""
        fn = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    token = tracer.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.add(name + ".errors")
                        raise
                    finally:
                        tracer.end(token)
                    tracer.add(count_key)
                    yield item
            finally:
                gen.close()

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        self._patch(owner, attr, wrapper)

    def wrap_pool(self, owner, attr: str) -> None:
        """Swap a ThreadPoolExecutor class for one whose tasks keep their cause.

        The ``with`` block on the submitting thread is span ``runner.pool``
        (its self time is time spent waiting for the workers); each task is
        span ``runner.repeat`` on its worker thread, parented to the pool.
        """
        base = owner.__dict__[attr]
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    tracer._local.inherited = parent
                    token = tracer.begin("runner.repeat")
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.end(token)
                        tracer._local.inherited = None

                return super().submit(task, *args, **kwargs)

            def __enter__(self):
                self._trace_token = tracer.begin("runner.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._trace_token)

        self._patch(owner, attr, TracedPool)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, istlab) -> None:
        """Wrap the layer boundaries of the imported ``istlab`` package."""
        runner, estimators, sketches = istlab.runner, istlab.estimators, istlab.sketches
        linalg, certificates, quadratics, cli = (
            istlab.linalg, istlab.certificates, istlab.quadratics, istlab.cli,
        )
        add = self.add

        def after_run(trace, args, kwargs):
            cfg = args[0] if args else kwargs["cfg"]
            add("runner.steps", cfg.repeats * cfg.K)
            add("runner.diverged_repeats", int((trace.diverged_at >= 0).sum()))

        def after_eig(spec, args, kwargs):
            d = spec.eigenvalues.shape[0]
            add("linalg.eig_sym.flops_computed", 9 * d**3)

        def after_certificate(cert, args, kwargs):
            add("certificates.fields_total", len(CERT_FIELDS))
            add("certificates.fields_filled",
                sum(getattr(cert, f) is not None for f in CERT_FIELDS))

        def after_load(problem, args, kwargs):
            add("quadratics.load.bytes", os.path.getsize(args[1]))

        def after_save(result, args, kwargs):
            add("quadratics.save.bytes", os.path.getsize(args[1]))

        def after_main(code, args, kwargs):
            if code != 0:
                add("cli.main.nonzero_exits")

        def after_write(result, args, kwargs):
            trace, output = args[0], args[1]
            path = output["path"]
            add("cli.write_outputs.bytes",
                os.path.getsize(path) + os.path.getsize(path + ".meta.json"))
            full = trace.metrics[trace.metric_order[0]].shape[1] if trace.metric_order else 0
            stops = [full if s < 0 else int(s) for s in trace.diverged_at]
            add("cli.trace_rows", sum(stops) * len(trace.metric_order))

        self.wrap_pool(runner, "ThreadPoolExecutor")
        self.wrap(runner, "run", "runner.run", after_run)
        self.wrap(runner, "sweep", "runner.sweep")
        self.wrap(estimators, "estimate", "estimators.estimate")
        self.wrap(estimators, "heterogeneity_variance", "estimators.heterogeneity_variance")
        self.wrap(sketches, "sample", "sketches.sample")
        self.wrap_generator(sketches, "enumerate_outcomes", "sketches.enumerate_outcomes",
                            "sketches.enumerate_outcomes.outcomes")
        self.wrap(sketches.SketchSample, "curvature", "sketches.SketchSample.curvature")
        self.wrap(sketches.SketchSample, "linear_term", "sketches.SketchSample.linear_term")
        self.wrap(sketches, "closed_moments", "sketches.closed_moments")
        self.wrap(sketches, "enumerated_moments", "sketches.enumerated_moments")
        self.wrap(linalg, "eig_sym", "linalg.eig_sym", after_eig)
        self.wrap(linalg, "spd_inv_sqrt", "linalg.spd_inv_sqrt")
        self.wrap(linalg, "psd_pinv", "linalg.psd_pinv")
        self.wrap(certificates, "certificate", "certificates.certificate", after_certificate)
        self.wrap(certificates, "step_constant", "certificates.step_constant")
        self.wrap(certificates, "contraction_factor", "certificates.contraction_factor")
        self.wrap(quadratics, "gen_heterogeneous", "quadratics.gen_heterogeneous")
        self.wrap(quadratics.QuadraticProblem, "load", "quadratics.load", after_load)
        self.wrap(quadratics.QuadraticProblem, "save", "quadratics.save", after_save)
        self.wrap(quadratics.QuadraticProblem, "solution", "quadratics.solution")
        self.wrap(quadratics.QuadraticProblem, "f_client", "quadratics.f_client")
        self.wrap(cli, "main", "cli.main", after_main)
        self.wrap(cli, "parse_experiment", "cli.parse_experiment")
        self.wrap(cli, "write_outputs", "cli.write_outputs", after_write)


# ---------------------------------------------------------------------------
# spans -> metrics
# ---------------------------------------------------------------------------


def layer_totals(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Additive per-layer totals: span count (``.calls``), inclusive seconds
    (``.s``) and self seconds (``.self_s``) per span name, plus every counter."""
    by_id = {s[0]: s for s in spans}
    child_time: defaultdict[int, float] = defaultdict(float)
    for sid, parent, tid, name, t0, t1 in spans:
        if parent is not None and parent in by_id and by_id[parent][2] == tid:
            child_time[parent] += t1 - t0
    totals: defaultdict[str, float] = defaultdict(float)
    for sid, parent, tid, name, t0, t1 in spans:
        totals[name + ".calls"] += 1
        totals[name + ".s"] += t1 - t0
        totals[name + ".self_s"] += (t1 - t0) - child_time[sid]
    totals.update(counts)
    return dict(totals)


def per_layer_metrics(totals: dict[str, float], measured: dict[str, float]) -> dict[str, float]:
    """The values of :data:`PER_LAYER` from additive totals, plus the
    ``measured`` values the benchmark takes outside the spans (tracing
    overhead, raw times of the untraced rounds)."""
    t = defaultdict(float, totals)
    steps = t["runner.steps"]
    out = {name: t[name] for name in PER_LAYER}
    # runner code runs on the calling thread and, with the pool, on workers
    out["runner.run.self_s"] = t["runner.run.self_s"] + t["runner.repeat.self_s"]
    out["runner.pool.wait_s"] = t["runner.pool.self_s"]
    out["cli.main.nonzero_exits"] = t["cli.main.nonzero_exits"] + t["cli.main.errors"]
    out["runner.us_per_step"] = t["runner.run.s"] / steps * 1e6 if steps else 0.0
    total = t["certificates.fields_total"]
    out["certificates.fields_filled_frac"] = t["certificates.fields_filled"] / total if total else 0.0
    out.update(measured)
    return out


def median_totals(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over traced rounds (counts repeat, so they pass through)."""
    keys = set().union(*rounds)
    return {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}
