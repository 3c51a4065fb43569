"""Command-line front end: generate problems, certificates, runs, sweeps.

Exit codes: 0 success (inadmissible certificates and diverged runs are
results, not failures), 2 usage or config errors, 3 ensemble generation
failure, 4 sketch/problem shape mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, certificates, quadratics, runner
from .errors import ConfigInvalid, DegenerateEnsemble, IncompatibleShape, IstLabError, integer, json_object
from .estimators import EstimatorKind
from .quadratics import QuadraticProblem
from .runner import RunConfig, StepSchedule
from .sketches import SketchKind

MODES = ("het", "hom", "het-interp", "hom-interp")

EXPERIMENT_KEYS = {
    "problem", "estimator", "sketch", "schedule", "K", "seed",
    "repeats", "metrics", "output",
}
GENERATOR_KEYS = {"mode", "n", "d", "seed", "precondition"}


def counterexample_fixture_path() -> Path:
    """Path of the shipped 2-d indefinite-descent-matrix fixture."""
    return Path(__file__).parent / "data" / "indefinite_2d.json"


# ---------------------------------------------------------------------------
# problem sources
# ---------------------------------------------------------------------------


def generate_problem(mode: str, n: int, d: int, seed: int, precond: bool = False):
    if mode not in MODES:
        raise ConfigInvalid(f"mode must be one of {MODES}")
    runner.check_seed(seed)
    base = mode.split("-")[0]
    p = quadratics.gen_heterogeneous(n, d, seed) if base == "het" else quadratics.gen_homogeneous(n, d, seed)
    if precond:
        p, _ = quadratics.precondition_homogeneous(p)
    if mode.endswith("interp"):
        p = p.as_interpolation()
    return p


def _load_problem_source(source) -> tuple[QuadraticProblem, dict]:
    """Resolve the experiment file's "problem" entry; returns (problem, provenance)."""
    if isinstance(source, str):
        p, digest = QuadraticProblem.read(source)
        return p, {"path": str(Path(source)), "sha256": digest}
    if isinstance(source, dict) and isinstance(source.get("generator"), dict):
        json_object(source, ConfigInvalid, "problem", {"generator"})
        spec = json_object(dict(source["generator"]), ConfigInvalid, "generator", GENERATOR_KEYS,
                           required=("mode", "n", "d", "seed"))
        precondition = spec.get("precondition", False)
        if not isinstance(precondition, bool):
            raise ConfigInvalid(f"precondition must be true or false, got {precondition!r}")
        p = generate_problem(spec["mode"], spec["n"], spec["d"], spec["seed"], precondition)
        return p, {"generator": spec}
    raise ConfigInvalid("problem must be a path string or {'generator': {...}}")


# ---------------------------------------------------------------------------
# experiment files
# ---------------------------------------------------------------------------


def _spec(make, *args):
    """``make(*args)`` for an estimator or sketch spec: a malformed one is a config
    error (exit 2), not a shape mismatch met at run time (exit 4)."""
    try:
        return make(*args)
    except IncompatibleShape as exc:
        raise ConfigInvalid(str(exc)) from exc


def parse_experiment(doc: dict) -> tuple[RunConfig, dict, dict]:
    """Validate an experiment document; returns (config, output spec, provenance)."""
    json_object(doc, ConfigInvalid, "experiment file", EXPERIMENT_KEYS,
                required=("problem", "estimator", "schedule", "K", "seed", "output"))
    est = _spec(EstimatorKind.from_config, doc["estimator"], doc.get("sketch"))
    schedule = StepSchedule.from_config(doc["schedule"])
    metrics = doc.get("metrics", ["f_gap_rel_log"])
    if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
        raise ConfigInvalid(f"metrics must be a list of metric names, got {metrics!r}")
    output = json_object(doc["output"], ConfigInvalid, "output", {"format", "path"},
                         required=("format", "path"))
    if not isinstance(output["path"], str):
        raise ConfigInvalid("output must be {'format': 'csv'|'json', 'path': ...}")
    if output["format"] not in ("csv", "json"):
        raise ConfigInvalid("output format must be 'csv' or 'json'")
    fields = {"K": doc["K"], "seed": doc["seed"], "repeats": doc.get("repeats", 1), "metrics": tuple(metrics)}
    runner.check_fields(**fields)  # before the problem, which may take seconds to build
    problem, provenance = _load_problem_source(doc["problem"])
    return RunConfig(problem=problem, estimator=est, schedule=schedule, **fields), output, provenance


def resolved_config_doc(cfg: RunConfig, output: dict, provenance: dict) -> dict:
    return {
        "problem": provenance,
        "estimator": cfg.estimator.kind,
        "sketch": cfg.estimator.sketch.to_config() if cfg.estimator.sketch else None,
        "schedule": cfg.schedule.to_config(),
        "K": cfg.K,
        "seed": cfg.seed,
        "repeats": cfg.repeats,
        "x0": "gaussian(seed)",
        "metrics": list(cfg.metrics),
        "output": output,
    }


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def write_trace_csv(trace: runner.Trace, path: Path) -> None:
    """Write the bytes ``csv.writer`` gives for ``trace.rows()`` with each value's repr.

    Metric names come from ``runner.METRICS`` and values are float reprs, so
    no field needs quoting; each repeat's rows are formatted in one join.
    """
    names = trace.metric_order
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("repeat,k,metric_name,value\r\n")
        for r in range(len(trace.diverged_at)):
            fh.write("".join(f"{r},{k},{name},{value!r}\r\n"
                             for k, values in enumerate(zip(*trace.columns(r)))
                             for name, value in zip(names, values)))


def trace_json_doc(trace: runner.Trace) -> dict:
    def finite_or_null(values: list[float]) -> list[float | None]:  # strict JSON has no NaN or inf
        return [v if math.isfinite(v) else None for v in values]

    return {
        "metrics": {name: [finite_or_null(row) for row in trace.metrics[name].tolist()]
                    for name in trace.metric_order},
        "final_f": finite_or_null(trace.final_f.tolist()),
        "diverged_at": trace.diverged_at.tolist(),
        "gammas": trace.gammas.tolist(),
        "x0": trace.x0.tolist(),
    }


def write_outputs(trace: runner.Trace, output: dict, meta: dict) -> None:
    path = Path(output["path"])
    if output["format"] == "csv":
        write_trace_csv(trace, path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(trace_json_doc(trace), allow_nan=False))
            fh.write("\n")
    meta_path = path.with_name(path.name + ".meta.json")
    doc = dict(meta)
    doc["artifact"] = {"name": "istlab", "version": __version__}
    doc["diverged_at"] = trace.diverged_at.tolist()
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    p = generate_problem(args.mode, args.n, args.d, args.seed)
    p.save(args.out)
    vals = np.linalg.eigvalsh(p.L_bar)
    print(f"lambda_min(L_bar) = {vals[0]:.12g}")
    print(f"lambda_max(L_bar) = {vals[-1]:.12g}")
    return 0


def cmd_theory(args) -> int:
    if args.sigma2_samples is not None:
        integer(args.sigma2_samples, ConfigInvalid, "--sigma2-samples must be >= 1", low=1)
    if args.gamma is not None:
        StepSchedule.constant(args.gamma)  # the --gammas rule: rejects nan, inf and gamma <= 0
    p = QuadraticProblem.load(args.problem)
    kind = _spec(SketchKind, args.sketch, args.q, args.p)
    cert = certificates.certificate(
        p, kind, gamma=args.gamma, sigma2_samples=args.sigma2_samples,
        rng=np.random.default_rng(0) if args.sigma2_samples is not None else None,
    )
    doc = {
        "theta": cert.theta if cert.theta is not None else "inadmissible",
        "rho": cert.rho,
        "h_norm_L": cert.bias_norm,
        "x_inf": cert.x_inf.tolist() if cert.x_inf is not None else None,
        "sigma2": cert.sigma2,
        "W_psd": cert.descent_psd,
        "notes": list(cert.notes),
        "gamma_max": cert.gamma_max,
    }
    print(json.dumps(doc, allow_nan=False))
    return 0


def _load_experiment(path) -> tuple[RunConfig, dict, dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"experiment file is not valid JSON: {exc}") from exc
    return parse_experiment(doc)


def cmd_run(args) -> int:
    cfg, output, provenance = _load_experiment(args.config)
    trace = runner.run(cfg)
    write_outputs(trace, output, {"resolved_config": resolved_config_doc(cfg, output, provenance)})
    n_div = int((trace.diverged_at >= 0).sum())
    if n_div:
        print(f"diverged repeats: {n_div} (recorded in meta sidecar)")
    print(f"wrote {output['path']}")
    return 0


def _parse_gammas(text: str) -> list[float]:
    gammas = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            g = float(tok)
        except ValueError:
            raise ConfigInvalid(f"--gammas entry {tok!r} is not a number") from None
        StepSchedule.constant(g)  # rejects nan, inf and g <= 0
        gammas.append(g)
    if not gammas:
        raise ConfigInvalid("sweep requires a nonempty --gammas list")
    return gammas


def cmd_sweep(args) -> int:
    gammas = _parse_gammas(args.gammas)
    cfg, output, provenance = _load_experiment(args.config)
    base = Path(output["path"])
    paths = [base.with_name(f"{base.stem}_gamma{g:g}{base.suffix}") for g in gammas]
    for i, path in enumerate(paths):
        if path in paths[:i]:
            other = gammas[paths.index(path)]
            raise ConfigInvalid(f"--gammas {other!r} and {gammas[i]!r} would both write {path}")
    traces = runner.sweep(cfg, gammas)
    for g, path, trace in zip(gammas, paths, traces):
        out_g = dict(output, path=str(path))
        cfg_g = resolved_config_doc(cfg, out_g, provenance)
        cfg_g["schedule"] = cfg.schedule.with_gamma(g).to_config()
        write_outputs(trace, out_g, {"resolved_config": cfg_g})
        print(f"wrote {out_g['path']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one ``error:`` line, exit 2; subparsers inherit it."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        for name, value in vars(ns).items():
            if isinstance(value, list):  # "--flag=--": argparse drops the "--" and leaves []
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return ns


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="istlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--mode", choices=MODES, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    theory = sub.add_parser("theory", help="emit a convergence certificate as JSON")
    theory.add_argument("--problem", required=True)
    theory.add_argument("--sketch", required=True)
    theory.add_argument("--q", type=int, default=None)
    theory.add_argument("--p", type=float, default=None)
    theory.add_argument("--gamma", type=float, default=None)
    theory.add_argument("--sigma2-samples", type=int, default=None)
    theory.set_defaults(fn=cmd_theory)

    run_p = sub.add_parser("run", help="execute an experiment file")
    run_p.add_argument("--config", required=True)
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run an experiment at several step sizes")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--gammas", required=True, help="comma-separated step sizes")
    sweep_p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IstLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DegenerateEnsemble) else 4 if isinstance(exc, IncompatibleShape) else 2


if __name__ == "__main__":
    sys.exit(main())
