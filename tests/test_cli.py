import contextlib
import copy
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istlab import certificates, cli, quadratics, runner
from istlab.errors import DegenerateEnsemble, IstLabError
from istlab.quadratics import QuadraticProblem
from istlab.sketches import SketchKind


def run_cli(*argv):
    return cli.main(list(argv))


def read_trace_csv(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["repeat", "k", "metric_name", "value"]
        for rec in reader:
            rows.append((int(rec[0]), int(rec[1]), rec[2], float(rec[3])))
    return rows


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def read_trace_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject_constant)


def experiment_doc(out_path, fmt="csv", **overrides):
    doc = {
        "problem": {"generator": {"mode": "het", "n": 4, "d": 4, "seed": 12}},
        "estimator": "ist",
        "sketch": {"kind": "scaled_perm_het"},
        "schedule": {"type": "constant", "gamma": 0.5},
        "K": 6,
        "seed": 3,
        "repeats": 2,
        "metrics": ["f_gap_rel_log", "grad_sq"],
        "output": {"format": fmt, "path": str(out_path)},
    }
    doc.update(overrides)
    return doc


class TestGen:
    def test_writes_problem_and_prints_spectrum(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli("gen", "--n", "3", "--d", "4", "--seed", "7", "--mode", "het",
                       "--out", str(out)) == 0
        captured = capsys.readouterr().out
        assert "lambda_min(L_bar)" in captured and "lambda_max(L_bar)" in captured
        p = QuadraticProblem.load(out)
        assert (p.n, p.d) == (3, 4)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("gen", "--n", "2", "--d", "3", "--seed", "5", "--mode", "hom",
                    "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_interp_modes_zero_linear_terms(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "2", "--d", "2", "--seed", "1", "--mode", "het-interp",
                "--out", str(out))
        assert QuadraticProblem.load(out).interpolation

    def test_scalar_problem(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("gen", "--n", "1", "--d", "1", "--seed", "2", "--mode", "het",
                       "--out", str(out)) == 0

    def test_ten_client_file_has_psd_blocks(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "10", "--d", "100", "--seed", "4", "--mode", "het",
                "--out", str(out))
        p = QuadraticProblem.load(out)
        assert p.n == 10
        for Li in p.L:
            assert np.linalg.eigvalsh(Li).min() >= -1e-9

    def test_degenerate_ensemble_exit_code(self, tmp_path, monkeypatch):
        def boom(n, d, seed):
            raise DegenerateEnsemble("forced")

        monkeypatch.setattr(quadratics, "gen_heterogeneous", boom)
        code = run_cli("gen", "--n", "2", "--d", "2", "--seed", "1", "--mode", "het",
                       "--out", str(tmp_path / "x.json"))
        assert code == 3

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert_config_error(capsys, ["gen", "--n", "2", "--d", "2", "--seed", "-1", "--mode",
                                     "het", "--out", str(out)],
                            "seed must be a non-negative integer, got -1")
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--n", "2")
        assert exc.value.code == 2


class TestTheory:
    def test_identity_sketch_reports_lambda_max(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "3", "--d", "3", "--seed", "9", "--mode", "het",
                "--out", str(out))
        capsys.readouterr()
        assert run_cli("theory", "--problem", str(out), "--sketch", "identity") == 0
        doc = json.loads(capsys.readouterr().out)
        p = QuadraticProblem.load(out)
        lam_max = float(np.linalg.eigvalsh(p.L_bar).max())
        assert doc["theta"] == pytest.approx(lam_max, rel=1e-9)
        assert doc["W_psd"] is True

    def test_shipped_counterexample_inadmissible(self, capsys):
        fixture = cli.counterexample_fixture_path()
        assert run_cli("theory", "--problem", str(fixture), "--sketch", "perm_q") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == "inadmissible"
        assert doc["W_psd"] is False
        assert doc["gamma_max"] is None
        assert any("no finite step constant" in note for note in doc["notes"])

    def test_scaled_het_interpolation_has_zero_bias(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "4", "--d", "4", "--seed", "11", "--mode", "het-interp",
                "--out", str(out))
        capsys.readouterr()
        run_cli("theory", "--problem", str(out), "--sketch", "scaled_perm_het")
        doc = json.loads(capsys.readouterr().out)
        assert doc["h_norm_L"] == pytest.approx(0.0, abs=1e-10)
        assert doc["sigma2"] == pytest.approx(0.0, abs=1e-12)
        assert doc["theta"] == pytest.approx(1.0, abs=1e-9)

    def test_notes_and_gamma_max_follow_the_six_keys(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "5", "--d", "10", "--seed", "12", "--mode", "het",
                "--out", str(out))
        capsys.readouterr()
        assert run_cli("theory", "--problem", str(out), "--sketch", "scaled_perm_het") == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["theta", "rho", "h_norm_L", "x_inf", "sigma2", "W_psd",
                             "notes", "gamma_max"]
        cert = certificates.certificate(QuadraticProblem.load(out),
                                        SketchKind.scaled_perm_het())
        assert doc["notes"] == list(cert.notes)
        assert "sigma2 omitted: enumeration infeasible, no sample budget given" in doc["notes"]
        assert doc["sigma2"] is None
        assert doc["gamma_max"] == cert.gamma_max == 1.0

    def test_random_sparsifiers_certify_at_readme_scale(self, tmp_path):
        """theory with rand_q(20) and bernoulli(0.1) on a gen 10 x 200 file
        exits 0 with a numeric theta, each call in under 1 s on one OpenBLAS
        thread (timed in a child process: the thread count is read when
        numpy loads)."""
        path = tmp_path / "p.json"
        assert run_cli("gen", "--n", "10", "--d", "200", "--seed", "5", "--mode", "het",
                       "--out", str(path)) == 0
        child = (
            "import contextlib, io, json, sys, time\n"
            "from istlab import cli\n"
            "for flags in (['--sketch', 'rand_q', '--q', '20'], ['--sketch', 'bernoulli', '--p', '0.1']):\n"
            "    out = io.StringIO()\n"
            "    t0 = time.perf_counter()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = cli.main(['theory', '--problem', sys.argv[1]] + flags)\n"
            "    print(json.dumps([code, time.perf_counter() - t0, json.loads(out.getvalue())]))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(runs) == 2
        for code, seconds, doc in runs:
            assert code == 0
            assert isinstance(doc["theta"], float) and doc["theta"] > 0.0
            assert seconds < 1.0

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_sigma2_sample_count_below_one_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "3", "--d", "30", "--seed", "1", "--mode", "het",
                "--out", str(out))
        assert_config_error(capsys, ["theory", "--problem", str(out), "--sketch",
                                     "scaled_perm_het", "--sigma2-samples", count],
                            "--sigma2-samples must be >= 1")

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1", "0"])
    def test_gamma_not_finite_positive_exits_2(self, tmp_path, capsys, gamma):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "3", "--d", "3", "--seed", "1", "--mode", "het",
                "--out", str(out))
        assert_config_error(capsys, ["theory", "--problem", str(out), "--sketch",
                                     "scaled_perm_het", "--gamma", gamma],
                            "step size must be a finite positive")

    def test_shape_mismatch_exit_code(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli("gen", "--n", "3", "--d", "4", "--seed", "2", "--mode", "het",
                "--out", str(out))
        assert run_cli("theory", "--problem", str(out), "--sketch", "perm_q") == 4


class TestRun:
    def test_csv_trace_and_meta_sidecar(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        rows = read_trace_csv(out)
        # repeats * (K+1) rows per metric
        assert len(rows) == 2 * 7 * 2
        assert rows[0][:3] == (0, 0, "f_gap_rel_log")
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["artifact"]["name"] == "istlab"
        assert meta["resolved_config"]["K"] == 6
        assert meta["diverged_at"] == [-1, -1]

    def test_meta_sidecar_reproduces_trace_bitwise(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        run_cli("run", "--config", str(cfg_path))
        first = out.read_bytes()
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        rc = meta["resolved_config"]
        replay = {
            "problem": {"generator": rc["problem"]["generator"]},
            "estimator": rc["estimator"],
            "sketch": rc["sketch"],
            "schedule": rc["schedule"],
            "K": rc["K"],
            "seed": rc["seed"],
            "repeats": rc["repeats"],
            "metrics": rc["metrics"],
            "output": rc["output"],
        }
        cfg_path.write_text(json.dumps(replay))
        run_cli("run", "--config", str(cfg_path))
        assert out.read_bytes() == first

    def test_json_trace_roundtrip(self, tmp_path):
        out = tmp_path / "trace.json"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out, fmt="json")))
        run_cli("run", "--config", str(cfg_path))
        doc = read_trace_json(out)
        assert set(doc["metrics"]) == {"f_gap_rel_log", "grad_sq"}
        assert len(doc["final_f"]) == 2
        assert doc["diverged_at"] == [-1, -1]

    def test_k_zero_single_row_per_repeat(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out, K=0, metrics=["grad_sq"])))
        run_cli("run", "--config", str(cfg_path))
        rows = read_trace_csv(out)
        assert len(rows) == 2
        assert {r[0] for r in rows} == {0, 1}

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        out.mkdir()
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], "Is a directory")

    def test_unknown_key_rejected(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        doc = experiment_doc(out)
        doc["plot"] = True
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 2

    def test_diverged_run_exits_zero_with_marker(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        doc = experiment_doc(out, estimator="dgd", K=400, metrics=["grad_sq"])
        del doc["sketch"]
        doc["schedule"] = {"type": "constant", "gamma": 50.0}
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert all(v >= 0 for v in meta["diverged_at"])

    def test_diverged_json_trace_is_strict_json(self, tmp_path):
        # f at the last finite iterate overflows; it is written as null, not Infinity
        prob_path = tmp_path / "p.json"
        run_cli("gen", "--n", "3", "--d", "4", "--seed", "11", "--mode", "het",
                "--out", str(prob_path))
        out = tmp_path / "trace.json"
        cfg_path = tmp_path / "exp.json"
        doc = experiment_doc(out, fmt="json", problem=str(prob_path), estimator="dgd",
                             K=400, repeats=1, metrics=[])
        del doc["sketch"]
        doc["schedule"] = {"type": "constant", "gamma": 50.0}
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        trace = read_trace_json(out)
        assert trace["final_f"] == [None]
        assert trace["diverged_at"][0] > 0

    def test_problem_from_file_with_checksum(self, tmp_path):
        prob_path = tmp_path / "p.json"
        run_cli("gen", "--n", "4", "--d", "4", "--seed", "6", "--mode", "het",
                "--out", str(prob_path))
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out, problem=str(prob_path))))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["resolved_config"]["problem"]["path"] == str(prob_path)
        assert len(meta["resolved_config"]["problem"]["sha256"]) == 64

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_problem_file_exits_2_without_trace(self, tmp_path, capsys, bad):
        prob_path = tmp_path / "p.json"
        run_cli("gen", "--n", "4", "--d", "4", "--seed", "6", "--mode", "het",
                "--out", str(prob_path))
        doc = json.loads(prob_path.read_text())
        doc["L"][1][1] = bad  # off the diagonal, so no other check trips on it
        prob_path.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_doc(out, problem=str(prob_path), metrics=["grad_sq"])))
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], "must be finite")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "p.json"]

    @pytest.mark.parametrize("edit, phrase", [
        (lambda doc: dict(doc, n="x"), "n must be a positive integer, got 'x'"),
        (lambda doc: dict(doc, n=1.5), "n must be a positive integer, got 1.5"),
        (lambda doc: dict(doc, n=True), "n must be a positive integer, got True"),
        (lambda doc: dict(doc, d=2, L=[[1.0, 0.0, 1.0]] * 4, b=[[0.0, 0.0]] * 4),
         "L must be a list of 4 lists of 4 numbers"),
        (lambda doc: dict(doc, L=[["a"] + row[1:] for row in doc["L"]]), "L must be a list of 4 lists of 16"),
        (lambda doc: dict(doc, L=[[True] + row[1:] for row in doc["L"]]), "L must be a list of 4 lists of 16"),
        (lambda doc: dict(doc, b=[[False] + row[1:] for row in doc["b"]]), "b must be a list of 4 lists of 4"),
        (lambda doc: {k: v for k, v in doc.items() if k != "b"}, "b must be a list of 4 lists of 4"),
        (lambda doc: [doc], "must hold a JSON object"),
        (lambda doc: json.dumps(doc)[:40], "not valid JSON"),
    ], ids=["n-string", "n-float", "n-bool", "L-row-length", "L-string", "L-bool", "b-bool", "no-b", "list",
            "truncated"])
    def test_malformed_problem_file_exits_2_without_trace(self, tmp_path, capsys, edit, phrase):
        prob_path = tmp_path / "p.json"
        run_cli("gen", "--n", "4", "--d", "4", "--seed", "6", "--mode", "het",
                "--out", str(prob_path))
        doc = edit(json.loads(prob_path.read_text()))
        prob_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out, problem=str(prob_path))))
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], phrase)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "p.json"]

    def test_problem_file_overflowing_when_symmetrized_exits_2_in_one_line(self, tmp_path, capsys):
        # every entry is finite, but L_i + L_i^T overflows on the diagonal
        prob_path = tmp_path / "big.json"
        prob_path.write_text(json.dumps(
            {"n": 1, "d": 2, "L": [[1e308, 0.0, 0.0, 1.0]], "b": [[0.0, 0.0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_config_error(capsys, ["theory", "--problem", str(prob_path), "--sketch",
                                         "identity"], "overflow the float64 range")


    def test_csv_bytes_of_a_diverged_multi_metric_trace_are_pinned(self, tmp_path):
        # metric_order, not the dict's order, sets the columns' turn; repeat 1
        # stops at its diverged_at = 2 and repeat 2 writes no row; each value is
        # its repr, so these bytes hold however Trace.rows walks the arrays
        nan = float("nan")
        trace = runner.Trace(
            metrics={"grad_sq": np.array([[4.0, 0.1 + 0.2, 1 / 3, 1e-300],
                                          [2.5, 2.5e10, nan, nan], [nan] * 4]),
                     "f_gap_rel_log": np.array([[0.0, -0.0, -12.25, -310.5],
                                                [0.0, 7.0, nan, nan], [nan] * 4])},
            final_f=np.array([-1.0, 3.0, nan]), diverged_at=np.array([-1, 2, 0]),
            gammas=np.full(3, 0.5), x0=np.zeros(2), metric_order=("grad_sq", "f_gap_rel_log"))
        out = tmp_path / "pinned.csv"
        cli.write_trace_csv(trace, out)
        assert out.read_bytes() == (
            b"repeat,k,metric_name,value\r\n"
            b"0,0,grad_sq,4.0\r\n0,0,f_gap_rel_log,0.0\r\n"
            b"0,1,grad_sq,0.30000000000000004\r\n0,1,f_gap_rel_log,-0.0\r\n"
            b"0,2,grad_sq,0.3333333333333333\r\n0,2,f_gap_rel_log,-12.25\r\n"
            b"0,3,grad_sq,1e-300\r\n0,3,f_gap_rel_log,-310.5\r\n"
            b"1,0,grad_sq,2.5\r\n1,0,f_gap_rel_log,0.0\r\n"
            b"1,1,grad_sq,25000000000.0\r\n1,1,f_gap_rel_log,7.0\r\n")


def csv_writer_bytes(trace, path) -> bytes:
    """The CSV trace writer before the joined form: csv.writer over Trace.rows()."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repeat", "k", "metric_name", "value"])
        writer.writerows((r, k, name, repr(value)) for r, k, name, value in trace.rows())
    return path.read_bytes()


def json_dump_trace_bytes(trace, path) -> bytes:
    """The JSON trace writer before json.dumps: json.dump and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cli.trace_json_doc(trace), fh, allow_nan=False)
        fh.write("\n")
    return path.read_bytes()


class TestWriterBytes:
    """Problem files and traces keep the bytes of the json.dump / csv.writer writers."""

    def diverged_trace(self, tmp_path):
        doc = experiment_doc(tmp_path / "unused.csv", estimator="dgd", K=400,
                             metrics=["grad_sq", "f_gap_rel_log", "dist_L_to_xstar"])
        del doc["sketch"]
        doc["schedule"] = {"type": "constant", "gamma": 50.0}
        cfg, _, _ = cli.parse_experiment(doc)
        trace = runner.run(cfg)
        assert (trace.diverged_at > 0).all() and np.isnan(trace.metrics["grad_sq"]).any()
        return trace

    @pytest.mark.parametrize("mode", ["het", "het-interp", "hom"])
    @pytest.mark.parametrize("n, d", [(1, 1), (3, 4)])
    def test_gen_file_equals_json_dump(self, tmp_path, capsys, mode, n, d):
        out = tmp_path / "p.json"
        assert run_cli("gen", "--n", str(n), "--d", str(d), "--seed", "7", "--mode", mode,
                       "--out", str(out)) == 0
        p = cli.generate_problem(mode, n, d, 7)
        oracle = tmp_path / "oracle.json"
        with open(oracle, "w", encoding="utf-8") as fh:
            json.dump(p.to_json(), fh)
            fh.write("\n")
        assert out.read_bytes() == oracle.read_bytes()
        vals = np.linalg.eigvalsh((p.L_bar + p.L_bar.T) / 2.0)
        assert capsys.readouterr().out == (f"lambda_min(L_bar) = {vals[0]:.12g}\n"
                                           f"lambda_max(L_bar) = {vals[-1]:.12g}\n")

    def test_csv_of_a_diverged_run_equals_csv_writer(self, tmp_path):
        trace = self.diverged_trace(tmp_path)
        cli.write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(trace, tmp_path / "o.csv")

    def test_csv_of_a_hand_built_trace_equals_csv_writer(self, tmp_path):
        nan = float("nan")
        trace = runner.Trace(
            metrics={"grad_sq": np.array([[5e-324, -0.0, 1e308], [nan, nan, nan],
                                          [1.5, float("inf"), nan]])},
            final_f=np.array([0.0, nan, nan]), diverged_at=np.array([-1, 0, 2]),
            gammas=np.full(2, 0.5), x0=np.zeros(1), metric_order=("grad_sq",))
        cli.write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(trace, tmp_path / "o.csv")

    def test_json_trace_of_a_diverged_run_equals_json_dump(self, tmp_path):
        trace = self.diverged_trace(tmp_path)
        out = tmp_path / "trace.json"
        cli.write_outputs(trace, {"format": "json", "path": str(out)}, {})
        assert b"null" in out.read_bytes()
        assert out.read_bytes() == json_dump_trace_bytes(trace, tmp_path / "o.json")


class TestHomogeneousRunThroughCli:
    def test_distance_to_fixed_point_decays_geometrically(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        doc = experiment_doc(
            out,
            problem={"generator": {"mode": "hom", "n": 50, "d": 50, "seed": 2,
                                   "precondition": True}},
            sketch={"kind": "scaled_perm_homog"},
            schedule={"type": "constant", "gamma": 0.5},
            K=10,
            repeats=1,
            metrics=["dist_to_xinf"],
        )
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        rows = read_trace_csv(out)
        dist = np.array([v for (_, _, name, v) in rows if name == "dist_to_xinf"])
        ratios = dist[1:] / dist[:-1]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-10)


class TestSweep:
    def test_writes_one_trace_per_gamma(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        assert run_cli("sweep", "--config", str(cfg_path), "--gammas", "0.2,0.5,0.9") == 0
        for g in ("0.2", "0.5", "0.9"):
            assert (tmp_path / f"trace_gamma{g}.csv").exists()
            assert (tmp_path / f"trace_gamma{g}.csv.meta.json").exists()

    def test_empty_gamma_list_rejected(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        assert run_cli("sweep", "--config", str(cfg_path), "--gammas", "") == 2

    @pytest.mark.parametrize("gammas, phrase", [
        ("0.1,abc", "'abc' is not a number"),
        ("nan", "finite positive"),
        ("0.2,inf", "finite positive"),
        ("0.2,-0.1", "finite positive"),
        ("1e-4,1.000001e-4", "would both write"),
        ("0.2,0.5,0.2", "would both write"),
    ])
    def test_bad_gamma_list_exits_2_before_writing(self, tmp_path, capsys, gammas, phrase):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out)))
        argv = ["sweep", "--config", str(cfg_path), "--gammas", gammas]
        assert_config_error(capsys, argv, phrase)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


def assert_config_error(capsys, argv, phrase):
    """``argv`` exits 2 with a one-line message on stderr containing ``phrase``."""
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert phrase in err


class TestExperimentValidation:
    @pytest.mark.parametrize("overrides, phrase", [
        ({"metrics": "grad_sq"}, "metrics must be a list"),
        ({"K": "abc"}, "K must be an integer"),
        ({"K": True}, "K must be an integer"),
        ({"repeats": 2.5}, "repeats must be an integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"schedule": {"type": "constant", "gamma": "x"}}, "step size must be a finite positive"),
        ({"schedule": {"type": "constant", "gamma": True}}, "step size must be a finite positive"),
        ({"schedule": {"type": "staircase", "gamma0": 0.5, "period": "10"}},
         "period must be an integer"),
        ({"schedule": "constant"}, "schedule must be an object"),
        ({"problem": {"generator": {"mode": "het", "n": "4", "d": 4, "seed": 1}}},
         "n must be an integer"),
        ({"output": {"format": "csv", "path": 5}}, "output must be"),
        ({"sketch": {"kind": "rand_q", "q": 2.5}}, "rand_q requires an integer q >= 1"),
        ({"sketch": {"kind": "rand_q", "q": True}}, "rand_q requires an integer q >= 1"),
        ({"sketch": {"kind": "perm_q", "q": "3"}}, "perm_q requires an integer q >= 1"),
        ({"sketch": {"kind": "bernoulli", "p": "0.5"}}, "bernoulli requires a real 0 < p <= 1"),
        ({"sketch": {"kind": "bernoulli", "p": True}}, "bernoulli requires a real 0 < p <= 1"),
        ({"sketch": 5}, "sketch must be an object"),
        ({"sketch": {"kind": "bernoulli", "p": 0.5, "q": 2}}, "bernoulli takes no q parameter"),
        ({"sketch": {"kind": "rand_q", "q": 2, "p": 0.5}}, "rand_q takes no p parameter"),
        ({"sketch": {"kind": "perm_q", "p": 0.5}}, "perm_q takes no p parameter"),
        ({"sketch": {"q": 2}}, "unknown sketch kind None"),
        ({"problem": {"generator": 5}}, "problem must be a path string or {'generator'"),
        ({"problem": {"generator": {"mode": "hom", "n": 4, "d": 4, "seed": 1,
                                    "precondition": "no"}}},
         "precondition must be true or false"),
        ({"metrics": ["grad_sq", "grad_sq"]}, "metrics must not repeat a name"),
        ({"problem": {"generator": {"n": 4, "d": 4, "seed": 1}}}, "generator missing key 'mode'"),
        ({"schedule": {"type": "constant"}}, "schedule missing key 'gamma'"),
        ({"schedule": {"type": "staircase", "divide_by": 2.0}}, "schedule missing key 'gamma0'"),
        ({"output": {"format": "csv", "path": "t.csv", "mode": "w"}}, "unknown output keys ['mode']"),
        ({"output": {"format": "csv"}}, "output missing key 'path'"),
        ({"output": "t.csv"}, "output must be an object"),
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, overrides, phrase):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(tmp_path / "trace.csv", **overrides)))
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], phrase)
        assert not (tmp_path / "trace.csv").exists()

    def test_staircase_past_the_float_range_runs(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(
            out, K=400, schedule={"type": "staircase", "gamma0": 0.1, "divide_by": 10, "period": 1})))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        assert len(read_trace_csv(out)) == 2 * 401 * 2

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text("[1, 2]")
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], "JSON object")


#: Valid experiment documents, small enough that every run takes milliseconds.
FUZZ_BASES = [
    experiment_doc("trace.csv", K=4, problem={"generator": {"mode": "het", "n": 3, "d": 3, "seed": 12}},
                   sketch={"kind": "rand_q", "q": 2}),
    experiment_doc("trace.json", "json", K=4, estimator="cgd",
                   problem={"generator": {"mode": "hom", "n": 2, "d": 4, "seed": 5, "precondition": False}},
                   sketch={"kind": "bernoulli", "p": 0.5},
                   schedule={"type": "staircase", "gamma0": 0.2, "divide_by": 2.0, "period": 2}),
    {key: value for key, value in experiment_doc(
        "trace.csv", K=4, estimator="dgd", metrics=["grad_sq"],
        problem={"generator": {"mode": "het-interp", "n": 2, "d": 2, "seed": 1}}).items() if key != "sketch"},
    # divide_by ** 2 is past the float range from k = 2 on
    experiment_doc("trace.csv", K=4, problem={"generator": {"mode": "het", "n": 2, "d": 3, "seed": 4}},
                   sketch={"kind": "perm_q", "q": 1},
                   schedule={"type": "staircase", "gamma0": 0.1, "divide_by": 1e200, "period": 1}),
]

#: What a fuzzed field may become: null, booleans, strings, lists, objects, NaN,
#: infinities and numbers outside some field's range.
FUZZ_VALUES = [None, True, False, "", "x", [], [1, "a"], {}, {"x": 1},
               math.nan, math.inf, -math.inf, -1, 0, 1, 3, -0.5, 0.0, 2.5, -1e308, 1e308]
#: Fields whose valid but huge values are sizes, not malformed input: they get
#: no huge integer.
FUZZ_SIZES = {"K", "n", "d", "repeats"}


def _field_paths(doc, prefix=()):
    """The key path of every field of a document, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@st.composite
def fuzzed_experiments(draw):
    """A valid experiment document with one or two fields dropped, added or swapped."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(sorted(_field_paths(doc))))
        node = doc
        for name in parents:
            node = node[name]
        values = FUZZ_VALUES if key in FUZZ_SIZES else FUZZ_VALUES + [2**64, 10**400]
        op = draw(st.sampled_from(["drop", "add", "swap", "swap"]))
        if op == "drop":
            del node[key]
        elif op == "add":
            node["extra"] = draw(st.sampled_from(values))
        else:
            node[key] = draw(st.sampled_from(values))
    return doc


@settings(max_examples=300)
@given(doc=fuzzed_experiments())
def test_fuzzed_experiment_parses_or_exits_with_one_error_line(doc):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # where relative problem and output paths land
        try:
            try:
                cli.parse_experiment(doc)
                parsed = True
            except (IstLabError, OSError):
                parsed = False
            pathlib.Path("exp.json").write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", "exp.json"])
        finally:
            os.chdir(cwd)
    assert code in ((0, 2, 3, 4) if parsed else (2, 3, 4))
    if code:
        message = err.getvalue()
        assert message.count("\n") == 1 and message.startswith("error: ")
