import json

import numpy as np
import pytest

from istlab import cli, quadratics
from istlab.errors import DegenerateEnsemble
from istlab.quadratics import QuadraticProblem


def run_cli(*argv):
    return cli.main(list(argv))


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
        rows = cli.read_trace_csv(out)
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
        doc = cli.read_trace_json(out)
        assert set(doc["metrics"]) == {"f_gap_rel_log", "grad_sq"}
        assert len(doc["final_f"]) == 2
        assert doc["diverged_at"] == [-1, -1]

    def test_k_zero_single_row_per_repeat(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(out, K=0, metrics=["grad_sq"])))
        run_cli("run", "--config", str(cfg_path))
        rows = cli.read_trace_csv(out)
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
        rows = cli.read_trace_csv(out)
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
    ])
    def test_malformed_field_exits_2(self, tmp_path, capsys, overrides, phrase):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(experiment_doc(tmp_path / "trace.csv", **overrides)))
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], phrase)
        assert not (tmp_path / "trace.csv").exists()

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text("[1, 2]")
        assert_config_error(capsys, ["run", "--config", str(cfg_path)], "JSON object")
