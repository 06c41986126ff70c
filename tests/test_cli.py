import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import fppvar
from fppvar.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhiCommand:
    def test_value_one(self, capsys):
        code, out, _ = run(capsys, "phi", "--u", "1")
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "phi", "--u", "2")
        assert code == 2
        assert "must lie in" in err

    def test_module_entry_point_is_silent_on_stderr(self):
        src = str(pathlib.Path(fppvar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "fppvar.cli", "phi", "--u", "0.5"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == pytest.approx(0.6276535611757065, rel=1e-12)


class TestPsiCommand:
    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "psi", "--dist", "uniform:lo=0,hi=1", "--y", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_bad_dist(self, capsys):
        code, _, err = run(capsys, "psi", "--dist", "cauchy", "--y", "1")
        assert code == 2


class TestCheckNearGamma:
    def test_report_schema(self, capsys):
        code, out, _ = run(capsys, "check-neargamma", "--dist", "exp:rate=1",
                           "--grid-size", "5000")
        assert code == 0
        rep = json.loads(out)
        for key in ("distribution", "direct_A_hat", "direct_epsilon_hat",
                    "direct_pass", "sufficient_alpha_ok",
                    "sufficient_beta_or_tail_ok", "verdict"):
            assert key in rep
        assert rep["verdict"] == "sufficient-conditions-pass"

    def test_halfnormal_direct_only(self, capsys):
        code, out, _ = run(capsys, "check-neargamma", "--dist", "halfnormal",
                           "--grid-size", "5000")
        assert code == 0
        assert json.loads(out)["verdict"] == "direct-evidence-only"


class TestVerifyPoincare:
    def test_linear_quad(self, capsys):
        code, out, _ = run(capsys, "verify-poincare", "--function", "linear-1d",
                           "--mode", "quad")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"lhs_variance", "discrete_term", "continuous_terms",
                            "rhs_total", "margin", "method", "error_estimate",
                            "tolerance", "passed"}
        assert isinstance(rep["continuous_terms"], list)
        assert abs(rep["margin"]) <= 1e-6
        assert rep["method"] == "quadrature"

    def test_mc_mode(self, capsys):
        code, out, _ = run(capsys, "verify-poincare", "--function", "product-2d",
                           "--mode", "mc", "--samples", "20000", "--seed", "5")
        assert code == 0
        rep = json.loads(out)
        assert rep["method"] == "monte-carlo"
        assert rep["passed"]

    def test_unknown_function(self, capsys):
        code, _, _ = run(capsys, "verify-poincare", "--function", "nope")
        assert code == 2


class TestAveraging:
    def test_verify(self, capsys):
        code, out, _ = run(capsys, "averaging", "--m", "3", "--verify")
        assert code == 0
        rep = json.loads(out)
        assert rep["gradient_ok"] and rep["level_bound_ok"]

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "averaging", "--m", "2", "--eval", "1111")
        assert code == 0
        assert out.strip() == "2"

    def test_wrong_length(self, capsys):
        code, _, err = run(capsys, "averaging", "--m", "2", "--eval", "111")
        assert code == 2


class TestFpp:
    def test_run_json(self, capsys):
        code, out, _ = run(capsys, "fpp", "run", "--d", "2", "--n", "4",
                           "--dist", "exp:rate=1", "--seed", "3")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"distance", "geodesic_edges", "source", "target"}
        assert rep["source"] == [0, 0]
        assert rep["target"] == [4, 0]
        assert rep["distance"] > 0

    def test_response_csv(self, capsys):
        code, out, _ = run(capsys, "fpp", "response", "--n", "3", "--seed", "1",
                           "--edge", "5", "--y-max", "10", "--grid-points", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,distance"
        assert len(lines) == 12

    def test_sweep_csv(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "fpp", "sweep", "--dist", "exp:rate=1",
                           "--ns", "8,16", "--samples", "120", "--seed", "9",
                           "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("n,samples,mean,var,se_var,mean_over_n,"
                               "var_over_n,var_logn_over_n,seed")

    def test_bad_ns(self, capsys):
        code, _, err = run(capsys, "fpp", "sweep", "--ns", "8,banana",
                           "--samples", "120", "--seed", "0")
        assert code == 2


class TestConfigAndUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment line\nsamples=120\nseed=4\nns=8,16\n")
        code, out, _ = run(capsys, "--config", str(cfg), "fpp", "sweep")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",")[1] == "120"
        assert lines[1].split(",")[-1] == "4"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("samples=120\nseed=4\n")
        code, out, _ = run(capsys, "--config", str(cfg), "fpp", "sweep",
                           "--ns", "8", "--samples", "150", "--seed", "6")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[1] == "150"
        assert row[-1] == "6"

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent/cfg", "phi", "--u", "0.5")
        assert code == 2

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("samples 120\n")
        code, _, err = run(capsys, "--config", str(cfg), "phi", "--u", "0.5")
        assert code == 2

    def test_seed_range(self, capsys):
        code, _, _ = run(capsys, "fpp", "run", "--n", "3", "--seed", "-1")
        assert code == 2
        code, _, _ = run(capsys, "fpp", "run", "--n", "3",
                         "--seed", str(2 ** 64))
        assert code == 2
