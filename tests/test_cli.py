import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

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

    def test_import_leaves_scipy_stats_out(self):
        # The edge laws are scipy.special closed forms; importing scipy.stats
        # would cost most of a run's start-up.
        src = str(pathlib.Path(fppvar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", "import sys, fppvar, fppvar.cli; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_inequality_side_leaves_scipy_sparse_out(self):
        # The graph solver loads on the first solve, and these commands
        # solve no graph.  A fresh interpreter: the fpp tests load the
        # solver into this one.
        code = textwrap.dedent("""
            import contextlib, io, sys
            from fppvar.cli import dispatch

            runs = [["phi", "--u", "0.5"],
                    ["psi", "--dist", "gamma:shape=2", "--y", "0.5"],
                    ["check-neargamma", "--dist", "gamma:shape=2", "--grid-size", "500"],
                    ["verify-poincare", "--function", "linear-1d", "--mode", "quad"],
                    ["verify-poincare", "--function", "product-2d", "--mode", "mc",
                     "--samples", "2000", "--seed", "5"],
                    ["averaging", "--m", "3", "--verify"],
                    ["averaging", "--m", "2", "--eval", "1111"]]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [dispatch(argv) for argv in runs]
            print(codes, sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
        """)
        src = str(pathlib.Path(fppvar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0] []\n"


class TestPsiCommand:
    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "psi", "--dist", "uniform:lo=0,hi=1", "--y", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_bad_dist(self, capsys):
        code, _, err = run(capsys, "psi", "--dist", "cauchy", "--y", "1")
        assert code == 2

    def test_density_overflow_is_a_domain_error(self, capsys):
        # beta with a < 1 has a density past the largest float at subnormal y.
        code, out, err = run(capsys, "psi", "--dist", "beta:a=0.05,b=1", "--y", "1e-320")
        assert (code, out, err) == (2, "", "error: the density overflows at y\n")

    def test_nan_is_outside_the_support(self, capsys):
        code, out, err = run(capsys, "psi", "--dist", "exp", "--y", "nan")
        assert (code, out, err) == (2, "", "error: y must lie strictly inside the support\n")

    # Outputs at y = 0.1, 0.5, 0.9, recorded with each law built as a
    # scipy.stats frozen object.
    @pytest.mark.parametrize("spec, want", [
        ("exp:rate=1", ("0.18702968647314008", "0.6341521682808858", "0.9542058770142695")),
        ("gamma:shape=2", ("0.15062212349132093", "0.5363752850771845", "0.8247973978606998")),
        ("beta:a=2,b=3", ("0.10997270042787098", "0.23601620021258474", "0.10229213853778382")),
        ("uniform", ("0.1754983319324868", "0.3989422804014327", "0.17549833193248673")),
        ("chi2", ("0.21257971696744069", "0.7627552294226163", "1.1761098475042033")),
        ("halfnormal", ("0.18664954556010516", "0.5419985625682601", "0.7083078664269183")),
        ("beta:a=0.5,b=0.5", ("0.2676521630581101", "0.6266570686577502", "0.26765216305810996")),
        ("gamma:shape=0.7,rate=3.3",
         ("0.15498735805293562", "0.45572260062964903", "0.6500317749251385"))])
    def test_golden_outputs(self, capsys, spec, want):
        for y, text in zip(("0.1", "0.5", "0.9"), want):
            assert run(capsys, "psi", "--dist", spec, "--y", y)[:2] == (0, text + "\n"), y


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

    # Verdicts and exit codes at the default grid, as recorded before psi
    # took its levels from the quantile grid.
    @pytest.mark.parametrize("spec, verdict", [
        ("exp:rate=1", "sufficient-conditions-pass"),
        ("gamma:shape=2", "sufficient-conditions-pass"),
        ("beta:a=2,b=3", "sufficient-conditions-pass"),
        ("uniform", "sufficient-conditions-pass"),
        ("chi2", "sufficient-conditions-pass"),
        ("halfnormal", "direct-evidence-only"),
        ("beta:a=0.5,b=0.5", "sufficient-conditions-pass"),
        ("gamma:shape=0.7,rate=3.3", "sufficient-conditions-pass")])
    def test_recorded_verdicts(self, capsys, spec, verdict):
        code, out, _ = run(capsys, "check-neargamma", "--dist", spec)
        rep = json.loads(out)
        assert (code, rep["verdict"], rep["direct_pass"]) == (0, verdict, True)

    # SHA-256 of the report at the default grid, recorded with each law built
    # as a scipy.stats frozen object.
    @pytest.mark.parametrize("spec, digest", [
        ("exp:rate=1", "23696ea1866af3fbec54186a6569cd120b161f6fc405b55150f768b7862be221"),
        ("gamma:shape=2", "74c22b85b6c5b7dd222cfcd80b12bfec2f76ab1b9967ecd505619ad4d11b16fe"),
        ("beta:a=2,b=3", "8c1f13180b74aad1576a14f03e6dcb32e512a5813fac08020d50bb04434ca2ed"),
        ("uniform", "fa4537c00cf45a602a5a365270f90450db496c401e07abe6d2fc2d475f83f50f"),
        ("chi2", "26ce72c0786695c33739d1c43ee9bf2a73d299e0e1f51e0ae6764e9b9698944c"),
        ("halfnormal", "70471f667347d40872b08b4b3b1baa022925100b5f338ec42bc814e255e2834d"),
        ("beta:a=0.5,b=0.5", "4817e9f4b298fba662d73f1ddec5be1abaf179943fce911fbed8285510fc036e"),
        ("gamma:shape=0.7,rate=3.3",
         "1778e4e02c869c78e53f02748d992db87b2a10449cb5ef4a5a46dd65f334960f")])
    def test_report_golden(self, capsys, spec, digest):
        code, out, _ = run(capsys, "check-neargamma", "--dist", spec)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("bits", ["01a1", "0121", "01-1", "01\u06611"])
    def test_non_bits_refused(self, capsys, bits):
        # "\u0661" is ARABIC-INDIC DIGIT ONE, which int() reads as 1.
        code, out, err = run(capsys, "averaging", "--m", "2", "--eval", bits)
        assert (code, out, err) == (2, "", "error: bit vector entries must be 0 or 1\n")


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

    def test_run_large_scale_law(self, capsys):
        # Weights near 1e6: the distance is about 3e7, and the geodesic's
        # weights fold to it exactly, so no absolute tolerance may refuse it.
        code, out, err = run(capsys, "fpp", "run", "--n", "64", "--dist", "exp:rate=1e-6",
                             "--seed", "0")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["target"] == [64, 0]
        assert 64e6 / 4 < rep["distance"] < 64e6 * 4
        assert len(rep["geodesic_edges"]) >= 64

    def test_response_csv(self, capsys):
        code, out, _ = run(capsys, "fpp", "response", "--n", "3", "--seed", "1",
                           "--edge", "5", "--y-max", "10", "--grid-points", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,distance"
        assert len(lines) == 12
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert [y for y, _ in rows] == [float(k) for k in range(11)]
        assert all(d > 0 for _, d in rows)

    @pytest.mark.parametrize("args, msg", [
        (("--y-max", "inf"), "--y-max must be finite and positive"),
        (("--y-max", "nan"), "--y-max must be finite and positive"),
        (("--y-max", "0"), "--y-max must be finite and positive"),
        (("--y-max", "-1"), "--y-max must be finite and positive"),
        (("--grid-points", "1"), "--grid-points must be at least 2"),
    ])
    def test_response_grid_refused(self, capsys, args, msg):
        # Refused before the grid is built, so numpy warns of nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fpp", "response", "--n", "8", "--seed", "3",
                                 "--edge", "40", *args)
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize("args, digest", [
        (("--n", "8", "--seed", "1", "--edge", "610"),
         "d59486d5afacd900fda29cc83ba37a0385828b5b47e100fc7e8186bb1d5a5e60"),
        (("--n", "8", "--seed", "1", "--edge", "0"),
         "57d4a9be1c7d6e5919c11cafec39e832e64ccb1046d12d595955777a3a13580a"),
        (("--n", "8", "--seed", "1", "--edge", "610", "--y-max", "0.2", "--grid-points", "11"),
         "ecc5b24d826ea44989c17f2f87e78a61d75faecce2c00280d49a64e4e969aa3f"),
        (("--n", "8", "--seed", "1", "--edge", "610", "--grid-points", "2"),
         "cb71a5de43b2edaf599925e91204b166d793e9edca3c506b59253dc376f66cdc"),
        (("--d", "3", "--n", "4", "--dist", "gamma:shape=2", "--seed", "7", "--edge", "19057"),
         "622892abf7dc3293139ac2de50b5dc7aa367f7632f3ea5508233fe679de81183"),
    ], ids=["on-geodesic", "off-geodesic", "below-breakpoint", "two-points", "gamma-d3"])
    def test_response_csv_golden(self, capsys, args, digest):
        # Digests recorded with one full solve per grid point, then re-recorded
        # when the rows became Python float reprs (the same bytes as before
        # with numpy's ``np.float64(...)`` wrappers stripped); edge 610 of the
        # seed-1 field and edge 19057 of the d=3 field lie on the geodesic.
        code, out, _ = run(capsys, "fpp", "response", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("law, n, digest", [
        ("exp:rate=1", 4, "d2d3c5d89ea9f88f5b3b7db33c429487f13b3528b74b665b10b8434819bb9956"),
        ("exp:rate=1", 16, "65a7db63f54dd703fed8dbbd7146ab8b8977dd8b0f329676ab37eb4d4f270f7f"),
        ("exp:rate=1", 64, "c563ad97b538ca044ecddca5ab5f992cc7fd522e0a26ecfd63024cfe8731a914"),
        ("gamma:shape=2", 4, "992ecc89ac628ca3a979b7d5339a64e33f929bd22bf414cf809dac5fad5f799c"),
        ("gamma:shape=2", 16, "1c0529e97c2af33af51a00c44f601cda1d0f6b044fed62995e5c2d4edaf793f8"),
        ("gamma:shape=2", 64, "fa79c029d0dfabf47685accd57196386a0f995776f350102e9774add5310bec1"),
        ("beta:a=0.5,b=0.5", 4, "35a7a9fafb2a8a7d0e0d3c4b0fe7efa4a7786afa1c5ee516c934f37816030dfa"),
        ("beta:a=0.5,b=0.5", 16, "cf199b8341d4285fcf7233b00d9fd6cd1f8ad933230d651a7fabf94b47aab3db"),
        ("beta:a=0.5,b=0.5", 64, "88c3f2b0eb1692a3546b56ffd0f0a5b863dfb6a7f0bc79707178d01d51fc4662"),
        ("halfnormal", 4, "3ec84ff4d7b5aadd5209ddd4c1700465c648cb69499fe722cf8c79585444af65"),
        ("halfnormal", 16, "9568326b94036a8dc59ccfaf7dc3fec0dd8d5713450efea0d157635591b0a3b6"),
        ("halfnormal", 64, "0ae787ae0cd539f8d2ee54c730c99c461a3820b407cc659b3edf4cd866c650e6"),
    ])
    def test_run_json_golden(self, capsys, law, n, digest):
        # The run JSON of seeds 0-2, concatenated.  Under continuous laws the
        # geodesic is unique, so these bytes do not depend on how exact ties
        # between optimal paths are broken.
        out = ""
        for seed in ("0", "1", "2"):
            code, text, _ = run(capsys, "fpp", "run", "--n", str(n), "--dist", law,
                                "--seed", seed)
            assert code == 0
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sweep_csv(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "fpp", "sweep", "--dist", "exp:rate=1",
                           "--ns", "8,16", "--samples", "120", "--seed", "9",
                           "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("n,samples,mean,var,se_var,mean_over_n,"
                               "var_over_n,var_logn_over_n,seed")

    def test_sweep_csv_golden(self, capsys):
        # The sweep CSV is a pure function of its arguments: these bytes
        # must not move when the sampler, the box or the solver is rewritten.
        code, out, _ = run(capsys, "fpp", "sweep", "--ns", "8,16", "--samples", "100",
                           "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1083b0ebbb9c8b3decdf7d94a041f48d3b1475dcc11731d2123b8d7111bd1ef3")

    @pytest.mark.parametrize("args, digest", [
        (("--dist", "gamma:shape=2", "--ns", "16,32,64", "--samples", "500", "--workers", "2"),
         "24b8a7af49f2ace1ed11643fd0fbc363670a8c7448d73cdd4571ddcaea45355d"),
        (("--dist", "beta:a=2,b=3", "--ns", "8,16", "--samples", "200"),
         "284178a5b6d3826e43cf501c9bc5bdf0227e4fc1b8bd261b1136c26f2e5ea71d"),
    ], ids=["gamma-2w", "beta"])
    def test_sweep_csv_golden_costly_quantile(self, capsys, args, digest):
        # Laws whose rows take the pruned replicate; digests recorded on the
        # full-field path.
        code, out, _ = run(capsys, "fpp", "sweep", *args, "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_repeated_dist_key_exits_2(self, capsys):
        code, out, err = run(capsys, "fpp", "sweep", "--dist", "gamma:shape=2,shape=3",
                             "--ns", "8", "--samples", "120")
        assert code == 2
        assert out == ""
        assert "repeated distribution parameter 'shape'" in err

    def test_bad_ns(self, capsys):
        # An empty token was dropped, and the sweep ran without it.
        for ns in ("8,banana", "8,,16", "8,16,", ",8", "8, ,16"):
            code, out, err = run(capsys, "fpp", "sweep", "--ns", ns,
                                 "--samples", "120", "--seed", "0")
            assert (code, out) == (2, ""), ns
            assert "argument --ns" in err, ns

    @pytest.mark.parametrize("flags", [("--ns", ""), ("--workers", "0"),
                                       ("--workers", "-3")], ids=["empty-ns", "0", "-3"])
    def test_empty_or_invalid_sweep_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "fpp", "sweep", "--ns", "8", "--samples", "120",
                             *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


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
        # a bare --config fails in the pre-parse and still returns, not raises
        assert run(capsys, "--config")[0] == 2

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        # a line without "=", a misspelt key, a value outside --mode's choices,
        # values that do not convert for options of another subcommand
        for text in ("samples 120\n", "sampels=100\n", "mode=foo\n",
                     "seed=abc\n", "grid-size=abc\n", "ns=8,,16\n", "ns=8,x\n"):
            cfg.write_text(text)
            code, _, err = run(capsys, "--config", str(cfg), "phi", "--u", "0.5")
            assert code == 2, text

    def test_repeated_config_key(self, capsys, tmp_path):
        # Refused like a repeated distribution key, spacing aside, instead
        # of running with the last value.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed=1\nu=0.5\n seed = 2\n")
        code, out, err = run(capsys, "--config", str(cfg), "phi")
        assert (code, out, err) == (2, "", "error: repeated config key 'seed'\n")

    def test_seed_range(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fpp", "run", "--n", "3", "--seed", "-1")
        assert code == 2
        code, _, _ = run(capsys, "fpp", "run", "--n", "3",
                         "--seed", str(2 ** 64))
        assert code == 2
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed={2 ** 64}\n")
        code, _, _ = run(capsys, "--config", str(cfg), "fpp", "run", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize("text, argv, key, want", [
        ("d=3\n", ["fpp", "run", "--n", "3"], "source", [0, 0, 0]),
        ("mode=mc\nsamples=2000\n", ["verify-poincare", "--function", "linear-1d"],
         "method", "monte-carlo"),
        ("function=sin-1d\n", ["verify-poincare"], "method", "quadrature"),
    ], ids=["d", "mode", "function"])
    def test_config_reaches_every_option(self, capsys, tmp_path, text, argv, key, want):
        # --d and --mode have argparse defaults and --function is required
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert json.loads(out)[key] == want

    def test_config_sweep_matches_flags(self, capsys, tmp_path):
        values = {"dist": "exp:rate=2", "d": "3", "ns": "2", "samples": "100",
                  "seed": "11", "workers": "2"}
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        code_cfg, via_config, _ = run(capsys, "--config", str(cfg), "fpp", "sweep")
        flags = [tok for k, v in values.items() for tok in (f"--{k}", v)]
        code_flags, via_flags, _ = run(capsys, "fpp", "sweep", *flags)
        assert code_cfg == code_flags == 0
        assert via_config == via_flags
        assert via_config.split("\n")[1].startswith("2,100,")
